"""Presentation relations and the q-identity toolbox."""

import pytest

from ihall.ihall import HallAlgebra
from ihall.iqg import Psi, build_relation_suite, relation_residual, verify_presentation
from ihall.iquiver import IQuiver, builtin_iquiver
from ihall.qseries import (
    _kmrd_group,
    _qbinom_sum,
    _t_pair,
    adu_triples,
    comb2,
    km1_residual,
    km3_residual,
    km5_residual,
    kmrd_residual,
    p_exponent,
    qbinom,
    qbinom_alt_residual,
    qbinom_high_residual,
    qbinom_low_residual,
    qdfact,
    qdfact_ratio,
    run_identity_suites,
    run_t_suite,
    t1_value,
    t_value,
)
from ihall.ring import ONE, LaurentPoly, qfact, qfact_ratio
from quivers import quiver


def test_suite_shapes():
    sizes = {
        "rank1-split": 1,
        "a2-split": 9,
        "a3-quasisplit": 20,
        "kronecker-r1": 7,
    }
    for name, want in sizes.items():
        suite = build_relation_suite(builtin_iquiver(name))
        assert len(suite) == want
        assert len({inst.label for inst in suite}) == want


def test_suite_kinds_a2():
    suite = build_relation_suite(builtin_iquiver("a2-split"))
    kinds = sorted(inst.kind for inst in suite)
    assert kinds == ["fixed-serre"] * 4 + ["torus-b"] * 4 + ["torus-torus"]


def test_suite_kinds_kronecker():
    suite = build_relation_suite(builtin_iquiver("kronecker-r1"))
    kinds = sorted(inst.kind for inst in suite)
    assert kinds == ["pair"] * 2 + ["torus-b"] * 4 + ["torus-torus"]


def test_suite_kinds_commuting_pair():
    # c(1, 3) = c(2, 4) = 0 with 3 and 4 off the orbit {1, 2}: one commute
    # row per such unordered pair, and it is no trivial zero
    iq = quiver("commuting-pair")
    suite = build_relation_suite(iq)
    kinds = sorted(inst.kind for inst in suite)
    assert kinds == ["commute"] * 2 + ["pair"] * 4 + ["serre"] * 4 + ["torus-b"] * 16 + ["torus-torus"] * 6
    alg = HallAlgebra(iq, 2)
    psi = Psi(alg)
    for inst in suite:
        if inst.kind == "commute":
            assert (inst.i, inst.j) in (("1", "3"), ("2", "4"))
            assert relation_residual(alg, inst, psi).is_zero()
            assert not (psi.B(inst.i) * psi.B(inst.j)).is_zero()


def test_suite_requires_virtually_acyclic():
    iq = IQuiver(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        tau={"1": "1", "2": "2"},
        tau_arrows={"a": "a", "b": "b"},
    )
    with pytest.raises(ValueError):
        build_relation_suite(iq)


def test_presentation_residuals_vanish():
    for name in ("a2-split", "kronecker-r1"):
        for q in (2, 3):
            alg = HallAlgebra(builtin_iquiver(name), q)
            for label, res in verify_presentation(alg):
                assert res.is_zero(), label


def test_single_residual_nonvacuous():
    # perturbing the target q makes a fixed-serre residual visibly nonzero
    alg = HallAlgebra(builtin_iquiver("a2-split"), 2)
    psi = Psi(alg)
    suite = build_relation_suite(alg.iq)
    inst = next(i for i in suite if i.kind == "fixed-serre")
    assert relation_residual(alg, inst, psi).is_zero()
    # a single summand of the alternating sum is nonzero on its own
    assert not (psi.B(inst.i) * psi.B(inst.j) * psi.B(inst.i)).is_zero()


def test_psi_normalization():
    alg = HallAlgebra(builtin_iquiver("a2-split"), 2)
    psi = Psi(alg)
    assert psi.B("1") == alg.simple("1").scale(-1)
    assert psi.K("1") == alg.torus_k("1").scale(alg.scalar(-1) / 2)

    algk = HallAlgebra(builtin_iquiver("kronecker-r1"), 2)
    psik = Psi(algk)
    # representative of the orbit carries the minus sign, its partner a v
    assert psik.B("1") == algk.simple("1").scale(-1)
    assert psik.B("2") == algk.simple("2").scale(algk.v_pow(1))
    assert psik.K("1") == algk.torus_k("1").scale(algk.v_pow(1))


def test_p_exponent_value():
    assert p_exponent(1, 1, 0, 1, 1) == 3
    assert p_exponent(1, 2, 1, 1, 1) == 2


def test_t_hand_values():
    assert t_value(1, 0, 1).is_zero()
    assert t_value(2, 1, 0).is_zero()
    assert t1_value(2, 1, 0).is_zero()
    # outside the stated domain the sum need not vanish
    assert not t_value(1, 0, 0).is_zero()


def _t_reference(a, d, u, swap):
    # the T sum term by term, each term with its own three factor ratios
    kmax = (a + 1) // 2
    total = LaurentPoly.const(0)
    for n in range(0, a + 2):
        for k in range(0, n // 2 + 1):
            for m in range(0, (a + 1 - n) // 2 + 1):
                r = d - k - m
                if r < 0 or r > n - 2 * k:
                    continue
                s, t = n - 2 * k, 1 + a - n - 2 * m
                z = k * (k - 1) + m * (m + 1) - comb2(s) - comb2(t) + p_exponent(a, u, r, s, t)
                shifted = (n % 2 == 0) == swap
                e = z + (2 * k - 2 * m if shifted else 0)
                term = (
                    LaurentPoly.v_pow(e)
                    * qbinom(u, t - r)
                    * qfact_ratio(r, d)
                    * qdfact_ratio(2 * k, 2 * kmax)
                    * qdfact_ratio(2 * m, 2 * kmax)
                )
                total = total + term if n % 2 == 0 else total - term
    return total


def test_t_sums_match_term_by_term_reference():
    # outside the admissible domain the sums are nonzero, so the grouped
    # evaluation is compared with the plain one on nonvanishing values too,
    # up to the bench's amax
    nonzero = [0, 0]
    for a in range(8):
        for d in range((a + 1) // 2 + 1):
            for u in range(a + 3):
                assert t_value(a, d, u) == _t_reference(a, d, u, False), (a, d, u)
                assert t1_value(a, d, u) == _t_reference(a, d, u, True), (a, d, u)
                nonzero[0] += not t_value(a, d, u).is_zero()
                nonzero[1] += not t1_value(a, d, u).is_zero()
    assert nonzero == [16, 16]


def test_t_pair_is_computed_once_per_triple():
    _t_pair.cache_clear()
    t_value(7, 2, 3)
    t1_value(7, 2, 3)
    t_value(7, 2, 3)
    info = _t_pair.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_adu_domain():
    triples = list(adu_triples(2))
    assert len(triples) == 9
    assert (0, 0, 1) in triples
    assert (2, 1, 1) in triples
    assert (1, 0, 0) not in triples
    for a, d, u in triples:
        assert 0 <= d <= (a + 1) // 2
        assert 0 <= u <= a + 1 - 2 * d
        assert (d, u) != (0, 0)


def test_t_sums_vanish_small():
    for a, d, u in adu_triples(4):
        assert t_value(a, d, u).is_zero(), (a, d, u)
        assert t1_value(a, d, u).is_zero(), (a, d, u)


def test_km_identities_small():
    for p in range(1, 7):
        assert km1_residual(p).is_zero()
        assert km3_residual(p).is_zero()
        assert km5_residual(p).is_zero()
        # every family stays in Z[v, v^-1], no gcd-reduced fractions
        assert type(km3_residual(p)) is LaurentPoly
        assert type(km5_residual(p)) is LaurentPoly
    # [2p]!!/[p]! is the product of the v^j + v^-j
    for p in range(7):
        prod = LaurentPoly.const(1)
        for j in range(1, p + 1):
            prod = prod * (LaurentPoly.v_pow(j) + LaurentPoly.v_pow(-j))
        assert qdfact(2 * p).exact_div(qfact(p)) == prod
    for d in range(1, 7):
        assert kmrd_residual(d).is_zero()


def test_kmrd_groups_match_term_by_term_partial_sums():
    # kmrd_residual is zero, so a grouping that dropped or mis-shifted terms
    # could pass it by returning zero; each k group is nonzero and must equal
    # the plain sum of its terms
    for d in range(1, 9):
        for k in range(d + 1):
            ref = LaurentPoly.const(0)
            for m in range(d - k + 1):
                r = d - k - m
                term = (
                    LaurentPoly.v_pow(comb2(r + 1) - 2 * (k - 1) * m)
                    * qfact_ratio(r, d)
                    * qdfact_ratio(2 * k, 2 * d)
                    * qdfact_ratio(2 * m, 2 * d)
                )
                ref = ref + term if r % 2 == 0 else ref - term
            assert not ref.is_zero(), (d, k)
            assert _kmrd_group(d, k) == ref, (d, k)
        assert kmrd_residual(d).is_zero()


def binomial_product_residual(p, zexp):
    """Finite q-binomial theorem at z = v^zexp, as an exact difference."""
    total = _qbinom_sum(p, lambda t: t * (1 - p + zexp))
    prod = ONE
    for j in range(p):
        prod = prod * (ONE + LaurentPoly.v_pow(-2 * j + zexp))
    return total - prod


def test_qbinom_identities_small():
    for p in range(1, 7):
        assert qbinom_low_residual(p).is_zero()
        assert qbinom_high_residual(p).is_zero()
        for d in range(-(p - 1), p):
            if (d - (p - 1)) % 2 == 0:
                assert qbinom_alt_residual(p, d).is_zero()
    for p in range(4):
        for zexp in (-2, 0, 1, 3):
            assert binomial_product_residual(p, zexp).is_zero()


def test_qbinom_sum_by_hand():
    v = LaurentPoly.v_pow
    # 1 - v [2]_{v^2} + v^2 = 1 - v^3 - v^-1 + v^2
    assert _qbinom_sum(2, lambda t: t, step=2, alternating=True) == (
        1 - v(3) - v(-1) + v(2)
    )
    # v^0 + v^-1 [2] + v^-2 = 2 + 2 v^-2
    assert _qbinom_sum(2, lambda t: -t) == 2 + 2 * v(-2)
    for p in range(6):
        for step in (1, 2, 3):
            # at v = 1 each [p choose t] is the binomial coefficient
            assert sum(_qbinom_sum(p, lambda t: 5 * t - 2, step).terms.values()) == 2 ** p
            alt = _qbinom_sum(p, lambda t: 5 * t - 2, step, alternating=True)
            assert sum(alt.terms.values()) == (1 if p == 0 else 0)


def test_runner_names():
    names = [name for name, ok in run_identity_suites(pmax=4, dmax=4)]
    assert names == [
        "km-factorial",
        "km-double-factorial",
        "km-binomial-product",
        "km-alternating",
        "qbinom-alternating",
        "qbinom-low",
        "qbinom-high",
    ]
    assert all(ok for _, ok in run_identity_suites(pmax=4, dmax=4))
    assert all(ok for _, ok in run_t_suite(amax=3))
