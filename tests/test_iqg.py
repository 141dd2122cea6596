"""Presentation relations and the q-identity toolbox."""

import pytest

from ihall import ring
from ihall.idp import ktilde
from ihall.ihall import HallAlgebra
from ihall.iqg import Psi, build_relation_suite, relation_residual
from ihall.iquiver import IQuiver, builtin_iquiver
from ihall.ring import (
    ONE,
    LaurentPoly,
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
    qfact,
    qfact_ratio,
    run_identity_suites,
    run_t_suite,
    t1_value,
    t_value,
)
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
    assert ktilde(alg, "1") == alg.torus_k("1").scale(alg.scalar(-1) / 2)

    algk = HallAlgebra(builtin_iquiver("kronecker-r1"), 2)
    psik = Psi(algk)
    # representative of the orbit carries the minus sign, its partner a v
    assert psik.B("1") == algk.simple("1").scale(-1)
    assert psik.B("2") == algk.simple("2").scale(algk.v_pow(1))
    assert ktilde(algk, "1") == algk.torus_k("1").scale(algk.v_pow(1))


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


def _norm(f):
    return sum(map(abs, f.coeffs))


def _all_triples(amax):
    # the admissible triples and the nonvanishing ones past u's bound
    for a in range(amax + 1):
        for d in range((a + 1) // 2 + 1):
            for u in range(a + 3):
                yield a, d, u


def test_t_sums_match_term_by_term_reference():
    # outside the admissible domain the sums are nonzero, so the grouped
    # evaluation is compared with the plain one on nonvanishing values too,
    # up to the bench's amax
    nonzero = [0, 0]
    for a, d, u in _all_triples(7):
        assert t_value(a, d, u) == _t_reference(a, d, u, False), (a, d, u)
        assert t1_value(a, d, u) == _t_reference(a, d, u, True), (a, d, u)
        nonzero[0] += not t_value(a, d, u).is_zero()
        nonzero[1] += not t1_value(a, d, u).is_zero()
    assert nonzero == [16, 16]


def test_stepped_exponents_match_p_exponent():
    # _t_groups steps the exponent z from each group's top n by one slope per
    # triple; every term must keep the exponent p_exponent gives, and each
    # group must hold the n whose binomial [u choose t - r] is not 0
    count = 0
    for a, d, u in _all_triples(10):
        groups, _ = ring._t_groups(a, d, u)
        for k, m, _, _, terms, _ in groups:
            r = d - k - m
            assert [n for n, _, _ in terms] == [
                n for n in range(a + 1 - 2 * m, r + 2 * k - 1, -1) if 0 <= 1 + a - n - 2 * m - r <= u
            ], (a, d, u, k, m)
            for n, e, j in terms:
                s, t = n - 2 * k, 1 + a - n - 2 * m
                z = k * (k - 1) + m * (m + 1) - comb2(s) - comb2(t) + p_exponent(a, u, r, s, t)
                assert (e, j) == (z + qbinom(u, j).lo, t - r), (a, d, u, k, m, n)
                count += 1
    assert count == 7852


def _warmed(amax, nb=None):
    """{triple: (T, T1) by _t_reference} up to amax, with every memo that
    _t_pair reads filled (and its blocks' images in nb-byte slots too), so
    that a later _t_pair call takes no Laurent product: _slot_bytes, which
    the tests below patch, sets the width of every product too."""
    refs = {}
    for x in _all_triples(amax):
        refs[x] = _t_reference(*x, False), _t_reference(*x, True)
        _t_pair(*x)
        for *_, terms, ratios in ring._t_groups(*x)[0] if nb else ():
            for block in [(qbinom, x[2], j) for _, _, j in terms] + list(ratios):
                ring._image(*block, nb)
    _t_pair.cache_clear()
    return refs


def test_t_pair_bound_holds_the_sums(monkeypatch):
    # the bound that sets the slot width is at least the l1 norm of T and of
    # T1, so at least every coefficient: no slot can carry into the next
    refs = _warmed(8)
    bounds = []
    monkeypatch.setattr(ring, "_slot_bytes", lambda m, width=ring._slot_bytes: bounds.append(m) or width(m))
    try:
        for (a, d, u), (ref, ref1) in refs.items():
            bounds.clear()
            assert _t_pair(a, d, u) == (ref, ref1), (a, d, u)
            assert len(bounds) == 1 and bounds[0] >= max(_norm(ref), _norm(ref1)), (a, d, u)
    finally:
        _t_pair.cache_clear()


def test_t_pair_needs_its_slot_width(monkeypatch):
    # in one-byte slots the images still hold T and T1 at v = 2^8 exactly,
    # but a coefficient past 127 carries into the next slot, so the sums
    # decode to other polynomials
    refs = _warmed(7, nb=1)
    monkeypatch.setattr(ring, "_slot_bytes", lambda m: 1)
    try:
        wrong = [x for x, (ref, _) in refs.items() if t_value(*x) != ref]
    finally:
        _t_pair.cache_clear()
    assert wrong
    assert all(max(map(abs, refs[x][0].coeffs)) > 127 for x in wrong)


def test_block_with_odd_steps_is_refused():
    # _image keeps only the even entries of a block, so a block that is not
    # v^lo times a polynomial in v^2 raises, under python -O too
    def odd(i, j):
        return LaurentPoly({i: 1, j: 1})

    assert ring._block(odd, 0, 2) == (0, 2)
    with pytest.raises(ValueError, match=r"odd\(0, 1\) is not v\^lo times"):
        ring._block(odd, 0, 1)


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


def test_km_identities_small():
    for p in range(1, 7):
        assert km1_residual(p).is_zero()
        assert km3_residual(p).is_zero()
        assert km5_residual(p).is_zero()
        # every family stays in Z[v, v^-1], no gcd-reduced fractions
        assert type(km3_residual(p)) is LaurentPoly
        assert type(km5_residual(p)) is LaurentPoly
    # km3 takes [2p]!!/[p]! as the product of the v^j + v^-j: it times [p]!
    # is [2p]!! at every p up to the pmax ceiling
    prod = LaurentPoly.const(1)
    for p in range(ring.CEILING["pmax"] + 1):
        if p:
            prod = prod * (LaurentPoly.v_pow(p) + LaurentPoly.v_pow(-p))
        assert qfact(p) * prod == qdfact(2 * p), p
    # kmrd takes 2d + 3 products, so d <= 16 stays cheap
    for d in range(1, 17):
        assert kmrd_residual(d).is_zero(), d


def test_kmrd_s_groups_match_term_by_term_partial_sums():
    # kmrd_residual is zero, so a regrouping that dropped or mis-shifted
    # terms could pass it by returning zero; each s group is nonzero and
    # must equal the plain sum of its terms over k, with m = s - k (all of
    # one sign, (-1)^r, which the groups leave out)
    for d in range(1, 9):
        groups = ring._kmrd_groups(d)
        assert len(groups) == d + 1
        for s, (e, f) in enumerate(groups):
            r = d - s
            ref = LaurentPoly.const(0)
            for k in range(s + 1):
                m = s - k
                ref = ref + (
                    LaurentPoly.v_pow(comb2(r + 1) - 2 * (k - 1) * m)
                    * qfact_ratio(r, d)
                    * qdfact_ratio(2 * k, 2 * d)
                    * qdfact_ratio(2 * m, 2 * d)
                )
            assert not ref.is_zero(), (d, s)
            assert LaurentPoly.v_pow(e) * f * qdfact(2 * d) == ref, (d, s)


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
