"""Idivided powers: symbolic forms and Hall-algebra evaluation."""

import tracemalloc

import pytest

from ihall.frep import BudgetError
from ihall.idp import idp_hall
from ihall.ihall import HallAlgebra
from ihall.iquiver import BUILTIN_NAMES, builtin_iquiver
from ihall.oracle import (
    SymRank1,
    idp_closed,
    idp_product,
    idp_recursive,
    sym_to_hall,
)
from ihall.ring import LaurentPoly, V, qdfact, qfact


def test_base_cases():
    for parity in (0, 1):
        assert idp_closed(0, parity) == SymRank1.one()
        assert idp_closed(1, parity) == SymRank1.gen_S()
        assert idp_product(0, parity) == SymRank1.one()
        assert idp_recursive(1, parity) == SymRank1.gen_S()


def _is(sym, key, num, den):
    """The coefficient of sym at key is num/den."""
    return sym.terms[key] * den == num * sym.den


def test_closed_n2_coefficients():
    out = idp_closed(2, 0)
    vi = LaurentPoly.v_pow(-1)
    assert set(out.terms) == {(2, 0), (0, 1)}
    assert _is(out, (2, 0), vi, qfact(2))
    assert _is(out, (0, 1), V - vi, qdfact(2))
    # odd parity shifts the K-term exponent by 2
    out1 = idp_closed(2, 1)
    assert set(out1.terms) == {(2, 0), (0, 1)}
    assert _is(out1, (2, 0), vi, qfact(2))
    assert _is(out1, (0, 1), (V - vi) * LaurentPoly.v_pow(2), qdfact(2))


def test_symbolic_equality_weighs_the_denominator():
    # a/d equals (a c)/(d c), but not a/(d c), a c/d or a/d plus a term
    a = {(2, 0): V + 3, (0, 1): LaurentPoly.v_pow(-2)}
    d, c = qfact(3), 2 * V - LaurentPoly.v_pow(-1)
    x = SymRank1(a, d)
    ac = {k: t * c for k, t in a.items()}
    assert x == SymRank1(ac, d * c)
    assert x != SymRank1(a, d * c)
    assert x != SymRank1(a, d * 2)
    assert x != SymRank1(a)
    assert x != SymRank1({**a, (0, 1): a[(0, 1)] * 2}, d)
    assert x != SymRank1({**a, (1, 0): V}, d)
    assert x != SymRank1({(2, 0): a[(2, 0)]}, d)
    assert x + SymRank1({(1, 0): V}, c) == SymRank1({**ac, (1, 0): V * d}, d * c)
    assert x.over(c) == SymRank1({k: t * d for k, t in a.items()}, d * d * c)
    assert x != a and SymRank1({}, d) == SymRank1({})
    with pytest.raises(ZeroDivisionError):
        SymRank1(a, LaurentPoly())
    with pytest.raises(ZeroDivisionError):
        x.over(0)
    with pytest.raises(TypeError):
        hash(x)


def test_negative_n_rejected():
    for fn in (idp_product, idp_recursive, idp_closed):
        with pytest.raises(ValueError):
            fn(-1, 0)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_hall_evaluation_matches_its_laurent_forms(name, q):
    # idp_hall takes its scalars at v = sqrt(q) as QSqrt numbers; the
    # reference takes them as Laurent polynomials and specializes them: the
    # symbolic product form at a fixed vertex, [S]^n / [n]! elsewhere
    alg = HallAlgebra(builtin_iquiver(name), q)
    for vertex in alg.iq.vertices:
        fixed = alg.iq.tau[vertex] == vertex
        for n in range(6):
            if not fixed:
                plain = alg.power(alg.simple(vertex), n).scale(alg.scalar(qfact(n)).inverse())
                assert idp_hall(alg, vertex, n) == plain, (vertex, n)
                continue
            for parity in (0, 1):
                sym = sym_to_hall(alg, vertex, idp_product(n, parity))
                assert idp_hall(alg, vertex, n, parity) == sym, (vertex, n, parity)


def test_huge_n_reaches_the_budget_in_little_memory():
    # the products pass the budget at dimension 7, before any list of the
    # n/2 bracket indices could be built
    alg = HallAlgebra(builtin_iquiver("rank1-split"), 2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            idp_hall(alg, "1", 10**6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_fixed_vertex_needs_parity():
    alg = HallAlgebra(builtin_iquiver("rank1-split"), 2)
    with pytest.raises(ValueError):
        idp_hall(alg, "1", 2)


def test_non_fixed_vertex_is_plain_divided_power():
    alg = HallAlgebra(builtin_iquiver("kronecker-r1"), 2)
    n = 3
    plain = alg.power(alg.simple("1"), n).scale(
        qfact(n).specialize_sqrtq(2).inverse()
    )
    assert idp_hall(alg, "1", n) == plain
    # a parity at a moved vertex is ignored, silently
    assert idp_hall(alg, "1", 2, parity=0) == idp_hall(alg, "1", 2)


def test_sym_to_hall_rejects_swapped_vertex():
    alg = HallAlgebra(builtin_iquiver("kronecker-r1"), 2)
    with pytest.raises(ValueError):
        sym_to_hall(alg, "1", SymRank1.one())


def test_recursion_consistency_in_hall_algebra():
    # [S] * [S]^(m) = [m+1][S]^(m+1) - [m] kcoef [S]^(m-1) K on the
    # steps whose parity carries the correction
    from ihall.ring import qint

    alg = HallAlgebra(builtin_iquiver("rank1-split"), 3)
    s = alg.simple("1")
    k = alg.torus_k("1")
    kcoef = (V * (V - LaurentPoly.v_pow(-1)) ** 2).specialize_sqrtq(3)
    for parity in (0, 1):
        for m in (1, 2, 3):
            lhs = s * idp_hall(alg, "1", m, parity)
            correction = (m % 2 == 1) if parity == 1 else (m % 2 == 0)
            if correction:
                lhs = lhs + (idp_hall(alg, "1", m - 1, parity) * k).scale(
                    alg.scalar(qint(m)) * kcoef
                )
            assert lhs == idp_hall(alg, "1", m + 1, parity).scale(
                qint(m + 1).specialize_sqrtq(3)
            )
