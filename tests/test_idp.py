"""Idivided powers: symbolic forms and Hall-algebra evaluation."""

import tracemalloc

import pytest

from ihall.frep import BudgetError
from ihall.idp import idp_hall
from ihall.ihall import HallAlgebra
from ihall.iquiver import builtin_iquiver
from ihall.oracle import (
    LaurentFrac,
    SymRank1,
    idp_closed,
    idp_product,
    idp_recursive,
    sym_to_hall,
)
from ihall.qseries import qdfact
from ihall.ring import LaurentPoly, V, qfact


def test_base_cases():
    for parity in (0, 1):
        assert idp_closed(0, parity) == SymRank1.one()
        assert idp_closed(1, parity) == SymRank1.gen_S()
        assert idp_product(0, parity) == SymRank1.one()
        assert idp_recursive(1, parity) == SymRank1.gen_S()


def test_closed_n2_coefficients():
    out = idp_closed(2, 0)
    assert set(out.terms) == {(2, 0), (0, 1)}
    assert out.terms[(2, 0)] == LaurentFrac(LaurentPoly.v_pow(-1), qfact(2))
    assert out.terms[(0, 1)] == LaurentFrac(V - LaurentPoly.v_pow(-1), qdfact(2))
    # odd parity shifts the K-term exponent by 2
    out1 = idp_closed(2, 1)
    assert out1.terms[(2, 0)] == out.terms[(2, 0)]
    assert out1.terms[(0, 1)] == out.terms[(0, 1)] * LaurentFrac(
        LaurentPoly.v_pow(2)
    )


def test_three_forms_agree():
    for parity in (0, 1):
        for n in range(7):
            a = idp_product(n, parity)
            b = idp_recursive(n, parity)
            c = idp_closed(n, parity)
            assert a == b
            assert b == c


def test_negative_n_rejected():
    for fn in (idp_product, idp_recursive, idp_closed):
        with pytest.raises(ValueError):
            fn(-1, 0)


def test_hall_evaluation_matches_closed_form():
    for q in (2, 3):
        alg = HallAlgebra(builtin_iquiver("rank1-split"), q)
        for parity in (0, 1):
            for n in range(4):
                sym = idp_closed(n, parity)
                assert sym_to_hall(alg, "1", sym) == idp_hall(
                    alg, "1", n, parity
                )


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
    with pytest.warns(UserWarning):
        idp_hall(alg, "1", 2, parity=0)


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
