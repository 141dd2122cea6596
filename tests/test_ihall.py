"""Twisted semi-derived Hall algebra products."""

import re
from fractions import Fraction
from itertools import product

import pytest

from ihall import linalg
from ihall.ihall import HallAlgebra
from ihall.lambda_i import eps_pos, homology_reduce
from ihall.oracle import (
    ext_count_with_middle,
    hall_number,
    k_module,
    multiple,
    oracle_kq_product,
    oracle_kronecker_single,
    oracle_sss,
)
from ihall.qsqrt import QSqrt
from ihall.ring import V
from quivers import quiver


def algebra(name, q, **kw):
    return HallAlgebra(quiver(name), q, **kw)


def test_unit_and_scalars():
    alg = algebra("a2-split", 2)
    s1 = alg.simple("1")
    assert alg.one() * s1 == s1
    assert s1 * alg.one() == s1
    assert alg.zero() + s1 == s1
    assert (s1 - s1).is_zero()
    assert alg.scalar(3) == QSqrt(2, 3)
    assert alg.scalar(Fraction(1, 2)) == QSqrt(2, Fraction(1, 2))
    assert alg.scalar(V) == QSqrt(2, 0, 1)
    with pytest.raises(ValueError):
        alg.scalar(QSqrt(3, 1, 1))


def test_elt_arithmetic():
    alg = algebra("a2-split", 2)
    s1, s2 = alg.simple("1"), alg.simple("2")
    e = s1.scale(2) + s2
    key1 = next(iter(s1.terms))
    assert e.coeff(key1) == QSqrt(2, 2)
    assert (-e + e).is_zero()
    assert e - s2 == s1.scale(2)
    assert 2 * s1 == s1.scale(2)


def test_basis_keys_must_be_eps_zero():
    alg = algebra("kronecker-r1", 2)
    kcls = k_module(alg.table, "1")
    with pytest.raises(ValueError):
        alg.basis_elt(kcls)


@pytest.mark.parametrize("name", ["a2-split", "kronecker-r1"])
def test_module_elt_refuses_kq_classes(name):
    # a basis key is no Lambda^i class: the reduction names it and refuses
    alg = algebra(name, 2)
    for dim in product(range(3), repeat=alg.iq.n):
        if sum(dim) <= 2:
            for c in alg.kq.classes(dim):
                with pytest.raises(ValueError, match=re.escape(repr(c))):
                    alg.module_elt(c)
    assert "table" not in vars(alg)


def test_torus_vectors_have_one_entry_per_vertex():
    alg = algebra("a2-split", 2)
    s1 = alg.kq.simple("1")
    for alpha in [(1,), (1, 0, 5), ()]:
        with pytest.raises(ValueError, match="one per vertex"):
            alg.torus(alpha)
        with pytest.raises(ValueError, match="one per vertex"):
            alg.basis_elt(s1, alpha)
    k = alg.torus((1, 0))
    assert k * k == alg.torus([2, 0])
    assert alg.basis_elt(s1, (0, 1)) == alg.torus((0, 1)) * alg.simple("1")


def test_module_elt_reduces_k_class():
    # [K_1] as a module equals the torus generator after homology reduction
    alg = algebra("kronecker-r1", 2)
    kcls = k_module(alg.table, "1")
    assert alg.module_elt(kcls) == alg.torus_k("1")


def test_frozen_product_kronecker():
    alg = algebra("kronecker-r1", 2)
    out = repr(alg.simple("1") * alg.simple("2"))
    assert out == (
        "(1*sqrt(2))[0,0#0]*K(1,0) + (1/2*sqrt(2))[1,1#0]"
        " + (1/2*sqrt(2))[1,1#2]"
    )


def test_simple_squared_rank1():
    # [S]*[S] = v^{-1}[2S] + (v - v^{-1})[K]
    for q in (2, 3):
        alg = algebra("rank1-split", q)
        s = alg.simple("1")
        tab = alg.kq
        two_s = alg.basis_elt(multiple(tab, tab.simple("1"), 2))
        k = alg.torus((1,))
        want = two_s.scale(alg.v_pow(-1)) + k.scale(alg.v_pow(1) - alg.v_pow(-1))
        assert s * s == want


def test_simple_times_multiple_rank1():
    # [S]*[mS] = v^{-m}[(m+1)S] + (v^m - v^{-m})[(m-1)S]*[K]
    alg = algebra("rank1-split", 3)
    tab = alg.kq
    s = alg.simple("1")
    for m in (1, 2, 3):
        lhs = s * alg.basis_elt(multiple(tab, tab.simple("1"), m))
        rhs = alg.basis_elt(multiple(tab, tab.simple("1"), m + 1)).scale(
            alg.v_pow(-m)
        ) + alg.basis_elt(
            multiple(tab, tab.simple("1"), m - 1), alpha=(1,)
        ).scale(
            alg.v_pow(m) - alg.v_pow(-m)
        )
        assert lhs == rhs


def test_torus_commutation_exponents():
    # K_a * [Y] = v^e [Y] * K_a with e = (tau(a) - a, dim Y), (,) symmetric
    alg = algebra("kronecker-r1", 2)
    k1 = alg.torus_k("1")
    s1, s2 = alg.simple("1"), alg.simple("2")
    assert k1 * s1 == (s1 * k1).scale(alg.v_pow(-4))
    assert k1 * s2 == (s2 * k1).scale(alg.v_pow(4))

    alg3 = algebra("a3-quasisplit", 2)
    k1 = alg3.torus_k("1")
    s1, s2 = alg3.simple("1"), alg3.simple("2")
    assert k1 * s1 == (s1 * k1).scale(alg3.v_pow(-2))
    assert k1 * s2 == s2 * k1


def test_torus_generators_commute():
    for name in ("a2-split", "a3-quasisplit", "kronecker-r1"):
        alg = algebra(name, 2)
        ks = [alg.torus_k(v) for v in alg.iq.vertices]
        for a in ks:
            for b in ks:
                assert a * b == b * a


def test_associativity():
    alg = algebra("a2-split", 2)
    tab = alg.kq
    p_cls = next(
        c
        for c in tab.classes((1, 1))
        if any(any(row) for row in c.rep[tab.bq.aindex["a1"]])
    )
    pool = [
        alg.simple("1"),
        alg.simple("2"),
        alg.torus_k("1"),
        alg.basis_elt(p_cls),
    ]
    for x in pool:
        for y in pool:
            for z in pool:
                assert (x * y) * z == x * (y * z)


def test_power_matches_repeated_product():
    alg = algebra("rank1-split", 2)
    s = alg.simple("1")
    assert alg.power(s, 0) == alg.one()
    assert alg.power(s, 3) == s * s * s


def test_oracle_kq_product_agrees():
    alg = algebra("a2-split", 2)
    pool = [c for d in [(1, 0), (0, 1), (1, 1)] for c in alg.kq.classes(d)]
    for x in pool:
        for y in pool:
            assert oracle_kq_product(alg, x, y) == alg.basis_elt(x) * alg.basis_elt(y)
    for q, npairs in ((2, 28), (3, 32)):
        alg = algebra("split-2", q)
        pairs = [(x, y) for x, y in class_pairs(alg.kq, 3) if x.total_dim and y.total_dim]
        assert len(pairs) == npairs
        for x, y in pairs:
            assert oracle_kq_product(alg, x, y) == alg.basis_elt(x) * alg.basis_elt(y), (x, y)


def test_oracle_kq_product_refuses_nontrivial_tau():
    # summing over maps a -> b misses the K term of [S1] * [S3] when S3 is
    # tau* S1, so the formula is kept to the trivial involution
    for name in ("a3-quasisplit", "kronecker-r1"):
        alg = algebra(name, 2)
        s1 = alg.kq.simple("1")
        with pytest.raises(ValueError):
            oracle_kq_product(alg, s1, s1)


def test_oracle_sss_small():
    alg = algebra("a2-split", 2)
    s1, s2 = alg.simple("1"), alg.simple("2")
    assert oracle_sss(alg, 1, 1) == s1 * s2 * s1
    assert oracle_sss(alg, 0, 1) == s2 * s1


def test_oracle_kronecker_single_small():
    from ihall.idp import idp_hall

    alg = algebra("kronecker-r1", 2)
    s2 = alg.simple("2")
    lhs = idp_hall(alg, "1", 2) * s2 * idp_hall(alg, "1", 1)
    assert oracle_kronecker_single(alg, 2, 1) == lhs


def dims_upto(n, total):
    return [d for d in product(range(total + 1), repeat=n) if sum(d) <= total]


def class_pairs(tab, total, keep=lambda c: True):
    """Pairs of classes (x, y) with total dim x + total dim y <= total."""
    pool = [
        c
        for d in dims_upto(tab.iq.n, total)
        for c in tab.classes(d)
        if keep(c)
    ]
    return [(x, y) for x in pool for y in pool if x.total_dim + y.total_dim <= total]


@pytest.mark.parametrize(
    "name,q,triples",
    [
        ("kronecker-r1", 2, 364), ("kronecker-r1", 3, 364),
        ("a3-quasisplit", 2, 1323), ("a3-quasisplit", 3, 1323),
        ("split-2", 2, 424), ("split-2", 3, 484),
        ("split-3", 2, 808), ("split-3", 3, 1312),
        ("kronecker-r2", 2, 844),
        ("qs3-2", 2, 2295),
    ],
)
def test_associativity_on_every_small_basis_triple(name, q, triples):
    # every kQ basis class of total dimension 1 to 3 and every k_v; a triple
    # of total at most 3 (k_v counts 0) must give (xy)z = x(yz)
    alg = algebra(name, q)
    pool = [(0, alg.torus_k(v)) for v in alg.iq.vertices]
    pool += [(sum(d), alg.basis_elt(c)) for d in dims_upto(alg.iq.n, 3) if any(d) for c in alg.kq.classes(d)]
    seen = 0
    for (a, x), (b, y), (c, z) in product(pool, repeat=3):
        if a + b + c <= 3:
            seen += 1
            assert (x * y) * z == x * (y * z), (x, y, z)
    assert seen == triples


def arrow_action(tab, g):
    """cls -> gM: g in GL_k acts on each group of k parallel arrows, arrow l
    becoming sum_m g_lm * arrow m. The a and b groups of qs3-k take the same
    g, so the action commutes with tau."""
    groups = {}
    for pos, a in enumerate(tab.bq.arrows):
        groups.setdefault((a.src, a.tgt), []).append(pos)
    p = tab.p

    def act(cls):
        rep = list(cls.rep)
        for pos in groups.values():
            mats = [cls.rep[m] for m in pos]
            for l, coeffs in zip(pos, g):
                rep[l] = tuple(
                    tuple(sum(c * e for c, e in zip(coeffs, entries)) % p for entries in zip(*rows))
                    for rows in zip(*mats)
                )
        return tab.class_of(tuple(rep), cls.dim)

    return act


@pytest.mark.parametrize(
    "name,q,total,checks",
    [
        ("split-2", 2, 4, 224), ("split-2", 3, 4, 411),
        ("split-3", 2, 4, 1088), ("split-3", 3, 3, 340),
        ("qs3-2", 2, 4, 942), ("qs3-2", 3, 3, 279),
    ],
)
def test_arrow_space_symmetry(name, q, total, checks):
    # g in GL_k on the parallel arrows is an automorphism of the iHall
    # algebra: for nonzero kQ classes X and Y of total at most `total`,
    # [gX] * [gY] is [X] * [Y] with every class M replaced by gM, for each
    # generator g of GL_k(F_q)
    alg = algebra(name, q)
    seen = 0
    for g in linalg.gl_generators(int(name[-1]), q):
        act = arrow_action(alg.kq, g)
        for x, y in class_pairs(alg.kq, total, keep=lambda c: c.total_dim):
            prod = alg.basis_elt(x) * alg.basis_elt(y)
            moved = {(act(m), alpha): c for (m, alpha), c in prod.terms.items()}
            assert (alg.basis_elt(act(x)) * alg.basis_elt(act(y))).terms == moved, (g, x, y)
            seen += 1
    assert seen == checks


def lifted(tab, cls):
    """The Lambda^i class of a kQ class: zero eps blocks first."""
    shapes = tab._shapes(cls.dim)
    eps = tuple(linalg.zeros(*shapes[eps_pos(tab.bq, v)]) for v in tab.iq.vertices)
    return tab.class_of(eps + cls.rep, cls.dim)


def filtration_rows(alg, x, y):
    """The rows of `_pair`, rebuilt from Hall numbers and aut orders in the
    Lambda^i table, each middle reduced by `homology_reduce` and the rows
    summed per (X, gamma)."""
    tab = alg.table
    xl, yl = lifted(tab, x), lifted(tab, y)
    tw = alg.iq.euler(x.dim, y.dim)
    rows = {}
    for z in tab.classes(tuple(a + b for a, b in zip(x.dim, y.dim))):
        f = hall_number(tab, xl, yl, z)
        if f:
            e, w, gamma = homology_reduce(z, alg.kq)
            coeff = Fraction(f * xl.aut_order * yl.aut_order, z.aut_order)
            rows[(w, gamma)] = rows.get((w, gamma), 0) + alg.v_pow(tw + e) * coeff
    return rows


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "name", ["rank1-split", "a2-split", "a3-quasisplit", "kronecker-r1", "split-a2"]
)
def test_pair_rows_match_filtration_counts(name, q):
    alg = algebra("split-2" if name == "split-a2" else name, q)
    # both sides of a relation eps_t a = tau(a) eps_s enter a cocycle equation
    # only when both factors have a nonzero arrow, so from total 4 on; at
    # q = 3 the sign between the two sides then shows
    total = 4 if name == "a2-split" else 3
    for x, y in class_pairs(alg.kq, total):
        rows = {}
        for w, gamma, scal in alg._pair(x, y):
            rows[(w, gamma)] = rows.get((w, gamma), 0) + scal
        assert rows == filtration_rows(alg, x, y), (x, y)


@pytest.mark.parametrize(
    "name,q",
    [(name, q) for name in ("kronecker-r1", "a3-quasisplit") for q in (2, 3)] + [("kronecker-r2", 2)],
)
def test_cocycle_counts_match_ext_counts(name, q):
    # count * |Hom(x,y)| = |Ext^1(x,y)_z| * q^(sum_i dx_i dy_i), summed over
    # the middles z of one reduction, with the Ext groups of Lambda^i;
    # kronecker-r2 is the one quiver where the eps blocks reach rank 2 with
    # ker and coker nonzero at both vertices
    alg = algebra(name, q)
    tab = alg.table
    for x, y in class_pairs(alg.kq, 3):
        counts, denom = alg.kq.extension_counts(x, y)
        assert denom == q ** sum(a * b for a, b in zip(x.dim, y.dim))
        xl, yl = lifted(tab, x), lifted(tab, y)
        hom = tab.hom_count(xl, yl)
        want = {}
        for z in tab.classes(tuple(a + b for a, b in zip(x.dim, y.dim))):
            ext = ext_count_with_middle(tab, xl, yl, z)
            if ext:
                e, w, gamma = homology_reduce(z, alg.kq)
                want[(w, gamma, e)] = want.get((w, gamma, e), 0) + ext
        assert {k: c * hom for k, c in counts.items()} == {
            k: c * denom for k, c in want.items()
        }, (x, y)


def test_verify_classifies_no_lambda_module(monkeypatch):
    # the engine reduces middles in place: the whole relation suite builds
    # one table, of Q alone, and no doubled quiver or Lambda^i table
    from ihall import frep
    from ihall.iqg import verify_presentation

    built = []
    init = frep.ModuleTable.__init__
    monkeypatch.setattr(frep.ModuleTable, "__init__", lambda self, bq, *a, **kw: built.append(bq) or init(self, bq, *a, **kw))
    alg = algebra("split-2", 3)
    results = verify_presentation(alg, (0, 1))
    assert len(results) == 9 and all(res.is_zero() for _, res in results)
    assert [(bq.arrows, bq.relations) for bq in built] == [(alg.iq.arrows, ())]
    assert "table" not in vars(alg)
    assert alg.kq._classes
