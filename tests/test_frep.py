"""Module enumeration, isomorphism classification, Hall numbers."""

import functools
import gc
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ihall import frep, linalg, oracle
from ihall.cli import main
from ihall.frep import BudgetError, ModuleTable
from ihall.iquiver import BUILTIN_NAMES, BoundQuiver
from ihall.lambda_i import doubled, eps_pos, homology_reduce, is_eps_zero
from ihall.oracle import (
    direct_sum,
    enumerate_reps,
    ext_count_with_middle,
    hall_number,
    k_module,
    morphism_tally,
    multiple,
)
from quivers import quiver


def table(name, p, **kw):
    return ModuleTable(doubled(quiver(name)), p, **kw)


def kq_table(name, p, **kw):
    return ModuleTable(BoundQuiver(quiver(name)), p, **kw)


def tables(iq, p, **kw):
    """The Lambda^i table of iq and its kQ table."""
    return ModuleTable(doubled(iq), p, **kw), ModuleTable(BoundQuiver(iq), p, **kw)


def _flat(rep):
    return tuple(x for mat in rep for row in mat for x in row)


def _inverse(g, p):
    """The inverse of a GL generator (`linalg.gl_generators`): I + E_ij
    becomes I - E_ij, and diag(c, 1, ...) becomes diag(1/c, 1, ...)."""
    return tuple(
        tuple(pow(a, p - 2, p) if i == j else -a % p for j, a in enumerate(row))
        for i, row in enumerate(g)
    )


def _arrow_ends(tab):
    vi = tab.iq.vindex
    return [(vi[a.src], vi[a.tgt]) for a in tab.bq.arrows]


def _orbit(tab, rep, dim):
    """GL(dim)-orbit of a matrix tuple, by search over the GL generators."""
    p = tab.p
    ends = _arrow_ends(tab)
    gens = [
        (vi, g, _inverse(g, p))
        for vi, d in enumerate(dim)
        for g in linalg.gl_generators(d, p)
    ]
    orbit = {rep}
    frontier = [rep]
    while frontier:
        cur = frontier.pop()
        for vi, g, ginv in gens:
            nxt = []
            for mat, (si, ti) in zip(cur, ends):
                if ti == vi:
                    mat = linalg.mat_mul(g, mat, p)
                if si == vi:
                    mat = linalg.mat_mul(mat, ginv, p)
                nxt.append(mat)
            nxt = tuple(nxt)
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    return orbit


def _satisfies_relations(tab, rep):
    p = tab.p
    ai = tab.bq.aindex
    for rel in tab.bq.relations:
        lhs = linalg.mat_mul(rep[ai[rel.lhs[1]]], rep[ai[rel.lhs[0]]], p)
        if rel.rhs is None:
            if any(any(row) for row in lhs):
                return False
        elif lhs != linalg.mat_mul(rep[ai[rel.rhs[1]]], rep[ai[rel.rhs[0]]], p):
            return False
    return True


def _is_nilpotent(tab, rep, dim):
    """Every path of length sum(dim) acts as zero on the total space.

    The images of the paths of length k span the arrows' images of the span
    for k - 1, so these spans shrink, and once one fails to shrink it stays.
    """
    p = tab.p
    n = sum(dim)
    offs = [sum(dim[:vi]) for vi in range(len(dim))]
    ops = []
    for mat, (si, ti) in zip(rep, _arrow_ends(tab)):
        big = [[0] * n for _ in range(n)]
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                big[offs[ti] + r][offs[si] + c] = x
        ops.append(tuple(tuple(row) for row in big))
    span = linalg.identity(n)
    while span:
        image, _ = linalg.rref([linalg.mat_vec(a, v, p) for a in ops for v in span], p)
        if len(image) == len(span):
            return False
        span = image
    return True


def test_rejects_composite_field_size():
    with pytest.raises(ValueError):
        table("rank1-split", 4)
    for n in (4, 9):
        with pytest.raises(ValueError):
            linalg.primitive_root(n)
    assert main(["verify", "builtin:a2-split", "--q", "4"]) == 2


# frozen class counts from independent hand enumerations
def test_class_counts_rank1():
    tab = table("rank1-split", 2)
    assert len(tab.classes((1,))) == 1
    # dim 2: 0, [2S], K; eps is a 2x2 square-zero matrix up to conjugacy
    assert len(tab.classes((2,))) == 2
    assert len(tab.classes((3,))) == 2
    assert len(tab.classes((4,))) == 3


def test_class_counts_kronecker():
    tab = table("kronecker-r1", 2)
    # hand count at dim (1,1): alpha,beta,eps1,eps2 one of
    # 0, K1, K2, alpha, beta, alpha=beta(2 classes)? no:
    # nilpotency kills alpha,beta both nonzero; 7 classes total
    assert len(tab.classes((1, 1))) == 7


def test_class_counts_a2():
    tab = table("a2-split", 2)
    assert len(tab.classes((1, 1))) == 2
    assert len(tab.classes((1, 2))) == 4


def test_nilpotency_excludes_invertible_cycles():
    tab = table("kronecker-r1", 2)
    # alpha = beta = 1 at dim (1,1) has an invertible cycle composite
    for cls in tab.classes((1, 1)):
        rep = cls.rep
        a = tab.bq.aindex["a1"]
        b = tab.bq.aindex["b1"]
        assert not (rep[a] == ((1,),) and rep[b] == ((1,),))


def test_nilpotency_at_q3_matches_brute_force():
    tab = table("kronecker-r1", 3)
    dim = (1, 1)
    ai = tab.bq.aindex
    rep = [((0,),)] * len(tab.bq.arrows)
    rep[ai["a1"]] = rep[ai["b1"]] = ((1,),)
    with pytest.raises(ValueError):
        tab.class_of(tuple(rep), dim)
    count = sum(
        1
        for rep in product([((x,),) for x in range(3)], repeat=len(tab.bq.arrows))
        if _satisfies_relations(tab, rep) and _is_nilpotent(tab, rep, dim)
    )
    assert sum(c.orbit_size for c in tab.classes(dim)) == count


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "name,dims",
    [
        ("rank1-split", [(3,), (4,)]),
        ("kronecker-r1", [(1, 1), (2, 1)]),
        ("a3-quasisplit", [(1, 1, 1)]),
    ],
)
def test_canonical_reps_match_orbit_oracle(name, dims, q):
    tab = table(name, q)
    for dim in dims:
        cls = tab.classes(dim)
        for c in cls:
            orbit = _orbit(tab, c.rep, dim)
            assert c.rep == min(orbit, key=_flat)
            assert c.orbit_size == len(orbit)
        reps = [_flat(c.rep) for c in cls]
        assert reps == sorted(reps)


@pytest.mark.parametrize("q", [2, 3])
def test_permutation_tables_match_matrix_products(q):
    # row and column operations give the same tables as g M and M g^-1;
    # g M is taken column by column and M g^-1 row by row, each through
    # mat_mul and memoized per vector
    tab = table("rank1-split", q)
    cases = [((r, c), side, d) for r in range(4) for c in range(4) for side, d in (("l", r), ("r", c))]
    cases += [(("sq0", d), "lr", d) for d in range(5)]
    for key, side, d in cases:
        mats, index = tab._candidates(key)
        for gi, g in enumerate(linalg.gl_generators(d, q)):
            ginv = _inverse(g, q)

            @functools.cache
            def left_col(col):
                return tuple(r[0] for r in linalg.mat_mul(g, tuple((x,) for x in col), q))

            @functools.cache
            def right_row(row):
                return linalg.mat_mul((row,), ginv, q)[0]

            want = []
            for m in mats:
                if "l" in side and m[0]:
                    m = tuple(zip(*map(left_col, zip(*m))))
                if "r" in side:
                    m = tuple(map(right_row, m))
                want.append(index[m])
            assert tab._permutation(key, d, gi, side) == want, (key, side, gi)


def _raw_orbits(tab, dim):
    """GL(dim)-orbits on the raw enumeration (`oracle.enumerate_reps`), each
    as a sorted list of codes, in the order of their minima.

    A generator moves a code through the table's permutations of candidate
    indices, which `test_permutation_tables_match_matrix_products` checks
    against matrix products.
    """
    keys, sizes, weights = tab._radix(dim)
    # per generator, (arrow, index permutation, code weight) for the arrows it moves
    gens = []
    for vi, d in enumerate(dim):
        for gi in range(len(linalg.gl_generators(d, tab.p))):
            moved = []
            for k, (si, ti) in enumerate(_arrow_ends(tab)):
                side = ("l" if ti == vi else "") + ("r" if si == vi else "")
                if side:
                    moved.append((k, tab._permutation(keys[k], d, gi, side), weights[k]))
            gens.append(moved)

    seen = set()
    orbits = []
    for code in enumerate_reps(tab, dim):
        if code in seen:
            continue
        orbit = {code}
        frontier = [code]
        while frontier:
            cur = frontier.pop()
            idx = [cur // w % s for w, s in zip(weights, sizes)]
            for moved in gens:
                nxt = cur + sum((perm[idx[k]] - idx[k]) * w for k, perm, w in moved)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


@pytest.mark.parametrize("q,total", [(2, 4), (3, 3)])
@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["split-2", "kronecker-r2"])
def test_seeded_classes_are_the_nilpotent_raw_orbits(name, q, total):
    # the orbits that the extensions of simples meet are exactly the
    # nilpotent orbits of the raw enumeration: the rep map holds every
    # nilpotent tuple and nothing else, each class's rep is its orbit's
    # minimum, and the classes come in increasing code order
    iq = quiver(name)
    for tab in tables(iq, q):
        for dim in product(range(total + 1), repeat=iq.n):
            if sum(dim) > total:
                continue
            nil = [
                orbit
                for orbit in _raw_orbits(tab, dim)
                if _is_nilpotent(tab, tab._decode(orbit[0], dim), dim)
            ]
            cls = tab.classes(dim)
            assert [(c.rep, c.orbit_size) for c in cls] == [
                (tab._decode(orbit[0], dim), len(orbit)) for orbit in nil
            ], dim
            assert tab._by_rep[dim] == {c: i for i, orbit in enumerate(nil) for c in orbit}, dim


def test_seeds_missing_a_vertex_fail_the_orbit_count(monkeypatch):
    # without oriented cycles the orbits must cover all p^N reps of kQ;
    # seeds that leave out the extensions at one vertex meet too few
    # (at a simple's dimension vector the one vertex seeds from the zero class)
    kq = kq_table("a2-split", 2)
    classes = kq.classes
    monkeypatch.setattr(kq, "classes", lambda dim: () if not any(dim) else classes(dim))
    for dim in ((1, 0), (0, 1)):
        with pytest.raises(RuntimeError, match="do not add up"):
            kq._classify(dim)


def test_orbit_accounting():
    # every module of a2-split is nilpotent, so the orbits cover every
    # relation-satisfying tuple
    tab = table("a2-split", 2)
    for dim in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        assert sum(c.orbit_size for c in tab.classes(dim)) == len(enumerate_reps(tab, dim))
        group = 1
        for d in dim:
            group *= linalg.gl_order(d, 2)
        for c in tab.classes(dim):
            assert c.orbit_size * c.aut_order == group


def test_aut_orders():
    tab = table("a2-split", 2)
    q = 2
    s1 = tab.simple("1")
    assert s1.aut_order == q - 1
    k1 = k_module(tab, "1")
    # aut of the generalized simple at a fixed vertex is (q-1) q
    assert k1.aut_order == (q - 1) * q
    two_s1 = multiple(tab, s1, 2)
    assert two_s1.aut_order == (q ** 2 - 1) * (q ** 2 - q)


def test_k_module_shapes():
    tab = table("kronecker-r1", 3)
    k1 = k_module(tab, "1")
    assert k1.dim == (1, 1)
    assert not is_eps_zero(k1)
    assert is_eps_zero(tab.simple("1"))


def test_hom_counts():
    tab = table("a2-split", 2)
    s1, s2 = tab.simple("1"), tab.simple("2")
    assert tab.hom_count(s1, s1) == 2
    assert tab.hom_count(s1, s2) == 1  # only the zero map
    # P = the indecomposable with the arrow acting as identity;
    # top P = S1 and soc P = S2
    p_cls = next(
        c
        for c in tab.classes((1, 1))
        if any(any(row) for row in c.rep[tab.bq.aindex["a1"]])
    )
    assert tab.hom_count(p_cls, s1) == 2
    assert tab.hom_count(s1, p_cls) == 1
    assert tab.hom_count(p_cls, s2) == 1
    assert tab.hom_count(s2, p_cls) == 2


def test_hall_numbers_split_pair():
    tab = table("a2-split", 2)
    s1, s2 = tab.simple("1"), tab.simple("2")
    ds = direct_sum(tab, s1, s2)
    p_cls = next(
        c
        for c in tab.classes((1, 1))
        if any(any(row) for row in c.rep[tab.bq.aindex["a1"]])
    )
    # the nonsplit extension has sub S2 and quotient S1, not the reverse
    assert hall_number(tab, s1, s2, p_cls) == 1
    assert hall_number(tab, s2, s1, p_cls) == 0
    assert hall_number(tab, s1, s2, ds) == 1
    assert hall_number(tab, s2, s1, ds) == 1


def test_oracle_memos_die_with_their_table():
    # the filtration memo is keyed by the table weakly and holds no class,
    # so it keeps no table alive
    tab = table("a2-split", 2)
    s1, s2 = tab.simple("1"), tab.simple("2")
    z = direct_sum(tab, s1, s2)
    assert hall_number(tab, s1, s2, z) == 1 and tab.hom_count(s1, z) == 2
    assert tab in oracle._DECOMP
    ref = weakref.ref(tab)
    del tab, s1, s2, z
    gc.collect()
    assert ref() is None


def test_riedtmann_peng_integrality():
    for name, q in [("a2-split", 2), ("kronecker-r1", 2), ("kronecker-r1", 3)]:
        tab = table(name, q)
        dims = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
        pool = [c for d in dims for c in tab.classes(d)]
        for x in pool:
            for y in pool:
                zdim = tuple(a + b for a, b in zip(x.dim, y.dim))
                if sum(zdim) > 4:
                    continue
                for z in tab.classes(zdim):
                    n = ext_count_with_middle(tab, x, y, z)
                    assert isinstance(n, int) and n >= 0


def test_morphism_tally_total_is_hom_count():
    tab = table("a2-split", 2)
    pool = [c for d in [(1, 0), (0, 1), (1, 1)] for c in tab.classes(d)]
    for x in pool:
        for y in pool:
            tally = morphism_tally(tab, x, y)
            assert sum(tally.values()) == tab.hom_count(x, y)


def test_homology_reduction():
    tab, kq = tables(quiver("kronecker-r1"), 2)
    k1 = k_module(tab, "1")
    vexp, xcls, alpha = homology_reduce(k1, kq)
    assert xcls == kq.zero_class()
    assert alpha == (1, 0)
    vexp, xcls, alpha = homology_reduce(tab.simple("1"), kq)
    assert (vexp, xcls, alpha) == (0, kq.simple("1"), (0, 0))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["rank1-split", "a2-split", "a3-quasisplit", "kronecker-r1"])
def test_homology_reduction_on_all_small_classes(name, q):
    # X = ker eps / im eps with its eps action computed: it must vanish (X
    # is a kQ class), the dimensions must add up to dim M, and alpha must be
    # the eps ranks; an eps-zero M reduces to its own kQ class
    iq = quiver(name)
    tab, kq = tables(iq, q)
    for dim in product(range(4), repeat=iq.n):
        if sum(dim) > 3:
            continue
        for m in tab.classes(dim):
            vexp, x, alpha = homology_reduce(m, kq)
            assert x.table is kq, m
            talpha = iq.tau_vec(alpha)
            assert tuple(a + b + c for a, b, c in zip(x.dim, alpha, talpha)) == m.dim, m
            assert alpha == tuple(linalg.rank(m.rep[eps_pos(tab.bq, v)], q) for v in iq.vertices), m
            if is_eps_zero(m):
                assert (vexp, x.key, alpha) == (0, m.key, (0,) * iq.n), m
                assert x.rep == m.rep[iq.n:], m


@pytest.mark.parametrize("q,total", [(2, 4), (3, 3)])
@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["split-2"])
def test_kq_classes_are_the_eps_zero_classes(name, q, total):
    # the eps-zero classes come first, each at its kQ class's index, with
    # the kQ rep as the tail of the rep (the eps arrows come first)
    iq = quiver(name)
    tab, kq_tab = tables(iq, q)
    for dim in product(range(total + 1), repeat=iq.n):
        if sum(dim) > total:
            continue
        kq = kq_tab.classes(dim)
        lam = tab.classes(dim)
        assert [is_eps_zero(c) for c in lam] == [k < len(kq) for k in range(len(lam))], dim
        assert [(c.index, c.rep, c.orbit_size, c.aut_order) for c in kq] == [
            (c.index, c.rep[iq.n:], c.orbit_size, c.aut_order) for c in lam[: len(kq)]
        ], dim


def _fresh(tab, dim):
    """Classes and full rep map (code -> class index) of a table at dim."""
    cls = tab.classes(dim)
    return [(c.rep, c.orbit_size, c.aut_order) for c in cls], dict(tab._by_rep[dim])


def test_classes_classify_the_box_below_bottom_up(monkeypatch):
    # a vector is classified once, and the vectors below it only when they
    # are not held yet: a cold table classifies the whole box below dim,
    # smallest total first, a warm one nothing, a partly warm one the
    # vectors it lacks
    classified = []
    classify = ModuleTable._classify

    def recording(self, dim):
        classified.append(dim)
        return classify(self, dim)

    monkeypatch.setattr(ModuleTable, "_classify", recording)
    dim = (2, 2)
    tab = kq_table("a2-split", 2)
    tab.classes(dim)
    assert sorted(classified) == list(product(range(3), repeat=2))
    assert [sum(d) for d in classified] == sorted(sum(d) for d in classified)
    assert classified[-1] == dim
    classified.clear()
    tab.classes(dim)
    assert classified == []
    part = kq_table("a2-split", 2)
    part.classes((1, 1))
    classified.clear()
    part.classes(dim)
    assert sorted(classified) == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert _fresh(part, dim) == _fresh(tab, dim)


def test_budget_errors():
    tab = table("a2-split", 2, budget_dim=3)
    with pytest.raises(BudgetError):
        tab.check_budget((2, 2))
    tab2 = table("a2-split", 2, budget_space=10)
    with pytest.raises(BudgetError):
        tab2.check_budget((2, 2))


def test_budget_counts_rep_map_memory(monkeypatch):
    # split rank 2 with 3 arrows at q = 5: the kQ table at (4, 1) has 5^12
    # raw candidates, inside the space budget but not in 8 GiB of memory
    monkeypatch.setattr(frep, "_physical_memory", lambda: 8 << 30)
    big = kq_table("split-3", 5)
    with pytest.raises(BudgetError) as err:
        big.check_budget((4, 1))
    assert "244140625" in str(err.value) and str(8 << 30) in str(err.value)
    assert big._cand == {}, "the budget check enumerated candidates"
    kq_table("split-3", 3).check_budget((4, 1))


@pytest.mark.parametrize("p,dmax", [(2, 4), (3, 3), (5, 3)])
def test_arrow_space_counts_square_zero_matrices(p, dmax):
    # the budget bounds an eps loop at a tau-fixed vertex by a formula; it
    # must be the length of the list the loop draws from
    tab = table("rank1-split", p)
    (k,) = tab._loop_pos
    for d in range(dmax + 1):
        assert tab._arrow_count(k, (d, d), float("inf")) == (len(linalg.square_zero_matrices(d, p)), True), d


def test_budget_refusal_stops_counting(monkeypatch):
    # the refusal stops summing the square-zero count of the 400-dim loop
    # at the first rank that takes it past the budget
    calls = []
    count = linalg.subspace_count
    monkeypatch.setattr(linalg, "subspace_count", lambda *a: calls.append(a) or count(*a))
    tab = table("a2-split", 2, budget_dim=1000)
    with pytest.raises(BudgetError, match="at least 2\\^"):
        tab.check_budget((0, 400))
    assert len(calls) <= 2, calls


def test_span_walks_each_vector_once():
    # no rows span the zero vector alone
    assert list(oracle._span([], 3, 5)) == [(0, 0, 0)]
    assert list(oracle._span([], 0, 2)) == [()]
    for p, rows in (
        (2, [(1, 0, 1, 1), (0, 1, 1, 0), (0, 0, 0, 1)]),
        (3, [(1, 2, 0), (0, 1, 2)]),
        (5, [(0, 3, 1, 4, 2)]),
    ):
        vecs = list(oracle._span(rows, len(rows[0]), p))
        assert len(set(vecs)) == len(vecs) == p ** len(rows)
        basis, pivots = linalg.rref(rows, p)
        assert all(linalg.coords_against_rref(v, basis, pivots, p) is not None for v in vecs)


@st.composite
def spans(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=0, max_value=5))
    m = draw(st.integers(min_value=0, max_value=4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), min_size=m, max_size=m))
    return p, n, linalg.rref(rows, p)[0]


@given(spans())
@settings(max_examples=80, deadline=None)
def test_lines_walk_each_line_once(case):
    # the first vector of each line in the full span's walk, in that walk's
    # order, and nothing else
    p, n, rows = case
    firsts, seen = [], set()
    for v in oracle._span(rows, n, p):
        if any(v):
            lead = pow(next(a for a in v if a), p - 2, p)
            line = tuple(a * lead % p for a in v)
            if line not in seen:
                seen.add(line)
                firsts.append(v)
    assert list(frep._lines(rows, n, p)) == firsts
    assert len(firsts) == (p ** len(rows) - 1) // (p - 1)


def _ref_ext_dist(kq, k, l, memo):
    """The kQ extension counts of k by l: every cocycle walked, each middle
    looked up by `class_of`, in class order."""
    if (k.key, l.key) not in memo:
        dz = tuple(a + b for a, b in zip(k.dim, l.dim))
        basis, offs, n = kq._cocycles(k.rep, l.rep, k.dim, l.dim)
        walk = {}
        for c in oracle._span(basis, n, kq.p):
            z = kq.class_of(kq._middle(c, l.rep, k.rep, offs, k.dim, l.dim), dz)
            walk[z] = walk.get(z, 0) + 1
        memo[k.key, l.key] = sorted(walk.items(), key=lambda t: t[0].index)
    return memo[k.key, l.key]


def _lift(tab, cls):
    """The rep of a kQ class as a Lambda^i-module: zero eps blocks first."""
    shapes = tab._shapes(cls.dim)
    return tuple(linalg.zeros(*shapes[eps_pos(tab.bq, v)]) for v in tab.iq.vertices) + cls.rep


def _ref_extension_counts(tab, kq, x, y, memo):
    """(`ModuleTable.extension_counts` of x by y, dim Hom(x, tau* y)) with
    no shortcut: every eps block w of the Lambda^i cocycles walked, w = 0
    and the scalar multiples included, each (K, L) by `_ref_ext_dist`."""
    p, tau = tab.p, tab.iq.tau_index
    dx, dy = x.dim, y.dim
    basis, offs, n = tab._cocycles(_lift(tab, x), _lift(tab, y), dx, dy)
    free = sum(dy[t] * dx[s] for s, t in kq._arrow_ends)
    counts = {}
    for c in oracle._span(basis[: len(basis) - free], n, p):
        w = [[c[o + r * d : o + r * d + d] for r in range(dy[t])] for o, d, t in zip(offs, dx, tau)]
        kers = [linalg.rref(linalg.nullspace(m, d, p), p) for m, d in zip(w, dx)]
        kmats, dk = kq._subquotient(x.rep, kers, [()] * len(dx))
        lmats, dl = kq._subquotient(y.rep, oracle._whole(dy), [linalg.col_space(w[t], p)[0] for t in tau])
        alpha = tuple(a - b for a, b in zip(dx, dk))
        diff = tuple(alpha[t] - a for t, a in zip(tau, alpha))
        e = tab.iq.euler(dk, diff) + tab.iq.euler(dl, diff)
        mult = p ** (free - sum(dl[t] * dk[s] for s, t in kq._arrow_ends))
        for cls, hit in _ref_ext_dist(kq, kq.class_of(kmats, dk), kq.class_of(lmats, dl), memo):
            counts[cls, alpha, e] = counts.get((cls, alpha, e), 0) + hit * mult
    return (counts, p ** sum(a * b for a, b in zip(dx, dy))), len(basis) - free


@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["split-2"])
def test_ext_dist_matches_cocycle_walk(name):
    # the kQ extension counts that the product engine sums, against a walk
    # of every cocycle with each middle looked up by `class_of`
    iq = quiver(name)
    kq = ModuleTable(BoundQuiver(iq), 2)
    pool = [c for d in product(range(5), repeat=iq.n) if sum(d) <= 4 for c in kq.classes(d)]
    pairs = [(k, l) for k in pool for l in pool if k.total_dim + l.total_dim <= 4]
    memo = {}
    for k, l in pairs:
        assert kq._ext_dist(k, l) == _ref_ext_dist(kq, k, l, memo), (k, l)
    # each pair is computed once and then served from the memo
    assert len(kq._ext) == len(pairs)
    assert all(kq._ext_dist(k, l) is kq._ext[k, l] for k, l in pairs)


def test_mixed_dims_with_zero_component():
    # products through a zero-dimensional vertex must still enumerate;
    # these counts match the two-vertex subquiver computation
    tab = table("a3-quasisplit", 2)
    assert len(tab.classes((1, 1, 0))) == 2
    assert len(tab.classes((1, 2, 0))) == 4
    assert len(tab.classes((0, 1, 1))) == 2


def test_class_interning():
    tab = table("a2-split", 2)
    a = tab.classes((1, 1))
    b = tab.classes((1, 1))
    assert all(x is y for x, y in zip(a, b))
    s1 = tab.simple("1")
    assert tab.class_of(s1.rep, s1.dim) is s1


def test_classes_of_two_tables_never_compare_equal():
    # classes compare by identity: two tables of one quiver build equal
    # data but distinct classes
    a, b = (tables(quiver("a2-split"), 2) for _ in "ab")
    for ta, tb in zip(a, b):
        for dim in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            ca, cb = ta.classes(dim), tb.classes(dim)
            assert [c.key for c in ca] == [c.key for c in cb]
            assert not any(x == y for x in ca for y in cb), dim
            assert len(set(ca) | set(cb)) == 2 * len(ca), dim


def _kq_pairs(kq, total):
    """Every pair (x, y) of kQ classes with dim x + dim y of total dimension
    at most `total`."""
    pool = [c for d in product(range(total + 1), repeat=kq.iq.n) if sum(d) <= total for c in kq.classes(d)]
    return [(x, y) for x in pool for y in pool if x.total_dim + y.total_dim <= total]


ENGINE_CASES = (
    [(name, q) for name in ("a2-split", "a3-quasisplit", "kronecker-r1") for q in (2, 3, 5)]
    + [("split-2", 2), ("split-2", 3), ("kronecker-r2", 2), ("qs3-2", 2), ("qs3-2", 3)]
)


def test_extension_counts_match_full_walk():
    # pair by pair, the sum over images against `_ref_extension_counts`,
    # which walks every eps block of the Lambda^i cocycles; the grid holds
    # pairs with dim Hom(x, tau* y) >= 2 at q >= 3
    homs = set()
    for name, q in ENGINE_CASES:
        tab, kq = tables(quiver(name), q)
        memo = {}
        for x, y in _kq_pairs(kq, 4):
            want, hom = _ref_extension_counts(tab, kq, x, y, memo)
            assert kq.extension_counts(x, y) == want, (name, q, x, y)
            homs.add((q, hom))
    assert any(q >= 3 and hom >= 2 for q, hom in homs)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["a2-split", "kronecker-r1", "a3-quasisplit"])
def test_hall_numbers_match_filtration_counts(name, q):
    # Riedtmann's formula on the kQ extension counts against a count of
    # every submodule of z (`oracle.hall_number`), zeros left out
    kq = kq_table(name, q)
    for dz in product(range(5), repeat=kq.iq.n):
        if sum(dz) > 4:
            continue
        for z in kq.classes(dz):
            for dq in product(*(range(d + 1) for d in dz)):
                ds = tuple(a - b for a, b in zip(dz, dq))
                want = {
                    (a, b): oracle.hall_number(kq, a, b, z)
                    for a in kq.classes(dq)
                    for b in kq.classes(ds)
                }
                assert kq._hall_numbers(z, dq) == {k: f for k, f in want.items() if f}, (z, dq)


def _green_mismatches(kq, total, sign=1):
    """(quadruples, mismatches) of Green's formula on the Hall numbers of a
    kQ table, over every quadruple of classes (M, N, X, Y) with
    dim M + dim N = dim X + dim Y of total dimension at most `total`:

        a_M a_N a_X a_Y sum_E F^E_{M,N} F^E_{X,Y} / a_E
            = sum_{A,B,C,D} q^(-<A,D>) F^M_{A,B} F^N_{C,D} F^X_{A,C} F^Y_{B,D} a_A a_B a_C a_D

    with F^E_{M,N} the number of submodules of E iso to N with quotient M
    (J. A. Green, Invent. Math. 1995; Ringel 1996). The Euler form enters
    with its sign times `sign`.
    """
    q, euler = kq.p, kq.iq.euler
    dims = [d for d in product(range(total + 1), repeat=kq.iq.n) if sum(d) <= total]
    cls = {d: kq.classes(d) for d in dims}

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def hall(e, m, n):
        return kq._hall_numbers(e, m.dim).get((m, n), 0)

    def aut(*cs):
        out = 1
        for c in cs:
            out *= c.aut_order
        return out

    count, bad = 0, []
    for dm, dn, dx in product(dims, repeat=3):
        de = tuple(a + b for a, b in zip(dm, dn))
        dy = minus(de, dx)
        if sum(de) > total or min(dy) < 0:
            continue
        # the dimension vectors of A, B, C, D: A below M and X
        splits = []
        for da in dims:
            db, dc = minus(dm, da), minus(dx, da)
            dd = minus(dn, dc)
            if min(db + dc + dd) >= 0:
                splits.append((da, db, dc, dd, Fraction(q) ** (-sign * euler(da, dd))))
        for m, n, x, y in product(cls[dm], cls[dn], cls[dx], cls[dy]):
            lhs = aut(m, n, x, y) * sum(
                Fraction(hall(e, m, n) * hall(e, x, y), e.aut_order) for e in cls[de]
            )
            rhs = sum(
                w * hall(m, a, b) * hall(n, c, d) * hall(x, a, c) * hall(y, b, d) * aut(a, b, c, d)
                for da, db, dc, dd, w in splits
                for a, b, c, d in product(cls[da], cls[db], cls[dc], cls[dd])
            )
            count += 1
            if lhs != rhs:
                bad.append((m, n, x, y))
    return count, bad


@pytest.mark.parametrize(
    "name,q", [("a2-split", 2), ("a2-split", 3), ("kronecker-r1", 2), ("a3-quasisplit", 2), ("split-2", 2)]
)
def test_hall_numbers_satisfy_greens_formula(name, q):
    # an independent check of `_hall_numbers` that counts no filtration;
    # with the Euler form's sign flipped the formula fails
    kq = kq_table(name, q)
    count, bad = _green_mismatches(kq, 3)
    assert count > 250 and bad == []
    assert _green_mismatches(kq, 3, sign=-1)[1]


@pytest.mark.parametrize(
    "name,q",
    [("a2-split", 3), ("a3-quasisplit", 2), ("a3-quasisplit", 3), ("kronecker-r1", 2),
     ("kronecker-r1", 3), ("kronecker-r2", 2), ("qs3-2", 2), ("qs3-2", 3)],
)
def test_map_counts_match_morphism_tally(name, q):
    # N(K, L) from the sum over images against every map x -> tau* y,
    # tallied by kernel and cokernel (`oracle.morphism_tally`): the cokernel
    # is tau* L
    kq = kq_table(name, q)
    for x, y in _kq_pairs(kq, 4):
        got = {(k, kq.tau_star(l)): n for (k, l), n in kq._maps(x, y).items()}
        assert got == oracle.morphism_tally(kq, x, kq.tau_star(y)), (x, y)


@pytest.mark.parametrize("name", ["a2-split", "a3-quasisplit", "kronecker-r1", "kronecker-r2", "qs3-2"])
def test_tau_star_is_an_involution(name):
    # tau* keeps orbit size and aut order, permutes the dimension vector by
    # tau and undoes itself; it moves some class unless tau is trivial
    iq = quiver(name)
    kq = ModuleTable(BoundQuiver(iq), 2)
    moved = 0
    for d in product(range(4), repeat=iq.n):
        if sum(d) > 3:
            continue
        for c in kq.classes(d):
            t = kq.tau_star(c)
            assert t.dim == iq.tau_vec(c.dim), c
            assert (t.orbit_size, t.aut_order) == (c.orbit_size, c.aut_order), c
            assert kq.tau_star(t) is c
            moved += t is not c
    assert bool(moved) == any(iq.tau[v] != v for v in iq.vertices)


def test_tau_star_refuses_a_lambda_class():
    # tau* permutes the arrow positions of Q, and a Lambda^i rep puts the
    # eps arrows first
    tab = table("kronecker-r1", 2)
    for cls in (tab.simple("1"), k_module(tab, "1")):
        with pytest.raises(ValueError, match="classes of the kQ table"):
            tab.tau_star(cls)


def test_a_wrong_hall_number_fails_the_hom_check(monkeypatch):
    # F^x_{0,x} = 1 bumped by 1 adds one map x -> tau* y that Hom lacks
    kq = kq_table("a3-quasisplit", 3)
    x, y = kq.simple("1"), kq.simple("3")
    kq.extension_counts(x, y)
    zero = kq.zero_class()
    real = kq._hall_numbers

    def bumped(z, dq):
        out = dict(real(z, dq))
        if z is x and dq == zero.dim:
            out[zero, x] += 1
        return out

    monkeypatch.setattr(kq, "_hall_numbers", bumped)
    with pytest.raises(RuntimeError, match="do not add up to"):
        kq.extension_counts(x, y)


def test_the_engine_runs_on_the_kq_table_only():
    # extension counts and map counts take two classes of the kQ table
    # they run on; the Lambda^i table refuses even its own classes
    tab, kq = tables(quiver("a2-split"), 2)
    s1, k1 = kq.simple("1"), tab.simple("1")
    for run, x, y in [
        (tab, s1, s1), (tab, k1, k1), (kq, s1, k1), (kq, k1, s1),
        (kq, s1, kq_table("a2-split", 2).simple("1")),
    ]:
        for method in (run.extension_counts, run._maps):
            with pytest.raises(ValueError, match="classes of the kQ table"):
                method(x, y)
    assert tab._ext == {} and tab._hall == {}
