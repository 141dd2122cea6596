"""Module enumeration, isomorphism classification, Hall numbers."""

import functools
import gc
import hashlib
import json
import os
import pickle
import shutil
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ihall import frep, linalg, oracle, tablecache
from ihall.cli import main
from ihall.frep import BudgetError, ModuleTable
from ihall.iquiver import BUILTIN_NAMES, BoundQuiver, IQuiver, builtin_iquiver
from ihall.lambda_i import doubled, eps_pos, homology_reduce, is_eps_zero
from ihall.oracle import (
    direct_sum,
    enumerate_reps,
    ext_count_with_middle,
    hall_number,
    hom_count,
    k_module,
    morphism_tally,
    multiple,
)


def table(name, p, **kw):
    return ModuleTable(doubled(builtin_iquiver(name)), p, **kw)


def kq_table(name, p, **kw):
    return ModuleTable(BoundQuiver(builtin_iquiver(name)), p, **kw)


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


CORRUPTIONS = [
    "missing rep",
    "aut order",
    "orbit index",
    "foreign signature",
    "non-minimal code",
    "wrong rep",
    "truncated",
    "not JSON",
    "deeply nested",
    "non-int code",
    "code out of range",
    "negative index",
    "repeated code",
    "missing member",
    "canonical code moved",
]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_cache_payload_is_recomputed(tmp_path, monkeypatch, corruption):
    dim = (1, 2)
    fresh = table("a2-split", 2)
    monkeypatch.setenv("IHALL_CACHE_DIR", str(tmp_path))
    writer = table("a2-split", 2)
    writer.classes(dim)
    path = tablecache.path(writer, dim)
    with open(path) as fh:
        text = fh.read()
    payload = json.loads(text)
    orbits, codes, index = payload["orbits"], payload["codes"], payload["index"]
    if corruption == "missing rep":
        del codes[0], index[0]
    elif corruption == "aut order":
        orbits[0][3] += 1
    elif corruption == "orbit index":
        index[0] = len(orbits)
    elif corruption == "foreign signature":
        # a quiver that differs only in an arrow name has the same tables,
        # so the payload is consistent and only its signature is foreign
        other = ModuleTable(doubled(IQuiver(["1", "2"], [("b1", "1", "2")])), 2)
        payload["signature"] = tablecache.signature(other, dim)
    elif corruption == "non-minimal code":
        # a later member of an orbit as its canonical code, with that
        # member's rep, keeping the canonical codes increasing
        n = len(orbits)
        i, code = next(
            (i, c)
            for c, i in zip(codes, index)
            if c != orbits[i][0] and (i + 1 == n or c < orbits[i + 1][0])
        )
        orbits[i][:2] = code, writer._decode(code, dim)
    elif corruption == "wrong rep":
        orbits[-1][1] = orbits[0][1]
    else:
        # each of these breaks exactly one check: the orbit sizes, the
        # smallest codes and the rest of the payload stay consistent
        canon = [o[0] for o in orbits]
        members = [k for k, c in enumerate(codes) if c not in canon]
        k = members[0]
        _, sizes, weights = writer._radix(dim)
        space = sizes[0] * weights[0]
        if corruption == "non-int code":
            codes[k] += 0.5
        elif corruption == "code out of range":
            codes[k] = space
        elif corruption == "negative index":
            codes.append(max(set(range(space)) - set(codes)))
            index.append(-1)
            assert codes[-1] > canon[-1]
        elif corruption == "repeated code":
            codes[k] = canon[index[k]]
        elif corruption == "missing member":
            del codes[k], index[k]
        elif corruption == "canonical code moved":
            # the canonical code of orbit j and a larger member of an
            # earlier orbit i trade class indices
            j, m = next(
                (j, m) for j in range(1, len(canon)) for m in members
                if index[m] < j and codes[m] > canon[j]
            )
            c = codes.index(canon[j])
            index[c], index[m] = index[m], j
    if corruption == "truncated":
        text = text[: len(text) // 2]
    elif corruption == "not JSON":
        text = "\x80\x04 not json"
    elif corruption == "deeply nested":
        text = "[" * 200000 + "]" * 200000
    else:
        text = json.dumps(payload)
    with open(path, "w") as fh:
        fh.write(text)

    reader = table("a2-split", 2)
    assert reader._load_cached(dim) is None
    assert _fresh(reader, dim) == _fresh(fresh, dim)


def _fresh(tab, dim):
    """Classes and full rep map (code -> class index) of a table at dim."""
    cls = tab.classes(dim)
    return [(c.rep, c.orbit_size, c.aut_order) for c in cls], dict(tab._by_rep[dim])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["split-2"])
def test_cache_round_trip(tmp_path, monkeypatch, name, q):
    # a table read from a cache file equals the one that wrote it
    iq = SPLIT2 if name == "split-2" else builtin_iquiver(name)
    monkeypatch.setenv("IHALL_CACHE_DIR", str(tmp_path))
    writer = tables(iq, q)
    reader = tables(iq, q)
    for dim in product(range(4), repeat=iq.n):
        if sum(dim) > 3:
            continue
        for wtab, rtab in zip(writer, reader):
            want = _fresh(wtab, dim)
            assert rtab._load_cached(dim) is not None, dim
            assert _fresh(rtab, dim) == want, dim


def test_signature_covers_every_module_the_cache_stores(tmp_path, monkeypatch):
    # the signature signs every module of the package, so a change to any
    # of them makes old files a miss
    src = os.path.dirname(tablecache.__file__)
    names = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert {"frep.py", "linalg.py", "iquiver.py", "lambda_i.py", "tablecache.py"} <= set(names)
    for name in names:
        shutil.copy(os.path.join(src, name), tmp_path / name)
    monkeypatch.setattr(tablecache, "__file__", str(tmp_path / "tablecache.py"))
    tab = table("a2-split", 2)
    try:
        tablecache._source_crc.cache_clear()
        seen = {tablecache.signature(tab, (1, 1))}
        for name in names:
            with open(tmp_path / name, "a") as fh:
                fh.write("\n")
            tablecache._source_crc.cache_clear()
            new = tablecache.signature(tab, (1, 1))
            assert new not in seen, name
            seen.add(new)
    finally:
        tablecache._source_crc.cache_clear()


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


KRONECKER2 = IQuiver(
    ["1", "2"],
    [("a1", "1", "2"), ("a2", "1", "2"), ("b1", "2", "1"), ("b2", "2", "1")],
    tau={"1": "2", "2": "1"},
    tau_arrows={"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"},
)


@pytest.mark.parametrize("q,total", [(2, 4), (3, 3)])
@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["split-2", "kronecker-r2"])
def test_seeded_classes_are_the_nilpotent_raw_orbits(name, q, total):
    # the orbits that the extensions of simples meet are exactly the
    # nilpotent orbits of the raw enumeration: the rep map holds every
    # nilpotent tuple and nothing else, each class's rep is its orbit's
    # minimum, and the classes come in increasing code order
    iq = {"split-2": SPLIT2, "kronecker-r2": KRONECKER2}.get(name) or builtin_iquiver(name)
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
    assert hom_count(tab, s1, s1) == 2
    assert hom_count(tab, s1, s2) == 1  # only the zero map
    # P = the indecomposable with the arrow acting as identity;
    # top P = S1 and soc P = S2
    p_cls = next(
        c
        for c in tab.classes((1, 1))
        if any(any(row) for row in c.rep[tab.bq.aindex["a1"]])
    )
    assert hom_count(tab, p_cls, s1) == 2
    assert hom_count(tab, s1, p_cls) == 1
    assert hom_count(tab, p_cls, s2) == 1
    assert hom_count(tab, s2, p_cls) == 2


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
    # the filtration and Hom memos are keyed by the table weakly and hold
    # no class, so they keep no table alive
    tab = table("a2-split", 2)
    s1, s2 = tab.simple("1"), tab.simple("2")
    z = direct_sum(tab, s1, s2)
    assert hall_number(tab, s1, s2, z) == 1 and hom_count(tab, s1, z) == 2
    assert tab in oracle._DECOMP and tab in oracle._HOM
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
            assert sum(tally.values()) == hom_count(tab, x, y)


def test_homology_reduction():
    tab, kq = tables(builtin_iquiver("kronecker-r1"), 2)
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
    iq = builtin_iquiver(name)
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


SPLIT2 = IQuiver(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2")])


@pytest.mark.parametrize("q,total", [(2, 4), (3, 3)])
@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["split-2"])
def test_kq_classes_are_the_eps_zero_classes(name, q, total):
    # the eps-zero classes come first, each at its kQ class's index, with
    # the kQ rep as the tail of the rep (the eps arrows come first)
    iq = SPLIT2 if name == "split-2" else builtin_iquiver(name)
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


def test_kq_and_lambda_tables_share_a_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("IHALL_CACHE_DIR", str(tmp_path))
    dims = [(1, 1), (2, 1)]
    writer = tables(builtin_iquiver("a2-split"), 3)
    for tab in writer:
        assert tab.cache_dir == str(tmp_path)
        for dim in dims:
            tab.classes(dim)
    assert tablecache.path(writer[0], (1, 1)) != tablecache.path(writer[1], (1, 1))
    reader = tables(builtin_iquiver("a2-split"), 3)
    monkeypatch.delenv("IHALL_CACHE_DIR")
    fresh = tables(builtin_iquiver("a2-split"), 3)
    for tab, ref in zip(reader, fresh):
        for dim in dims:
            assert tab._load_cached(dim) is not None
            assert _fresh(tab, dim) == _fresh(ref, dim)
    # the kQ reps lack the eps matrices, so each table read its own file
    assert len(reader[0].classes((1, 1))[0].rep) == 3
    assert len(reader[1].classes((1, 1))[0].rep) == 1


def test_cache_file_of_version_2_is_a_miss(tmp_path, monkeypatch):
    # version 2 keyed its files by the iquiver alone, so a kQ table could
    # have read a Lambda^i file; write one where version 2 put it
    iq = builtin_iquiver("kronecker-r1")
    dim = (1, 1)
    old = ModuleTable(doubled(iq), 2)
    orbits, codes = old._classify(dim)
    orbits = [(rep, osz, aut) for _, rep, osz, aut in orbits]
    rep_to_idx = {old._decode(c, dim): i for c, i in codes.items()}
    h = hashlib.sha256(repr((2, iq.signature(), 2)).encode()).hexdigest()[:16]
    with open(tmp_path / ("ihall-%s-d1_1.pkl" % h), "wb") as fh:
        pickle.dump({"version": 2, "orbits": orbits, "rep_to_idx": rep_to_idx}, fh)
    fresh = tables(iq, 2)
    monkeypatch.setenv("IHALL_CACHE_DIR", str(tmp_path))
    reader = tables(iq, 2)
    for tab, ref in zip(reader, fresh):
        data = tab._load_cached(dim)
        assert data is None or data == ref._classify(dim)
        assert _fresh(tab, dim) == _fresh(ref, dim)


UNPICKLED = []


def _unpickled():
    UNPICKLED.append(True)


class _Tripwire:
    """Runs `_unpickled` when unpickled, as a hostile pickle could run anything."""

    def __reduce__(self):
        return _unpickled, ()


def test_pickle_of_version_3_is_never_read(tmp_path, monkeypatch):
    # version 3 pickled the classes into files named by a sha256 of the
    # bound quiver; write one, with a tripwire, where version 3 put each
    iq = builtin_iquiver("kronecker-r1")
    dim = (1, 1)
    fresh = tables(iq, 2)
    for ref in fresh:
        orbits, codes = ref._classify(dim)
        payload = {
            "version": 3,
            "orbits": [(rep, osz, aut) for _, rep, osz, aut in orbits],
            "rep_to_idx": {ref._decode(c, dim): i for c, i in codes.items()},
            "tripwire": _Tripwire(),
        }
        h = hashlib.sha256(repr((3, ref.bq.signature(), 2)).encode()).hexdigest()[:16]
        with open(tmp_path / ("ihall-%s-d1_1.pkl" % h), "wb") as fh:
            pickle.dump(payload, fh)
    monkeypatch.setenv("IHALL_CACHE_DIR", str(tmp_path))
    reader = tables(iq, 2)
    for tab, ref in zip(reader, fresh):
        assert tab._load_cached(dim) is None
        assert _fresh(tab, dim) == _fresh(ref, dim)
    assert UNPICKLED == []
    # the tripwire works: loading one of those files does fire it
    with open(next(tmp_path.glob("*.pkl")), "rb") as fh:
        pickle.load(fh)
    assert UNPICKLED == [True]
    UNPICKLED.clear()


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
    split3 = IQuiver(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2"), ("a3", "1", "2")])
    big = ModuleTable(BoundQuiver(split3), 5)
    with pytest.raises(BudgetError) as err:
        big.check_budget((4, 1))
    assert "244140625" in str(err.value) and str(8 << 30) in str(err.value)
    assert big._cand == {}, "the budget check enumerated candidates"
    ModuleTable(BoundQuiver(split3), 3).check_budget((4, 1))


@pytest.mark.parametrize("p,dmax", [(2, 4), (3, 3), (5, 3)])
def test_arrow_space_counts_square_zero_matrices(p, dmax):
    # the budget bounds an eps loop at a tau-fixed vertex by a formula; it
    # must be the length of the list the loop draws from
    tab = table("rank1-split", p)
    (k,) = tab._loop_pos
    for d in range(dmax + 1):
        assert tab._arrow_space(k, (d, d)) == len(linalg.square_zero_matrices(d, p)), d


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
    iq = SPLIT2 if name == "split-2" else builtin_iquiver(name)
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


def test_classes_of_two_tables_never_compare_equal(tmp_path, monkeypatch):
    # classes compare by identity: two tables of one quiver that read one
    # cache directory build equal data but distinct classes
    monkeypatch.setenv("IHALL_CACHE_DIR", str(tmp_path))
    a, b = (tables(builtin_iquiver("a2-split"), 2) for _ in "ab")
    for ta, tb in zip(a, b):
        for dim in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            ca, cb = ta.classes(dim), tb.classes(dim)
            assert [c.key for c in ca] == [c.key for c in cb]
            assert not any(x == y for x in ca for y in cb), dim
            assert len(set(ca) | set(cb)) == 2 * len(ca), dim


QS3_2 = IQuiver(
    ["1", "2", "3"],
    [("a1", "1", "2"), ("a2", "1", "2"), ("c1", "3", "2"), ("c2", "3", "2")],
    tau={"1": "3", "3": "1", "2": "2"},
    tau_arrows={"a1": "c1", "c1": "a1", "a2": "c2", "c2": "a2"},
)
QUIVERS = {"split-2": SPLIT2, "kronecker-r2": KRONECKER2, "qs3-2": QS3_2}


def _iquiver(name):
    return QUIVERS.get(name) or builtin_iquiver(name)


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
        tab, kq = tables(_iquiver(name), q)
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


@pytest.mark.parametrize(
    "name,q",
    [("a2-split", 3), ("a3-quasisplit", 2), ("a3-quasisplit", 3), ("kronecker-r1", 2),
     ("kronecker-r1", 3), ("kronecker-r2", 2), ("qs3-2", 2), ("qs3-2", 3)],
)
def test_map_counts_match_morphism_tally(name, q):
    # N(K, L) from the sum over images against every map x -> tau* y,
    # tallied by kernel and cokernel (`oracle.morphism_tally`): the cokernel
    # is tau* L
    kq = ModuleTable(BoundQuiver(_iquiver(name)), q)
    for x, y in _kq_pairs(kq, 4):
        got = {(k, kq.tau_star(l)): n for (k, l), n in kq._maps(x, y).items()}
        assert got == oracle.morphism_tally(kq, x, kq.tau_star(y)), (x, y)


@pytest.mark.parametrize("name", ["a2-split", "a3-quasisplit", "kronecker-r1", "kronecker-r2", "qs3-2"])
def test_tau_star_is_an_involution(name):
    # tau* keeps orbit size and aut order, permutes the dimension vector by
    # tau and undoes itself; it moves some class unless tau is trivial
    iq = _iquiver(name)
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
    tab, kq = tables(builtin_iquiver("a2-split"), 2)
    s1, k1 = kq.simple("1"), tab.simple("1")
    for run, x, y in [
        (tab, s1, s1), (tab, k1, k1), (kq, s1, k1), (kq, k1, s1),
        (kq, s1, kq_table("a2-split", 2).simple("1")),
    ]:
        for method in (run.extension_counts, run._maps):
            with pytest.raises(ValueError, match="classes of the kQ table"):
                method(x, y)
    assert tab._ext == {} and tab._hall == {}
