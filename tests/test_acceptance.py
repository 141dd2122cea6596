"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible under pytest -s, and in the -v report through the test outcome).
Every comparison is exact: no tolerances anywhere.
"""

import itertools
import time
from fractions import Fraction

from ihall import linalg
from ihall.idp import idp_hall
from ihall.ihall import HallAlgebra
from ihall.iqg import verify_presentation
from ihall.iquiver import BUILTIN_NAMES, builtin_iquiver
from ihall.lambda_i import eps_pos
from ihall.oracle import (
    ext_count_with_middle,
    idp_closed,
    idp_product,
    idp_recursive,
    morphism_tally,
    multiple,
    oracle_kq_product,
    oracle_kronecker_single,
    oracle_sss,
    sym_to_hall,
)
from ihall.ring import run_identity_suites, run_t_suite
from quivers import quiver


def _report(name, ok, detail=""):
    line = "%s %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def _qpoch(base, n):
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= 1 - base ** j
    return out


def test_c1_presentation_relations():
    t0 = time.perf_counter()
    failures = []
    total = 0
    # the commuting pair has c(1, 3) = c(2, 4) = 0: its suite holds two
    # commute rows
    runs = [(name, q) for name in BUILTIN_NAMES for q in (2, 3)]
    runs += [("kronecker-r2", 2), ("commuting-pair", 2), ("commuting-pair", 3)]
    for name, q in runs:
        alg = HallAlgebra(quiver(name), q)
        for label, res in verify_presentation(alg, (0, 1)):
            total += 1
            if not res.is_zero():
                failures.append("%s q=%d: %s" % (name, q, label))
    elapsed = time.perf_counter() - t0
    ok = not failures and total == 145 and elapsed < 300
    _report(
        "presentation relations on all builtins and a c = 0 quiver, q in {2,3},"
        " and kronecker-r2 at q = 2",
        ok,
        "%d/%d residuals zero, %.1fs" % (total - len(failures), total, elapsed),
    )


def test_c2_lowest_weight_sandwich_identity():
    ok = True
    for q in (2, 3):
        alg = HallAlgebra(builtin_iquiver("kronecker-r1"), q)
        s2 = alg.simple("2")
        lhs = alg.zero()
        for t in range(4):
            term = idp_hall(alg, "1", t) * s2 * idp_hall(alg, "1", 3 - t)
            lhs = lhs + (term.scale(-1) if t % 2 else term)
        d2 = idp_hall(alg, "1", 2)
        rhs = (d2 * alg.torus_k("1")).scale(
            alg.v_pow(-1)
            * alg.scalar(q - 1)
            * alg.scalar(_qpoch(Fraction(1, q), 2))
        ).scale(-1) + (d2 * alg.torus_k("2")).scale(
            alg.v_pow(1) * alg.scalar(q - 1) * alg.scalar(_qpoch(Fraction(q), 2))
        )
        ok = ok and lhs == rhs
    _report("alternating sandwich sum closes onto torus terms", ok)


def test_c3_fixed_vertex_serre_sums():
    failures = []
    for name, qs in (("a2-split", (2, 3)), ("split-2", (2, 3)), ("split-3", (2,))):
        for q in qs:
            alg = HallAlgebra(quiver(name), q)
            a = len(alg.iq.arrows)
            s2 = alg.simple("2")
            for p in (0, 1):
                tot = alg.zero()
                for n in range(a + 2):
                    term = (
                        idp_hall(alg, "1", n, p)
                        * s2
                        * idp_hall(alg, "1", a + 1 - n, (p + a) % 2)
                    )
                    tot = tot + (term.scale(-1) if n % 2 else term)
                if not tot.is_zero():
                    failures.append("a=%d q=%d parity=%d" % (a, q, p))
    _report(
        "fixed-vertex serre sums vanish on split rank 2",
        not failures,
        "a=1, 2 q in {2,3}; a=3 q=2; both parities",
    )


def test_c4_idivided_power_forms_agree():
    ok = True
    for parity in (0, 1):
        for n in range(9):
            c = idp_closed(n, parity)
            ok = ok and idp_product(n, parity) == c
            ok = ok and idp_recursive(n, parity) == c
    # the Hall side at both fixed vertices of split rank 2 with two arrows too
    sites = [(quiver("rank1-split"), ("1",)), (quiver("split-2"), ("1", "2"))]
    for q in (2, 3):
        for iq, vertices in sites:
            alg = HallAlgebra(iq, q, budget_dim=10)
            for vertex, parity, n in itertools.product(vertices, (0, 1), range(9)):
                ok = ok and sym_to_hall(
                    alg, vertex, idp_closed(n, parity)
                ) == idp_hall(alg, vertex, n, parity)
    _report(
        "idivided powers: product = recursion = closed sum",
        ok,
        "symbolic n<=8; Hall n<=8, q in {2,3}, rank1-split and split-2",
    )


def test_c5_q_identity_suites():
    t0 = time.perf_counter()
    rows = run_identity_suites(pmax=12, dmax=12)
    rows += run_t_suite(amax=8)
    elapsed = time.perf_counter() - t0
    bad = [name for name, flag in rows if not flag]
    ok = not bad and elapsed < 60
    _report(
        "q-series and triple-sum identity suites",
        ok,
        "%d suites, %.1fs" % (len(rows), elapsed),
    )


def test_c6_closed_form_oracles():
    ok = True
    # morphism-count route for arbitrary products
    alg = HallAlgebra(builtin_iquiver("a2-split"), 2)
    dims = [
        d
        for d in itertools.product(range(4), range(3))
        if sum(d) > 0 or d == (0, 0)
    ]
    pool = [(d, c) for d in dims for c in alg.kq.classes(d)]
    for (dx, x), (dy, y) in itertools.product(pool, pool):
        if dx[0] + dy[0] > 3 or dx[1] + dy[1] > 2:
            continue
        ok = ok and oracle_kq_product(alg, x, y) == alg.basis_elt(x) * alg.basis_elt(y)
    # semisimple sandwich closed form
    for name in ("a2-split", "split-2"):
        alg = HallAlgebra(quiver(name), 2)
        tab = alg.kq
        s1 = tab.simple("1")
        for s in range(4):
            for t in range(4 - s):
                lhs = (
                    alg.basis_elt(multiple(tab, s1, s))
                    * alg.simple("2")
                    * alg.basis_elt(multiple(tab, s1, t))
                )
                ok = ok and oracle_sss(alg, s, t) == lhs
    # divided-power sandwich closed form
    for q in (2, 3):
        alg = HallAlgebra(builtin_iquiver("kronecker-r1"), q)
        s2 = alg.simple("2")
        for l in range(4):
            t = 3 - l
            lhs = idp_hall(alg, "1", l) * s2 * idp_hall(alg, "1", t)
            ok = ok and oracle_kronecker_single(alg, l, t) == lhs
    _report(
        "independent closed-form oracles match engine products",
        ok,
        "morphism route; semisimple and divided-power sandwiches",
    )


def _uw_data(table, cls):
    p = table.p
    ai = table.bq.aindex
    rep = cls.rep
    rows = tuple(rep[ai["a1"]]) + tuple(rep[eps_pos(table.bq, "1")])
    u_basis = linalg.nullspace(rows, cls.dim[0], p)
    w_rows = tuple(linalg.transpose(rep[ai["b1"]])) + tuple(
        linalg.transpose(rep[eps_pos(table.bq, "2")])
    )
    w_rref, w_piv = linalg.rref(w_rows, p)
    u_rref, u_piv = linalg.rref(u_basis, p)
    inside = all(
        linalg.coords_against_rref(row, u_rref, u_piv, p) is not None
        for row in w_rref
    )
    return len(u_basis), len(w_rref), inside


def _aut_closed(q, r, u, w):
    out = q - 1
    for i in range(u - w):
        out *= q ** (u - w) - q ** i
    return out * q ** (
        w * (u - w) + w * (2 * r + 1 - u) + (u - w) * (2 * r + 1 - u)
    )


def test_c7_counting_invariants():
    ok = True
    checked = 0
    for q in (2, 3):
        alg = HallAlgebra(builtin_iquiver("kronecker-r1"), q)
        tab = alg.table
        pool = [c for d in [(1, 0), (0, 1), (1, 1)] for c in tab.classes(d)]
        for x in pool:
            for y in pool:
                tally = morphism_tally(tab, x, y)
                ok = ok and sum(tally.values()) == tab.hom_count(x, y)
                zdim = tuple(a + b for a, b in zip(x.dim, y.dim))
                for z in tab.classes(zdim):
                    n = ext_count_with_middle(tab, x, y, z)
                    ok = ok and isinstance(n, int) and n >= 0
        # closed automorphism count for every class whose image space
        # sits inside the kernel space, at dimension (2r+1, 1), r = 1
        for cls in tab.classes((3, 1)):
            u, w, inside = _uw_data(tab, cls)
            if not inside:
                continue
            checked += 1
            ok = ok and cls.aut_order == _aut_closed(q, 1, u, w)
        # the two extreme classes and their shared closed count
        ai = tab.bq.aindex
        zero13 = ((0, 0, 0),)
        zero31 = ((0,), (0,), (0,))
        rep_u = [None] * 4
        rep_u[eps_pos(tab.bq, "1")] = ((0, 1, 0),)
        rep_u[eps_pos(tab.bq, "2")] = zero31
        rep_u[ai["a1"]] = ((1, 0, 0),)
        rep_u[ai["b1"]] = zero31
        rep_w = [None] * 4
        rep_w[eps_pos(tab.bq, "1")] = zero13
        rep_w[eps_pos(tab.bq, "2")] = ((1,), (0,), (0,))
        rep_w[ai["a1"]] = zero13
        rep_w[ai["b1"]] = ((0,), (1,), (0,))
        want = (q - 1) * (q - 1) * q ** 2
        for rep in (rep_u, rep_w):
            cls = tab.class_of(tuple(rep), (3, 1))
            ok = ok and cls.aut_order == want
    _report(
        "hom/ext counting and closed automorphism orders",
        ok,
        "%d kernel-image classes checked" % checked,
    )


def test_c8_products_close_on_basis():
    grids = {
        "rank1-split": [(1,), (2,)],
        "a2-split": [(1, 0), (0, 1), (1, 1)],
        "a3-quasisplit": [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
            (0, 1, 1),
        ],
        "kronecker-r1": [(1, 0), (0, 1), (1, 1)],
    }
    ok = True
    for name, dims in grids.items():
        alg = HallAlgebra(builtin_iquiver(name), 2)
        pool = [c for d in dims for c in alg.kq.classes(d)]
        for x in pool:
            for y in pool:
                out = alg.basis_elt(x) * alg.basis_elt(y)
                for (cls, alpha) in out.terms:
                    ok = ok and cls.table is alg.kq
    _report("reduced products stay on the distinguished basis", ok)
