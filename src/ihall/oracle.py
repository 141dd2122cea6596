"""The reference routes that the tests compare the product engine against.

No command imports this module: `ihall verify` and the other commands run
the engine alone (`ModuleTable.extension_counts`, `HallAlgebra._pair`,
`idp.idp_hall`). Each route here reaches the same numbers another way:

* the symbolic idivided powers at a tau-fixed vertex: the defining product
  form, the two-step recursion and the closed sum (`idp_product`,
  `idp_recursive`, `idp_closed`), each a `SymRank1` of Laurent polynomial
  numerators over one common Laurent denominator, and their image in a
  Hall algebra (`sym_to_hall`), with the q-numbers of `ring` (the one home
  of the q-combinatorics, shared with the identity suites) and the factor
  indices of `idp.factor_indices`;
* the raw enumeration of every relation-satisfying tuple, nilpotent or
  not (`enumerate_reps`), and the module constructions the tests build
  classes with (`k_module`, `direct_sum`, `multiple`);
* filtration counts on a module table: Hall numbers from every submodule of
  a middle (`decomposition`, `hall_number`), extension counts from them by
  Riedtmann's formula (`ext_count_with_middle`, with |Hom| from
  `ModuleTable.hom_count`), and the (kernel, cokernel) tally of every
  module map (`morphism_tally`);
* three product oracles: the morphism-sum formula (`oracle_kq_product`) and
  two closed forms (`oracle_sss`, `oracle_kronecker_single`).

The table routes are free functions of the table. Their one memo is keyed
by the table weakly and holds class keys, so it dies with the table.
"""

import weakref
from itertools import product as cartesian

from . import linalg
from .idp import factor_indices
from .ihall import HallElt
from .lambda_i import eps_pos
from .qsqrt import QSqrt
from .ring import VMVI, LaurentPoly, ONE, V, ZERO, comb2, p_exponent, qbinom, qdfact, qfact, qint

_KCOEF = V * VMVI ** 2  # v (v - v^-1)^2 = v^-1 (v^2 - 1)^2, the K factor of [S]^(n)

# ---------------------------------------------------------------------------
# symbolic idivided powers
# ---------------------------------------------------------------------------


class SymRank1:
    """Q(v)-combinations of [nS] * K^k at one tau-fixed vertex.

    `terms` maps (n, k) to a Laurent polynomial numerator, all of them over
    one common denominator `den`, a nonzero Laurent polynomial. No fraction
    is ever reduced: a sum cross-multiplies, and two elements are equal
    when the numerators of each cross-multiplied by the other's denominator
    agree. Only the operations the idivided-power constructions need are
    defined: left multiplication by [S] (one folding rule), multiplication
    by the central torus element K, scaling by a Laurent polynomial and
    division by one (`over`).
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms, den=ONE):
        if not den:
            raise ZeroDivisionError("SymRank1 with denominator zero")
        self.terms = {k: c for k, c in terms.items() if c}
        self.den = den

    @classmethod
    def one(cls):
        return cls({(0, 0): ONE})

    @classmethod
    def gen_S(cls):
        return cls({(1, 0): ONE})

    def __add__(self, other):
        a, b = self.den, other.den
        out = {k: c * b for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c * a
        return SymRank1(out, a * b)

    def __eq__(self, other):
        if not isinstance(other, SymRank1):
            return NotImplemented
        a, b = self.den, other.den
        return all(
            self.terms.get(k, ZERO) * b == other.terms.get(k, ZERO) * a
            for k in self.terms.keys() | other.terms.keys()
        )

    __hash__ = None

    def scale(self, c):
        return SymRank1({k: x * c for k, x in self.terms.items()}, self.den)

    def over(self, d):
        """This element divided by the nonzero Laurent polynomial d."""
        return SymRank1(self.terms, self.den * d)

    def mul_S(self):
        """Left product by [S]: [S]*[nS] = v^-n [(n+1)S] + (v^n - v^-n)[(n-1)S]K."""
        out = {}

        def add(key, val):
            out[key] = out.get(key, ZERO) + val

        for (n, k), c in self.terms.items():
            add((n + 1, k), c * LaurentPoly.v_pow(-n))
            if n >= 1:
                add((n - 1, k + 1), c * (LaurentPoly.v_pow(n) - LaurentPoly.v_pow(-n)))
        return SymRank1(out, self.den)

    def mul_K(self):
        return SymRank1({(n, k + 1): c for (n, k), c in self.terms.items()}, self.den)

    def __repr__(self):
        bits = []
        for (n, k), c in sorted(self.terms.items()):
            s = "(%r)[%dS]" % (c, n)
            if k:
                s += "*K^%d" % k
            bits.append(s)
        out = " + ".join(bits) or "0"
        return out if self.den == ONE else "(%s)/(%r)" % (out, self.den)


def idp_product(n, parity):
    """The defining product form of [S]^(n) in the given parity.

    Odd n carries one bare [S] in front; every other factor is
    [S]^2 + v^-1 (v^2-1)^2 [s]^2 K, divided by [n]! at the end.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = SymRank1.one()
    for s in factor_indices(n, parity):
        out = out.mul_S().mul_S() + out.mul_K().scale(_KCOEF * qint(s) ** 2)
    if n % 2 == 1:
        out = out.mul_S()
    return out.over(qfact(n))


def idp_recursive(n, parity):
    """[S]^(n) built from the two-step recursion seeded at n = 0, 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = SymRank1.one(), SymRank1.gen_S()
    if n == 0:
        return prev
    for m in range(1, n):
        # [S]*[S]^(m) = [m+1][S]^(m+1) + (correction) with the correction
        # present only on the step whose parity matches
        correction_step = (m % 2 == 1) if parity == 1 else (m % 2 == 0)
        rhs = cur.mul_S()
        if correction_step and m >= 1:
            rhs = rhs + prev.mul_K().scale(_KCOEF * qint(m))
        prev, cur = cur, rhs.over(qint(m + 1))
    return cur


def idp_closed(n, parity):
    """The closed sum for [S]^(n): one term per number k of K factors."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sign = -1 if n % 2 else 1  # (-1)^n
    out = SymRank1({})
    for k in range(n // 2 + 1):
        if parity == 1:
            e = k * (k + sign) - comb2(n - 2 * k)
        else:
            e = k * (k - sign) - comb2(n - 2 * k)
        num = LaurentPoly.v_pow(e) * VMVI ** k
        out = out + SymRank1({(n - 2 * k, k): num}, qfact(n - 2 * k) * qdfact(2 * k))
    return out


def sym_to_hall(algebra, vertex, sym):
    """Specialize a symbolic rank-1 element into a Hall algebra at a vertex."""
    iq = algebra.iq
    if iq.tau[vertex] != vertex:
        raise ValueError("symbolic rank-1 elements live at a tau-fixed vertex")
    vi = iq.vertices.index(vertex)
    table = algebra.kq
    simple = table.simple(vertex)
    inv = algebra.scalar(sym.den).inverse()
    acc = {}
    for (n, k), c in sym.terms.items():
        cls = multiple(table, simple, n)
        alpha = tuple(k if t == vi else 0 for t in range(iq.n))
        key = (cls, alpha)
        acc[key] = acc.get(key, algebra.scalar(0)) + algebra.scalar(c) * inv
    return HallElt(algebra, acc)


# ---------------------------------------------------------------------------
# raw enumeration and direct sums on a module table
# ---------------------------------------------------------------------------


def _schedule(table):
    """Per arrow, the relations to check once its matrix is chosen: those
    whose last arrow it is. A loop bound by a zero square draws only
    square-zero candidates, so that relation is left out."""
    ready = [[] for _ in table.bq.arrows]
    for lhs, rhs in table._relations:
        if rhs is None and lhs[0] == lhs[1]:
            continue
        ready[max(lhs + (rhs or ()))].append((lhs, rhs))
    return ready


def _products(table, key_f, key_s):
    """Codes of S @ F over every candidate pair, at i_f * len(S) + i_s.

    The code of a matrix is its entries read as base-p digits, so the zero
    matrix, whatever its shape, has code 0; a product through a
    0-dimensional vertex is zero like any other.
    """
    p = table.p
    codes = []
    for f in table._candidates(key_f)[0]:
        for s in table._candidates(key_s)[0]:
            c = 0
            for row in linalg.mat_mul(s, f, p):
                for x in row:
                    c = c * p + x
            codes.append(c)
    return codes


def enumerate_reps(table, dim):
    """All representations of dim that satisfy the relations, nilpotent or
    not, as codes (`ModuleTable._radix`) in increasing order.

    Entry k of a rep's index tuple indexes arrow k's candidate list, and
    each relation is checked by lookup in a table of product codes once its
    last arrow is chosen (`_schedule`). The engine classifies from the
    extensions of simples instead (`ModuleTable._classify`); the tests check
    that its orbits cover exactly the nilpotent reps listed here.
    """
    keys, sizes, weights = table._radix(dim)
    narr = len(keys)
    chosen = [0] * narr
    out = []

    def product_table(pair):
        f, s = pair
        return f, s, sizes[s], _products(table, keys[f], keys[s])

    checks = [
        [
            (product_table(lhs), None if rhs is None else product_table(rhs))
            for lhs, rhs in ready
        ]
        for ready in _schedule(table)
    ]
    # past the last checked arrow every tuple is a rep, and the codes of
    # a subtree of the search are consecutive
    free = max((k + 1 for k in range(narr) if checks[k]), default=0)
    block = [s * w for s, w in zip(sizes, weights)] + [1]

    def codes(prod, k):
        # product codes as arrow k runs through its candidates, the
        # other arrows held at their chosen indices
        if prod is None:
            return (0,) * sizes[k]
        f, s, n, tab = prod
        if f == k:
            return tab[chosen[s] :: n]
        if s == k:
            return tab[chosen[f] * n : (chosen[f] + 1) * n]
        return (tab[chosen[f] * n + chosen[s]],) * sizes[k]

    def rec(k, code):
        if k == free:
            out.extend(range(code, code + block[k]))
            return
        ok = range(sizes[k])
        for lhs, rhs in checks[k]:
            a, b = codes(lhs, k), codes(rhs, k)
            ok = [j for j in ok if a[j] == b[j]]
        w = weights[k]
        for j in ok:
            chosen[k] = j
            rec(k + 1, code + j * w)

    rec(0, 0)
    return out


def k_module(table, v):
    """The generalized simple at v: eps_v acts with rank one, the arrows of
    Q by zero."""
    vi = table.iq.vindex[v]
    ti = table.iq.tau_index[vi]
    dim = [0] * table.iq.n
    dim[vi] += 1
    dim[ti] += 1
    dim = tuple(dim)
    rep = list(table.zero_rep(dim))
    rep[eps_pos(table.bq, v)] = ((0, 0), (1, 0)) if ti == vi else ((1,),)
    return table.class_of(tuple(rep), dim)


def direct_sum(table, a, b):
    dim = tuple(x + y for x, y in zip(a.dim, b.dim))
    rep = []
    for k, (si, ti) in enumerate(table._arrow_ends):
        ca, cb = a.dim[si], b.dim[si]
        rows = [row + (0,) * cb for row in a.rep[k]]
        rows += [(0,) * ca + row for row in b.rep[k]]
        rep.append(tuple(rows))
    return table.class_of(tuple(rep), dim)


def multiple(table, a, m):
    """Direct sum of m copies of a."""
    out = table.zero_class()
    for _ in range(m):
        out = direct_sum(table, out, a)
    return out


# ---------------------------------------------------------------------------
# filtration counts and module maps on a module table
# ---------------------------------------------------------------------------

_DECOMP = weakref.WeakKeyDictionary()  # table -> {class key: {(quot key, sub key): count}}


def _whole(dim):
    """(rref rows, pivots) of the whole space at each vertex."""
    return [(linalg.identity(d), tuple(range(d))) for d in dim]


def _span(rows, n, p):
    """Each vector of the span of rows in F_p^n once, the last row's
    coefficient turning fastest."""
    cols = linalg.transpose(rows) or ((),) * n
    return (linalg.mat_vec(cols, c, p) for c in cartesian(range(p), repeat=len(rows)))


def _subquotient(table, z, subs, tops):
    """The class z induces on V/W, or None when an arrow maps V outside V
    (`ModuleTable._subquotient`)."""
    sq = table._subquotient(z.rep, subs, tops)
    return None if sq is None else table.class_of(*sq)


def decomposition(table, z):
    """For each pair (key of quotient class X, key of submodule class Y):
    the number of submodules L of z with L isomorphic to Y and z/L
    isomorphic to X."""
    memo = _DECOMP.setdefault(table, {})
    if z.key in memo:
        return memo[z.key]
    p = table.p
    n = table.iq.n
    per_vertex = []
    for d in z.dim:
        opts = []
        for k in range(d + 1):
            for rows in linalg.enumerate_rref_bases(d, k, p):
                pivots = tuple(next(i for i, x in enumerate(row) if x) for row in rows)
                opts.append((rows, pivots))
        per_vertex.append(opts)
    zero = [()] * n
    whole = _whole(z.dim)
    tally = {}
    for combo in cartesian(*per_vertex):
        sub_cls = _subquotient(table, z, combo, zero)
        if sub_cls is None:
            continue
        quot_cls = _subquotient(table, z, whole, [rows for rows, _ in combo])
        key = (quot_cls.key, sub_cls.key)
        tally[key] = tally.get(key, 0) + 1
    memo[z.key] = tally
    return tally


def hall_number(table, x, y, z):
    """Count of submodules L of z with L iso to y and z/L iso to x."""
    return decomposition(table, z).get((x.key, y.key), 0)


def ext_count_with_middle(table, x, y, z):
    """|Ext^1(x, y) with middle z|, recovered from the filtration count.

    Riedtmann-Peng: F^z_{x,y} = (|Ext^1(x,y)_z| / |Hom(x,y)|) *
    |Aut z| / (|Aut x| |Aut y|). The result must be a nonnegative integer.
    """
    f = hall_number(table, x, y, z)
    ext, rem = divmod(f * table.hom_count(x, y) * x.aut_order * y.aut_order, z.aut_order)
    if rem:
        raise RuntimeError(
            "extension count is not an integer for %r, %r, %r" % (x, y, z)
        )
    return ext


def morphism_tally(table, a, b):
    """Tally of (kernel class, cokernel class) over every map a -> b."""
    p = table.p
    total, offs, rows = table._hom_system(a, b)
    tally = {}
    for vec in _span(linalg.nullspace(rows, total, p), total, p):
        f = [
            [vec[o + i * c : o + i * c + c] for i in range(r)]
            for o, r, c in zip(offs, b.dim, a.dim)
        ]
        kers = [linalg.rref(linalg.nullspace(m, d, p), p) for m, d in zip(f, a.dim)]
        ker = _subquotient(table, a, kers, [()] * len(f))
        if ker is None:
            raise RuntimeError("kernel of a module map must be a submodule")
        cok = _subquotient(table, b, _whole(b.dim), [linalg.col_space(m, p)[0] for m in f])
        tally[ker, cok] = tally.get((ker, cok), 0) + 1
    return tally


# ---------------------------------------------------------------------------
# product oracles
# ---------------------------------------------------------------------------


def oracle_kq_product(algebra, a, b):
    """[a] * [b] for kQ classes, via the morphism-sum formula.

    Sums over module maps s: a -> b with kernel N and cokernel L, then
    over middles M of extensions of N by L:

        v^<a,b>  q^(<N,b> - <N,a> + <N,N> - <a,b>)
          * |Ext^1(N,L)_M| / |Hom(N,L)|  *  [M] * K_(dim a - dim N)

    with all forms the Euler form of the underlying quiver. Shares no
    counting with the cocycle route of the main product: its extension
    counts come from filtration counts in the kQ table.

    The formula holds for a trivial involution only: its K factor is
    K_(dim a - dim N), with no tau twist, and summing over maps a -> b
    misses the K term of [S1] * [S3] when S3 = tau* S1 (a3-quasisplit).
    Other involutions raise ValueError.
    """
    iq = algebra.iq
    table = algebra.kq
    if any(iq.tau[v] != v for v in iq.vertices):
        raise ValueError("the morphism-sum formula needs the trivial involution")
    if a.table is not table or b.table is not table:
        raise ValueError("the morphism-sum formula needs kQ classes")
    euler = iq.euler
    out = algebra.zero()
    for (n_cls, l_cls), count in morphism_tally(table, a, b).items():
        qexp = (
            euler(n_cls.dim, b.dim)
            - euler(n_cls.dim, a.dim)
            + euler(n_cls.dim, n_cls.dim)
            - euler(a.dim, b.dim)
        )
        scal = algebra.v_pow(euler(a.dim, b.dim) + 2 * qexp) * count
        alpha = tuple(x - y for x, y in zip(a.dim, n_cls.dim))
        mdim = tuple(x + y for x, y in zip(n_cls.dim, l_cls.dim))
        hom_nl = table.hom_count(n_cls, l_cls)
        acc = {}
        for m in table.classes(mdim):
            ext = ext_count_with_middle(table, n_cls, l_cls, m)
            if not ext:
                continue
            acc[(m, alpha)] = QSqrt(algebra.q, ext, 0, hom_nl) * scal
        out = out + HallElt(algebra, acc)
    return out


def oracle_sss(algebra, s, t):
    """Closed form for [sS1]*[S2]*[tS1] on a two-vertex quiver with trivial
    involution and all arrows pointing from the first vertex to the second.

    One double sum over torus powers r and middle classes M, with M weighted
    by the dimension u_M of the simultaneous kernel of its arrow matrices.
    Shares nothing with the cocycle route of the main product except the
    kQ module table.
    """
    iq = algebra.iq
    if iq.n != 2 or any(iq.tau[w] != w for w in iq.vertices):
        raise ValueError("this closed form needs two vertices and trivial tau")
    srcs = {ar.src for ar in iq.arrows}
    tgts = {ar.tgt for ar in iq.arrows}
    if len(srcs) != 1 or len(tgts) != 1 or srcs == tgts:
        raise ValueError("arrows must all share one source and one target")
    v1, v2 = srcs.pop(), tgts.pop()
    a = len(iq.arrows)
    table = algebra.kq
    p = table.p
    i1 = iq.vertices.index(v1)
    qpos = [table.bq.aindex[ar.name] for ar in iq.arrows]
    s1 = table.simple(v1)
    s2 = table.simple(v2)
    out = algebra.zero()
    for r in range(min(s, t) + 1):
        k = s + t - 2 * r
        ks1 = multiple(table, s1, k)
        dim = tuple(k if j == i1 else 1 for j in range(2))
        alpha = tuple(r if j == i1 else 0 for j in range(2))
        for m_cls in table.classes(dim):
            if hall_number(table, ks1, s2, m_cls) == 0:
                continue
            rows = [row for pos in qpos for row in m_cls.rep[pos]]
            u = len(linalg.nullspace(rows, k, p))
            num = (
                LaurentPoly.v_pow(p_exponent(a, u, r, s, t))
                * VMVI ** (s + t - r + 1)
                * qfact(s)
                * qfact(t)
                * qbinom(u, t - r)
            )
            if num.is_zero():
                continue
            scal = algebra.scalar(num) / algebra.scalar(qfact(r) * m_cls.aut_order)
            out = out + HallElt(algebra, {(m_cls, alpha): scal})
    return out


def oracle_kronecker_single(algebra, l, t):
    """Closed form for [S1]^(l) * [S2] * [S1]^(t), l + t = 2r + 1, on the
    two-vertex quiver with r arrows each way and the swap involution.

    Each class M at dimension (2r+1, 1) contributes through two subspaces of
    its big vertex: U (common kernel of the forward maps) and W (sum of the
    backward images). Only classes with W inside U survive, each weighted by
    one Gaussian binomial in dim U and dim W.
    """
    iq = algebra.iq
    table = algebra.table
    p = table.p
    v1, v2 = iq.vertices
    if iq.tau[v1] != v2:
        raise ValueError("this closed form needs the swap involution")
    alphas = [ar for ar in iq.arrows if ar.src == v1]
    betas = [ar for ar in iq.arrows if ar.src == v2]
    r = len(alphas)
    if len(betas) != r or r == 0:
        raise ValueError("need the same number of arrows in each direction")
    if l + t != 2 * r + 1:
        raise ValueError("the exponents must add up to 2r + 1")
    i1 = iq.vertices.index(v1)
    pos_a = [table.bq.aindex[ar.name] for ar in alphas]
    pos_b = [table.bq.aindex[ar.name] for ar in betas]
    eps1, eps2 = eps_pos(table.bq, v1), eps_pos(table.bq, v2)
    dim = tuple(2 * r + 1 if j == i1 else 1 for j in range(2))
    pref = algebra.v_pow(
        -r * (2 * r + 1) + t * l + l * (l - 1) + t * (t - 1)
    ) * (algebra.q - 1) ** (2 * r + 2)
    out = algebra.zero()
    for m_cls in table.classes(dim):
        rep = m_cls.rep
        u_rows = [row for pos in pos_a + [eps1] for row in rep[pos]]
        u_basis = linalg.nullspace(u_rows, 2 * r + 1, p)
        w_rows = []
        for pos in pos_b + [eps2]:
            w_rows.extend(linalg.transpose(rep[pos]))
        w_rref, _ = linalg.rref(w_rows, p)
        u_rref, u_piv = linalg.rref(list(u_basis), p)
        um, wm = len(u_basis), len(w_rref)
        if any(
            linalg.coords_against_rref(row, u_rref, u_piv, p) is None
            for row in w_rref
        ):
            continue
        weight = LaurentPoly.v_pow((um - t) * (t - wm)) * qbinom(um - wm, t - wm)
        if weight.is_zero():
            continue
        scal = algebra.scalar(weight) * pref / m_cls.aut_order
        out = out + algebra.module_elt(m_cls).scale(scal)
    return out
