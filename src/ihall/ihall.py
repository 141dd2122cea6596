"""Twisted semi-derived Hall algebra of an iquiver over a prime field F_q.

Elements live in the basis [X] * K_alpha where X runs over the kQ classes
(the eps-zero modules, pulled back from the underlying quiver) and K_alpha
is the torus element attached to an integer vector alpha. Coefficients are
exact numbers in Q(sqrt(q)). The product is computed by brute force: the
cocycles of the extensions of x by y, counted per reduced middle
v^e [X] * K_alpha (`ModuleTable.extension_counts`), give the untwisted
structure constants |Ext^1(x,y)_z| / |Hom(x,y)| summed over the middles z
of one reduction, and the Euler-form twist and the torus commutation rule
supply the powers of v = sqrt(q). The Lambda^i module table is classified
only for explicit module classes (`module_elt`) and the oracles. Filtration
counts (Hall numbers) give the same constants by Riedtmann's formula; they
serve only the oracles and the tests.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .frep import ModuleTable
from .iquiver import BoundQuiver
from .ring import VMVI, LaurentFrac, LaurentPoly, QSqrt, qbinom, qfact


class HallElt:
    """A finite Q(sqrt(q))-linear combination of basis keys (class, alpha)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements of different Hall algebras")

    def __add__(self, other):
        if not isinstance(other, HallElt):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, self.algebra.scalar(0)) + c
        return HallElt(self.algebra, out)

    def __sub__(self, other):
        if not isinstance(other, HallElt):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, self.algebra.scalar(0)) - c
        return HallElt(self.algebra, out)

    def __neg__(self):
        return HallElt(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, s):
        s = self.algebra.scalar(s)
        return HallElt(self.algebra, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HallElt):
            self._check(other)
            return self.algebra._mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, HallElt):
            return NotImplemented
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, HallElt):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coeff(self, key):
        return self.terms.get(key, self.algebra.scalar(0))

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].total_dim, kv[0][0].dim, kv[0][0].index, kv[0][1]),
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (cls, alpha), c in self.sorted_terms():
            factor = "[%s]" % cls.name
            if any(alpha):
                factor += "*K(%s)" % ",".join(str(a) for a in alpha)
            bits.append("(%r)%s" % (c, factor))
        return " + ".join(bits)


class HallAlgebra:
    """The twisted semi-derived Hall algebra of (iquiver, q)."""

    def __init__(self, iq, q, budget_dim=6, budget_space=2 ** 28, cache_dir=None):
        self.iq = iq
        self.q = q
        self.bq = BoundQuiver(iq)
        self.table = ModuleTable(
            self.bq, q, budget_dim=budget_dim, budget_space=budget_space,
            cache_dir=cache_dir,
        )
        self.kq = self.table.kq
        self._pair_cache = {}
        self._zero_alpha = (0,) * iq.n

    # ---------- scalars ----------

    def scalar(self, x):
        if isinstance(x, QSqrt):
            if x.q != self.q:
                raise ValueError("scalar belongs to a different q")
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt(self.q, x)
        if hasattr(x, "specialize_sqrtq"):
            return x.specialize_sqrtq(self.q)
        raise TypeError("cannot coerce %r to a Hall algebra scalar" % (x,))

    def v_pow(self, e):
        return QSqrt.v_pow(self.q, e)

    # ---------- elements ----------

    def zero(self):
        return HallElt(self, {})

    def one(self):
        return HallElt(
            self, {(self.kq.zero_class(), self._zero_alpha): self.scalar(1)}
        )

    def basis_elt(self, cls, alpha=None, coeff=1):
        """[cls] * K_alpha for a kQ class, as a single basis key."""
        if cls.table is not self.kq:
            raise ValueError("basis keys require a kQ (eps-zero) class, got %r" % (cls,))
        alpha = self._zero_alpha if alpha is None else tuple(int(a) for a in alpha)
        return HallElt(self, {(cls, alpha): self.scalar(coeff)})

    def module_elt(self, cls):
        """[M] for a Lambda^i class, rewritten in the standard basis."""
        e, x, alpha = self.table.homology_reduce(cls)
        return HallElt(self, {(x, alpha): self.v_pow(e)})

    def simple(self, v):
        return self.basis_elt(self.kq.simple(v))

    def torus(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        return HallElt(self, {(self.kq.zero_class(), alpha): self.scalar(1)})

    def torus_k(self, v):
        vi = self.iq.vertices.index(v)
        return self.torus(tuple(1 if k == vi else 0 for k in range(self.iq.n)))

    # ---------- product ----------

    def _torus_exp(self, alpha, ydim):
        """Exponent of v when K_alpha moves left past a class of dim ydim."""
        cart = self.iq.cartan
        n = self.iq.n
        total = 0
        for i in range(n):
            if not alpha[i]:
                continue
            ti = self.table._tau_idx[i]
            for j in range(n):
                if ydim[j]:
                    total += alpha[i] * ydim[j] * (cart[ti][j] - cart[i][j])
        return total

    def _pair(self, x, y):
        """[x] * [y] for kQ classes, as (class, gamma, scalar) rows.

        Each reduced middle v^e [X] * K_gamma of `ModuleTable.extension_counts`
        gives one row: its cocycle count over q^(sum_i dx_i dy_i), times v to
        the Euler-form twist plus e.
        """
        ckey = (x.key, y.key)
        if ckey in self._pair_cache:
            return self._pair_cache[ckey]
        tw = self.iq.euler(x.dim, y.dim)
        counts, denom = self.table.extension_counts(x, y)
        rows = tuple(
            (w, gamma, self.v_pow(tw + e) * Fraction(count, denom))
            for (w, gamma, e), count in counts.items()
        )
        self._pair_cache[ckey] = rows
        return rows

    def _mul(self, e1, e2):
        out = {}
        zero = self.scalar(0)
        for (x, a), cx in e1.terms.items():
            for (y, b), cy in e2.terms.items():
                base = cx * cy * self.v_pow(self._torus_exp(a, y.dim))
                for w, gamma, scal in self._pair(x, y):
                    key = (
                        w,
                        tuple(g + p + r for g, p, r in zip(gamma, a, b)),
                    )
                    acc = out.get(key, zero) + base * scal
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
        return HallElt(self, out)

    # ---------- independent product checks ----------

    def eps_zero_classes(self, dim):
        """The basis classes at dim: the kQ classes."""
        return self.kq.classes(dim)

    def oracle_kq_product(self, a, b):
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
        table = self.kq
        if any(self.iq.tau[v] != v for v in self.iq.vertices):
            raise ValueError("the morphism-sum formula needs the trivial involution")
        if a.table is not table or b.table is not table:
            raise ValueError("the morphism-sum formula needs kQ classes")
        euler = self.iq.euler
        out = self.zero()
        tally = table.morphism_tally(a, b)
        for (n_cls, l_cls), count in tally.items():
            qexp = (
                euler(n_cls.dim, b.dim)
                - euler(n_cls.dim, a.dim)
                + euler(n_cls.dim, n_cls.dim)
                - euler(a.dim, b.dim)
            )
            scal = (
                self.v_pow(euler(a.dim, b.dim) + 2 * qexp)
                * count
            )
            alpha = tuple(x - y for x, y in zip(a.dim, n_cls.dim))
            mdim = tuple(x + y for x, y in zip(n_cls.dim, l_cls.dim))
            hom_nl = table.hom_count(n_cls, l_cls)
            acc = {}
            for m in self.eps_zero_classes(mdim):
                ext = table.ext_count_with_middle(n_cls, l_cls, m)
                if not ext:
                    continue
                acc[(m, alpha)] = self.scalar(Fraction(ext, hom_nl)) * scal
            out = out + HallElt(self, acc)
        return out

    def power(self, elt, m):
        out = self.one()
        for _ in range(m):
            out = out * elt
        return out


def oracle_sss(algebra, s, t):
    """Closed form for [sS1]*[S2]*[tS1] on a two-vertex quiver with trivial
    involution and all arrows pointing from the first vertex to the second.

    One double sum over torus powers r and middle classes M, with M weighted
    by the dimension u_M of the simultaneous kernel of its arrow matrices.
    Shares nothing with the cocycle route of the main product except the
    kQ module table.
    """
    from .iqg import p_exponent

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
    i2 = iq.vertices.index(v2)
    qpos = [table.bq.aindex[ar.name] for ar in iq.arrows]
    s1 = table.simple(v1)
    s2 = table.simple(v2)
    out = algebra.zero()
    for r in range(min(s, t) + 1):
        k = s + t - 2 * r
        ks1 = table.multiple(s1, k)
        dim = tuple(k if j == i1 else 1 for j in range(2))
        alpha = tuple(r if j == i1 else 0 for j in range(2))
        for m_cls in table.classes(dim):
            if table.hall_number(ks1, s2, m_cls) == 0:
                continue
            if k == 0:
                u = 0
            else:
                rows = [row for pos in qpos for row in m_cls.rep[pos]]
                u = len(linalg.nullspace(rows, p))
            num = (
                LaurentPoly.v_pow(p_exponent(a, u, r, s, t))
                * VMVI ** (s + t - r + 1)
                * qfact(s)
                * qfact(t)
                * qbinom(u, t - r)
            )
            if num.is_zero():
                continue
            scal = algebra.scalar(LaurentFrac(num, qfact(r))) * Fraction(
                1, m_cls.aut_order
            )
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
    eps1 = table.bq.aindex[table.bq.eps_name[v1]]
    eps2 = table.bq.aindex[table.bq.eps_name[v2]]
    dim = tuple(2 * r + 1 if j == i1 else 1 for j in range(2))
    pref = algebra.v_pow(
        -r * (2 * r + 1) + t * l + l * (l - 1) + t * (t - 1)
    ) * Fraction((algebra.q - 1) ** (2 * r + 2), 1)
    out = algebra.zero()
    for m_cls in table.classes(dim):
        rep = m_cls.rep
        u_rows = [row for pos in pos_a + [eps1] for row in rep[pos]]
        u_basis = linalg.nullspace(u_rows, p)
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
        scal = algebra.scalar(weight) * pref * Fraction(1, m_cls.aut_order)
        out = out + algebra.module_elt(m_cls).scale(scal)
    return out
