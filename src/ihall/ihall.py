"""Twisted semi-derived Hall algebra of an iquiver over a prime field F_q.

Elements live in the basis [X] * K_alpha where X runs over the kQ classes
(the eps-zero modules, pulled back from the underlying quiver) and K_alpha
is the torus element attached to an integer vector alpha. Coefficients are
exact numbers in Q(sqrt(q)). The product of two kQ classes x and y counts
the Lambda^i cocycles of x by y per reduced middle v^e [X] * K_alpha; over
q^(sum_i dx_i dy_i) the counts are the untwisted structure constants
|Ext^1(x,y)_z| / |Hom(x,y)| summed over the middles z of one reduction.
The kQ table `kq` computes those counts itself (`extension_counts`), from
its own Hall numbers and extension counts and tau, as a sum over the images
of the maps x -> tau* y; the Euler-form twist and the torus commutation
rule K_alpha [y] = v^((tau(alpha) - alpha, dim y)) [y] K_alpha, in the
symmetric Euler form, supply the powers of v = sqrt(q). tau(alpha) - alpha
comes from `IQuiver.twist` alone. Every one-term element, 1 and K_alpha
among them, is built by `basis_elt`. The Lambda^i table (`table`) is
built on first use, only to list module classes or to rewrite one
(`module_elt`). The product oracles, and the
filtration counts (Hall numbers from every submodule) that give the same
constants by Riedtmann's formula, live in `oracle`.
"""

from functools import cached_property
from operator import add, sub

from .frep import ModuleTable
from .iquiver import BoundQuiver
from .qsqrt import QSqrt


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

    def _merge(self, other, op):
        """self op other, for op `operator.add` or `operator.sub`."""
        if not isinstance(other, HallElt):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = op(out.get(k, self.algebra.scalar(0)), c)
        return HallElt(self.algebra, out)

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

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
    """The twisted semi-derived Hall algebra of (iquiver, q); the budget keywords go to its tables."""

    def __init__(self, iq, q, **budgets):
        self.iq = iq
        self.q = q
        self.kq = ModuleTable(BoundQuiver(iq), q, **budgets)
        self._pair_cache = {}
        self._zero_alpha = (0,) * iq.n

    @cached_property
    def table(self):
        """The Lambda^i table, built on first use: no product reads it."""
        from .lambda_i import doubled

        return ModuleTable(doubled(self.iq), self.q, self.kq.budget_dim, self.kq.budget_space)

    # ---------- scalars ----------

    def scalar(self, x):
        if isinstance(x, QSqrt):
            if x.q != self.q:
                raise ValueError("scalar belongs to a different q")
            return x
        if hasattr(x, "specialize_sqrtq"):
            return x.specialize_sqrtq(self.q)
        return QSqrt(self.q, x)

    def v_pow(self, e):
        return QSqrt.v_pow(self.q, e)

    # ---------- elements ----------

    def zero(self):
        return HallElt(self, {})

    def one(self):
        return self.basis_elt(self.kq.zero_class())

    def _alpha(self, alpha):
        """A torus vector as a tuple of ints, one entry per vertex."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.iq.n:
            raise ValueError("torus vector %r needs %d entries, one per vertex" % (alpha, self.iq.n))
        return alpha

    def basis_elt(self, cls, alpha=None):
        """[cls] * K_alpha for a kQ class, as a single basis key."""
        if cls.table is not self.kq:
            raise ValueError("basis keys require a kQ (eps-zero) class, got %r" % (cls,))
        alpha = self._zero_alpha if alpha is None else self._alpha(alpha)
        return HallElt(self, {(cls, alpha): self.scalar(1)})

    def module_elt(self, cls):
        """[M] for a Lambda^i class, rewritten in the standard basis."""
        from .lambda_i import homology_reduce

        e, x, alpha = homology_reduce(cls, self.kq)
        return HallElt(self, {(x, alpha): self.v_pow(e)})

    def simple(self, v):
        return self.basis_elt(self.kq.simple(v))

    def torus(self, alpha):
        return self.basis_elt(self.kq.zero_class(), alpha)

    def torus_k(self, v):
        return self.torus(self.iq.unit(v))

    # ---------- product ----------

    def _pair(self, x, y):
        """[x] * [y] for kQ classes, as (class, gamma, scalar) rows.

        Each reduced middle v^e [X] * K_gamma of the kQ table's
        `extension_counts` gives one row: its cocycle count over
        q^(sum_i dx_i dy_i), times v to the Euler-form twist plus e.
        """
        if (x, y) in self._pair_cache:
            return self._pair_cache[x, y]
        tw = self.iq.euler(x.dim, y.dim)
        counts, denom = self.kq.extension_counts(x, y)
        rows = tuple(
            (w, gamma, self.v_pow(tw + e) * QSqrt(self.q, count, 0, denom))
            for (w, gamma, e), count in counts.items()
        )
        self._pair_cache[x, y] = rows
        return rows

    def _mul(self, e1, e2):
        """K_a moves left past [y] at v^((tau(a) - a, dim y)) (`IQuiver.twist`)."""
        out = {}
        zero = self.scalar(0)
        for (x, a), cx in e1.terms.items():
            t = self.iq.twist(a)
            for (y, b), cy in e2.terms.items():
                base = cx * cy * self.v_pow(self.iq.sym(t, y.dim))
                for w, gamma, scal in self._pair(x, y):
                    key = (
                        w,
                        tuple(g + p + r for g, p, r in zip(gamma, a, b)),
                    )
                    out[key] = out.get(key, zero) + base * scal
        return HallElt(self, out)

    def power(self, elt, m):
        out = self.one()
        for _ in range(m):
            out = out * elt
        return out

