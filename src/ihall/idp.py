"""Rank-one idivided powers, symbolically and inside a Hall algebra.

At a tau-fixed vertex the generator [S] does not satisfy the usual
divided-power law; the right substitute comes in two parities. All three
descriptions implemented here (defining product formula, recursion, closed
sum) are checked against each other by the test suite; the Hall-side
evaluation reuses the defining product formula with genuine Hall products.
"""

from __future__ import annotations

import warnings

from .ring import (
    VMVI,
    LaurentFrac,
    LaurentPoly,
    ONE,
    V,
    comb2,
    qdfact,
    qfact,
    qint,
)


def _lf(x):
    if isinstance(x, LaurentFrac):
        return x
    return LaurentFrac(x)


class SymRank1:
    """Laurent-rational combinations of [nS] * K^k at one tau-fixed vertex.

    Only the operations the idivided-power constructions need are defined:
    left multiplication by [S] (one folding rule) and multiplication by the
    central torus element K.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: _lf(c) for k, c in terms.items() if _lf(c)}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): ONE})

    @classmethod
    def gen_S(cls):
        return cls({(1, 0): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, LaurentFrac(0)) + c
        return SymRank1(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, LaurentFrac(0)) - c
        return SymRank1(out)

    def __eq__(self, other):
        return isinstance(other, SymRank1) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def scale(self, c):
        c = _lf(c)
        return SymRank1({k: x * c for k, x in self.terms.items()})

    def mul_S(self):
        """Left product by [S]: [S]*[nS] = v^-n [(n+1)S] + (v^n - v^-n)[(n-1)S]K."""
        out = {}

        def add(key, val):
            out[key] = out.get(key, LaurentFrac(0)) + val

        for (n, k), c in self.terms.items():
            add((n + 1, k), c * LaurentPoly.v_pow(-n))
            if n >= 1:
                add((n - 1, k + 1), c * (LaurentPoly.v_pow(n) - LaurentPoly.v_pow(-n)))
        return SymRank1(out)

    def mul_K(self, m=1):
        return SymRank1({(n, k + m): c for (n, k), c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (n, k), c in sorted(self.terms.items()):
            s = "(%r)[%dS]" % (c, n)
            if k:
                s += "*K^%d" % k
            bits.append(s)
        return " + ".join(bits)


def _factor_indices(n, parity):
    """The bracket indices [s]^2 appearing in the defining product."""
    m = n // 2
    if parity == 1:
        return [2 * j - 1 for j in range(1, m + 1)]
    if n % 2 == 1:
        return [2 * j for j in range(1, m + 1)]
    return [2 * j - 2 for j in range(1, m + 1)]


_KCOEF = V * VMVI ** 2  # v (v - v^-1)^2 = v^-1 (v^2 - 1)^2


def idp_product(n, parity):
    """The defining product form of [S]^(n) in the given parity.

    Odd n carries one bare [S] in front; every other factor is
    [S]^2 + v^-1 (v^2-1)^2 [s]^2 K, divided by [n]! at the end.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = SymRank1.one()
    for s in _factor_indices(n, parity):
        out = out.mul_S().mul_S() + out.mul_K().scale(_KCOEF * qint(s) ** 2)
    if n % 2 == 1:
        out = out.mul_S()
    return out.scale(LaurentFrac(ONE, qfact(n)))


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
        prev, cur = cur, rhs.scale(LaurentFrac(ONE, qint(m + 1)))
    return cur


def idp_closed(n, parity):
    """The closed sum for [S]^(n): one term per number k of K factors."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sign = -1 if n % 2 else 1  # (-1)^n
    out = {}
    for k in range(n // 2 + 1):
        if parity == 1:
            e = k * (k + sign) - comb2(n - 2 * k)
        else:
            e = k * (k - sign) - comb2(n - 2 * k)
        num = LaurentPoly.v_pow(e) * VMVI ** k
        coeff = LaurentFrac(num, qfact(n - 2 * k) * qdfact(2 * k))
        out[(n - 2 * k, k)] = coeff
    return SymRank1(out)


def sym_to_hall(algebra, vertex, sym):
    """Specialize a symbolic rank-1 element into a Hall algebra at a vertex."""
    iq = algebra.iq
    if iq.tau[vertex] != vertex:
        raise ValueError("symbolic rank-1 elements live at a tau-fixed vertex")
    vi = iq.vertices.index(vertex)
    table = algebra.kq
    simple = table.simple(vertex)
    out = algebra.zero()
    acc = {}
    for (n, k), c in sym.terms.items():
        cls = table.multiple(simple, n)
        alpha = tuple(k if t == vi else 0 for t in range(iq.n))
        key = (cls, alpha)
        acc[key] = acc.get(key, algebra.scalar(0)) + algebra.scalar(c)
    from .ihall import HallElt

    return HallElt(algebra, acc)


def idp_hall(algebra, vertex, n, parity=None):
    """[S_vertex]^(n) computed with genuine Hall products.

    At a tau-fixed vertex this evaluates the defining product form in the
    chosen parity. At a non-fixed vertex the ordinary divided power
    [S]^n / [n]! applies and the parity argument is ignored.
    """
    iq = algebra.iq
    s_elt = algebra.simple(vertex)
    if iq.tau[vertex] != vertex:
        if parity is not None:
            warnings.warn(
                "parity has no effect at a vertex not fixed by the involution",
                stacklevel=2,
            )
        out = algebra.power(s_elt, n)
        return out.scale(qfact(n).specialize_sqrtq(algebra.q).inverse())
    if parity not in (0, 1):
        raise ValueError("a tau-fixed vertex needs parity 0 or 1")
    k_elt = algebra.torus_k(vertex)
    out = algebra.one()
    for s in _factor_indices(n, parity):
        coeff = algebra.scalar(_KCOEF * qint(s) ** 2)
        out = s_elt * (s_elt * out) + (out * k_elt).scale(coeff)
    if n % 2 == 1:
        out = s_elt * out
    return out.scale(qfact(n).specialize_sqrtq(algebra.q).inverse())
