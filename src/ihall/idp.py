"""Rank-one idivided powers inside a Hall algebra.

At a tau-fixed vertex the generator [S] does not satisfy the usual
divided-power law; the right substitute comes in two parities. `idp_hall`
evaluates the defining product formula with genuine Hall products. The
symbolic forms in Q(v) (defining product, recursion, closed sum) live in
`oracle`, where the tests check them against each other and against
`idp_hall`.
"""

import warnings

from .ring import VMVI, V, qfact, qint


def _factor_indices(n, parity):
    """The bracket indices [s]^2 appearing in the defining product, as a
    range: a huge n costs nothing before the first product."""
    m = n // 2
    if parity == 1:
        return range(1, 2 * m, 2)
    if n % 2 == 1:
        return range(2, 2 * m + 1, 2)
    return range(0, 2 * m - 1, 2)


_KCOEF = V * VMVI ** 2  # v (v - v^-1)^2 = v^-1 (v^2 - 1)^2


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
