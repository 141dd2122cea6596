"""Rank-one idivided powers inside a Hall algebra.

At a tau-fixed vertex the generator [S] does not satisfy the usual
divided-power law; the right substitute comes in two parities. `idp_hall`
evaluates the defining product formula with genuine Hall products, its
scalars taken at v = sqrt(q) as QSqrt numbers (`qsqrt`). The
symbolic forms (defining product, recursion, closed sum), Laurent
polynomials over one common Laurent denominator, live in `oracle`, where
the tests check them against each other and against `idp_hall`.

A parity has no effect at a vertex the involution moves: `idp_hall`
ignores it there, and says nothing (the `idp` command prints the warning).
"""

from .qsqrt import QSqrt


def factor_indices(n, parity):
    """The bracket indices [s]^2 appearing in the defining product, as a
    range: a huge n costs nothing before the first product. `oracle`'s
    symbolic product form reads the same indices."""
    m = n // 2
    if parity == 1:
        return range(1, 2 * m, 2)
    if n % 2 == 1:
        return range(2, 2 * m + 1, 2)
    return range(0, 2 * m - 1, 2)


def idp_hall(algebra, vertex, n, parity=None):
    """[S_vertex]^(n) computed with genuine Hall products.

    At a tau-fixed vertex this evaluates the defining product form in the
    chosen parity. At a non-fixed vertex the ordinary divided power
    [S]^n / [n]! applies and the parity argument is ignored.
    """
    iq, q = algebra.iq, algebra.q
    s_elt = algebra.simple(vertex)
    if iq.tau[vertex] != vertex:
        out = algebra.power(s_elt, n)
        return out.scale(QSqrt.qfact(q, n).inverse())
    if parity not in (0, 1):
        raise ValueError("a tau-fixed vertex needs parity 0 or 1")
    k_elt = algebra.torus_k(vertex)
    out = algebra.one()
    for s in factor_indices(n, parity):
        # v (v - v^-1)^2 [s]^2 = v (v^s - v^-s)^2 = v^(1-2s) (q^s - 1)^2
        coeff = algebra.v_pow(1 - 2 * s) * (q ** s - 1) ** 2
        out = s_elt * (s_elt * out) + (out * k_elt).scale(coeff)
    if n % 2 == 1:
        out = s_elt * out
    return out.scale(QSqrt.qfact(q, n).inverse())
