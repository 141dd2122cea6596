"""The generator images at one vertex of a Hall algebra, and the one home
of their scalars (QSqrt numbers at v = sqrt(q)):

- B_i = c_i [S_i]: c_i = 1/(1 - q) at an orbit representative of tau (a
  fixed vertex is its own) and v/(q - 1) at its partner (`b_scale`);
- ktilde_i = -q^-1 K_i at a fixed vertex, v^(-c_{i,tau i}/2) K_i off it;
- B_i^(n) (`idivided_power`): B_i^n / [n]! off a fixed vertex; at one, in
  either parity, the defining product form on B_i and ktilde_i.

`iqg` checks the relations on these images. `idp_hall` is c_i^-n B_i^(n),
the [S]-form the idp command prints; `oracle` holds its symbolic forms in
[S] and [K] (product, recursion, closed sum), over one common Laurent
denominator, and the tests check them against each other and against it.
A parity at a vertex tau moves is ignored, silently (the idp command warns).
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


def b_scale(algebra, i, n=1):
    """c_i^n for any integer n, where B_i = c_i [S_i]."""
    q = algebra.q
    if i in algebra.iq.i_tau:
        unit, base = algebra.scalar(1), 1 - q
    else:
        unit, base = algebra.v_pow(n), q - 1
    return unit * (QSqrt(q, 1, 0, base ** n) if n >= 0 else QSqrt(q, base ** -n))


def ktilde(algebra, i):
    """ktilde_i. Off a fixed vertex c = c_{i,tau i} is even on every
    iquiver, as tau pairs the arrows i -> tau i with the arrows tau i -> i;
    the pair relation needs an even c too."""
    q, ti = algebra.q, algebra.iq.tau[i]
    scal = QSqrt(q, -1, 0, q) if ti == i else algebra.v_pow(-algebra.iq.cartan_vv(i, ti) // 2)
    return algebra.torus_k(i).scale(scal)


def idivided_power(algebra, i, n, parity=None):
    """B_i^(n). At a tau-fixed vertex: x <- B_i (B_i x) - v [s]^2 x ktilde_i
    from x = 1 over the indices s of `factor_indices(n, parity)`, times one
    more B_i when n is odd, over [n]!."""
    q = algebra.q
    b = algebra.simple(i).scale(b_scale(algebra, i))
    if algebra.iq.tau[i] != i:
        out = algebra.power(b, n)
    elif parity not in (0, 1):
        raise ValueError("a tau-fixed vertex needs parity 0 or 1")
    else:
        k = ktilde(algebra, i)
        out = algebra.one()
        for s in factor_indices(n, parity):
            # v [s]^2, with [s] = v^(1-s) (q^s - 1)/(q - 1) at v = sqrt(q)
            coeff = algebra.v_pow(3 - 2 * s) * ((q ** s - 1) // (q - 1)) ** 2
            out = b * (b * out) - (out * k).scale(coeff)
        if n % 2 == 1:
            out = b * out
    return out.scale(QSqrt.qfact(q, n).inverse())


def idp_hall(algebra, i, n, parity=None):
    """[S_i]^(n) = c_i^-n B_i^(n)."""
    return idivided_power(algebra, i, n, parity).scale(b_scale(algebra, i, -n))
