"""Exact linear algebra over the prime field F_p.

Matrices are tuples of row tuples with entries in range(p); a matrix for a
map k^m -> k^n has n rows of length m (rows = target).  Dimensions may be 0
on either side, so every routine tolerates empty shapes.
"""

from itertools import combinations, product
from operator import mul


def zeros(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A, B, p):
    """A (m x k) times B (k x n) mod p."""
    if not A:
        return ()
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in A)


def mat_vec(A, v, p):
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in A)


def transpose(A):
    if not A:
        return ()
    return tuple(zip(*A))


def rref(rows, p):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(A, p):
    return len(rref(A, p)[0])


def coords_against_rref(v, rows, pivots, p):
    """Coordinates of v in the span of reduced echelon rows, or None."""
    coeffs = tuple(v[c] for c in pivots)
    resid = list(v)
    for coef, row in zip(coeffs, rows):
        if coef:
            resid = [(x - coef * y) % p for x, y in zip(resid, row)]
    if any(resid):
        return None
    return coeffs


def nullspace(A, ncols, p):
    """Basis of {v in F_p^ncols : A v = 0} as row vectors; every unit vector
    when A has no rows."""
    rows, pivots = rref(A, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rows[r][f]) % p
        basis.append(tuple(v))
    return tuple(basis)


def col_space(A, p):
    """Reduced echelon basis (as row vectors) of the column space of A."""
    return rref(transpose(A), p)


def frames(k, n, p):
    """prod_{i<k} (p^n - p^i): the number of k-tuples of linearly independent
    vectors in F_p^n."""
    out = 1
    pn = p ** n
    for i in range(k):
        out *= pn - p ** i
    return out


def gl_order(n, p):
    return frames(n, n, p)


# Miller-Rabin to the prime bases 2, ..., 41 decides primality exactly below
# this bound (Sorenson and Webster 2015)
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin, exact below PRIME_TEST_BOUND (about
    3.317e24); ValueError at or above it."""
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(
            "cannot test %d for primality: the test is exact only below %d (about 3.317e24)"
            % (n, PRIME_TEST_BOUND)
        )
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primitive_root(p):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return next(
        g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors)
    )


def gl_generators(n, p):
    """Generators of GL_n(F_p): the 2(n-1) adjacent unit transvections
    I + E_(i,i+1) and I + E_(i+1,i), plus one primitive scalar.

    The commutator of I + E_ij and I + E_jk is I + E_ik (i != k), so the
    adjacent ones reach every unit transvection. Over F_p the powers of
    I + E_ij are the I + c E_ij, which generate SL_n, and the scalar
    diag(g0, 1, ...) reaches every determinant.
    """
    if n == 0:
        return ()
    gens = []
    for i in range(n - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            g = [list(row) for row in identity(n)]
            g[a][b] = 1
            gens.append(tuple(tuple(row) for row in g))
    g0 = primitive_root(p)
    if g0 != 1:
        g = [list(row) for row in identity(n)]
        g[0][0] = g0
        gens.append(tuple(tuple(row) for row in g))
    return tuple(gens)


def square_zero_matrices(d, p):
    """All d x d matrices E over F_p with E @ E = 0.

    Generated through the factorization E = B A with B a basis of im(E)
    (columns, echelon) and A of full row rank with A B = 0, so the list has
    no duplicates and never touches the p^(d*d) ambient space.
    """
    out = [zeros(d, d)]
    for r in range(1, d // 2 + 1):
        for v_rows in enumerate_rref_bases(d, r, p):
            b_cols = transpose(v_rows)
            null_rows = nullspace(v_rows, d, p)
            m = len(null_rows)
            for flat in product(range(p), repeat=r * m):
                coef = tuple(flat[i * m : (i + 1) * m] for i in range(r))
                if rank(coef, p) != r:
                    continue
                a_mat = mat_mul(coef, null_rows, p)
                out.append(mat_mul(b_cols, a_mat, p))
    return tuple(out)


def subspace_count(n, k, p):
    """Gaussian binomial [n choose k]_p evaluated at the integer p."""
    if k < 0 or k > n:
        return 0
    # a k-frame spans one subspace, and GL_k permutes the frames of each
    return frames(k, n, p) // frames(k, k, p)


def enumerate_rref_bases(n, k, p):
    """All k-dimensional subspaces of F_p^n, each as its reduced echelon basis.

    A subspace corresponds to one choice of pivot columns plus arbitrary
    entries at the non-pivot positions to the right of each pivot.
    """
    if k == 0:
        yield ()
        return
    if k > n:
        return
    for pivots in combinations(range(n), k):
        free_pos = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_pos.append((r, c))
        for vals in product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free_pos, vals):
                rows[r][c] = val
            yield tuple(tuple(row) for row in rows)


def quotient_data(V, V_pivots, W, p):
    """Data for the quotient V/W of subspaces of F_p^n given by RREF bases.

    Returns (reps, project): reps are vectors of F_p^n projecting to the
    chosen quotient basis, and project(v) maps v in V to quotient coords
    (None for v outside V).
    """
    dimV = len(V)
    W_coords = []
    for w in W:
        c = coords_against_rref(w, V, V_pivots, p)
        if c is None:
            raise ValueError("W is not contained in V")
        W_coords.append(c)
    Wc_rows, Wc_pivots = rref(W_coords, p) if W_coords else ((), ())
    comp = [j for j in range(dimV) if j not in Wc_pivots]
    reps = tuple(V[j] for j in comp)

    def project(v):
        c = coords_against_rref(v, V, V_pivots, p)
        if c is None:
            return None
        resid = list(c)
        for row, piv in zip(Wc_rows, Wc_pivots):
            f = resid[piv]
            if f:
                resid = [(x - f * y) % p for x, y in zip(resid, row)]
        return tuple(resid[j] for j in comp)

    return reps, project
