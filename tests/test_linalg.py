"""Dense linear algebra over F_p used by the module enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ihall import linalg


def inverse(A, p):
    n = len(A)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    rows, pivots = linalg.rref(aug, p)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is not invertible")
    return tuple(tuple(row[n:]) for row in rows)


def rand_matrix(draw, rows, cols, p):
    return tuple(
        tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(cols))
        for _ in range(rows)
    )


matrices = st.integers(min_value=2, max_value=3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ).flatmap(
        lambda t: st.tuples(
            st.just(t[0]),
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=t[0] - 1),
                    min_size=t[2],
                    max_size=t[2],
                ).map(tuple),
                min_size=t[1],
                max_size=t[1],
            ).map(tuple),
        )
    )
)


def test_rref_fixed_example():
    rows, pivots = linalg.rref([(1, 1, 0), (0, 1, 2)], 3)
    assert pivots == (0, 1)
    assert rows == ((1, 0, 1), (0, 1, 2))


@given(matrices)
@settings(max_examples=80)
def test_rref_is_idempotent(pm):
    p, mat = pm
    rows, pivots = linalg.rref(mat, p)
    again, piv2 = linalg.rref(rows, p)
    assert rows == again and pivots == piv2
    assert len(rows) == linalg.rank(mat, p)


@given(matrices)
@settings(max_examples=80)
def test_nullspace_annihilates(pm):
    p, mat = pm
    cols = len(mat[0]) if mat else 0
    ns = linalg.nullspace(mat, cols, p)
    assert len(ns) == cols - linalg.rank(mat, p)
    for v in ns:
        out = linalg.mat_vec(mat, v, p)
        assert all(x == 0 for x in out)


def test_nullspace_of_no_rows_is_the_whole_space():
    for n in range(4):
        assert linalg.nullspace((), n, 5) == linalg.identity(n)
    assert linalg.nullspace(((), ()), 0, 2) == ()
    assert linalg.nullspace(((0, 0),), 2, 3) == linalg.identity(2)


def test_inverse_roundtrip():
    m = ((1, 2), (1, 1))
    inv = inverse(m, 3)
    assert linalg.mat_mul(m, inv, 3) == linalg.identity(2)


def test_gl_order():
    assert linalg.gl_order(0, 2) == 1
    assert linalg.gl_order(2, 2) == 6
    assert linalg.gl_order(3, 2) == 168
    assert linalg.gl_order(2, 3) == 48


def test_frames_count_independent_tuples():
    # frames(k, n, p) against the k-tuples of vectors of F_p^n of rank k
    for n, p in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        vectors = list(product(range(p), repeat=n))
        for k in range(n + 2):
            count = sum(linalg.rank(rows, p) == k for rows in product(vectors, repeat=k)) if k else 1
            assert linalg.frames(k, n, p) == count, (k, n, p)


def test_is_prime_and_primitive_root():
    assert [n for n in range(-1, 30) if linalg.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for p in (2, 3, 5, 7, 11):
        g = linalg.primitive_root(p)
        assert len({pow(g, k, p) for k in range(1, p)}) == p - 1


def test_is_prime_is_exact_below_its_bound():
    # trial division by the primes up to sqrt(2 * 10^5) is the reference
    small = [d for d in range(2, 448) if all(d % e for e in range(2, d))]
    for n in range(-1, 2 * 10 ** 5):
        assert linalg.is_prime(n) == (n > 1 and all(n % d or n == d for d in small if d * d <= n)), n
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not linalg.is_prime(n), n
    assert linalg.is_prime(2 ** 61 - 1) and linalg.is_prime(10 ** 13 + 37)
    with pytest.raises(ValueError, match=str(linalg.PRIME_TEST_BOUND)):
        linalg.is_prime(linalg.PRIME_TEST_BOUND)


def test_gl_generators_generate():
    # closure of the 2(d-1) adjacent transvections and the scalar reaches the
    # full group at small size
    for p, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4)]:
        gens = linalg.gl_generators(d, p)
        assert len(gens) == 2 * (d - 1) + (p > 2)
        seen = {linalg.identity(d)}
        frontier = [linalg.identity(d)]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = linalg.mat_mul(g, cur, p)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == linalg.gl_order(d, p), (p, d)


def test_subspace_count_matches_enumeration():
    for n, k, p in [(3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 1, 3)]:
        listed = list(linalg.enumerate_rref_bases(n, k, p))
        assert len(listed) == linalg.subspace_count(n, k, p)
        assert len(set(listed)) == len(listed)


# frozen counts of d x d matrices with E^2 = 0, checked against a dense scan
SQ0_COUNTS = {
    (0, 2): 1,
    (1, 2): 1,
    (2, 2): 4,
    (3, 2): 22,
    (0, 3): 1,
    (2, 3): 9,
    (3, 3): 105,
    (4, 3): 7281,
}


def test_square_zero_counts():
    for (d, p), want in SQ0_COUNTS.items():
        mats = linalg.square_zero_matrices(d, p)
        assert len(mats) == want
        assert len(set(mats)) == want


def test_square_zero_dense_crosscheck():
    for d, p in [(2, 2), (2, 3), (3, 2)]:
        dense = set()
        for flat in product(range(p), repeat=d * d):
            m = tuple(tuple(flat[i * d : (i + 1) * d]) for i in range(d))
            if all(
                x == 0 for row in linalg.mat_mul(m, m, p) for x in row
            ):
                dense.add(m)
        assert dense == set(linalg.square_zero_matrices(d, p))


def test_quotient_data_dimensions():
    # quotient of F_2^3 by a line has dimension 2
    amb = linalg.identity(3)
    sub, piv = linalg.rref([(1, 1, 0)], 2)
    reps, project = linalg.quotient_data(amb, (0, 1, 2), sub, 2)
    assert len(reps) == 2
    img = project((1, 1, 0))
    assert all(x == 0 for x in img)
    # a vector outside V has no quotient coordinates
    _, project = linalg.quotient_data(sub, piv, (), 2)
    assert project((1, 1, 0)) == (1,)
    assert project((1, 0, 0)) is None
