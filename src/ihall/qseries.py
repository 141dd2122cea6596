"""The q-series side: T, T1 and the q-identities behind the idivided powers.

Only `ihall identities` and the oracles load this module; `ihall verify`
never compiles it. It holds the q-combinatorics of the suites, which the
oracles share (comb2, [n]!! and its ratios, [m choose r] from rows filled
upward by the q-Pascal rule; [n], [n]! and the q-Pochhammer products are in
`ring`), then the triple-sum values T and T1 and the factorial/binomial
identities they reduce to, all over exact Laurent polynomials and with no
division: each right side is a product, km3's [2p]!!/[p]! the Pochhammer
product v^(-p(p+1)/2) (-v^2; v^2)_p. Each sum is
taken in one pass: its terms v^e f go into one buffer (ring.shifted_sum),
T and T1 come out of one shared evaluation per triple, taken on Kronecker
images (each block of the sums read at v = 2^w as one int, so each (k, m)
group's terms are int shifts and adds and the group takes its products
with the ratio images as int products; a group's exponents step by one
slope), and kmrd sums its terms over k at each s = k + m, where they give
km1's binomial sum S(s), so it takes 2d + 3 products.
"""

from functools import lru_cache

from .ring import (ONE, ZERO, LaurentPoly, _decoded, _half, _packed, _slot_bytes, fill_ratios,
                   pochhammer, qfact, qfact_ratio, shifted_sum)

# The largest bounds `ihall identities` runs to. Each family's cost grows as
# about the fifth to eighth power of its bound: on a 2-vCPU VM the p
# families take 6-8 s at pmax 64, kmrd 1.6 s at dmax 32 and the T suite
# 5-7 s at amax 24 (12-16 s and 65 MB in one run), so twice a bound would
# multiply a family's time by 30 to 250.
CEILING = {"pmax": 64, "dmax": 32, "amax": 24}

# ---------------------------------------------------------------------------
# q-combinatorics of the suites
#
# qdfact_ratio and qbinom are memoized, and so are the images of the blocks
# of the T sums: the suites ask for the same small indices thousands of
# times.


def comb2(m):
    """The binomial coefficient m choose 2, for any integer m."""
    return m * (m - 1) // 2


_QDFACT_RATIOS = {}


def qdfact_ratio(lo, hi):
    """[hi]!! / [lo]!! = [lo+2][lo+4]...[hi] for even 0 <= lo <= hi."""
    if lo % 2 or hi % 2 or not 0 <= lo <= hi:
        raise ValueError("qdfact_ratio needs even 0 <= lo <= hi")
    return fill_ratios(_QDFACT_RATIOS, lo, hi, 2)


def qdfact(n):
    """Double factorial [n][n-2]...[2] for even n >= 0."""
    if n < 0 or n % 2:
        raise ValueError("qdfact needs an even n >= 0")
    return qdfact_ratio(0, n)


# _ROWS[n] holds [n choose 0], ..., [n choose c] for some c <= n // 2; the
# rest of row n is its mirror, [n choose k] = [n choose n - k].
_ROWS = []


def qbinom(m, r):
    """Quantum binomial [m choose r] = [m][m-1]...[m-r+1] / [r]!; m may be
    any integer, zero for r < 0. For m < 0, [m, r] = (-1)^r [r-m-1, r], as
    [-n] = -[n].

    The rows are filled upward by the q-Pascal rule
    [n, k] = v^-k [n-1, k] + v^(n-k) [n-1, k-1], no division: each row up
    to m is extended to column min(r, m - r) in one loop, with no call chain.
    """
    if r < 0:
        return ZERO
    if m < 0:
        out = qbinom(r - m - 1, r)
        return -out if r % 2 else out
    if r > m:
        return ZERO
    r = min(r, m - r)
    rows = _ROWS
    if m < len(rows) and r < len(rows[m]):
        return rows[m][r]
    rows.extend([ONE] for _ in range(len(rows), m + 1))
    for n in range(2, m + 1):
        row, above = rows[n], rows[n - 1]
        for k in range(len(row), min(r, n // 2) + 1):
            row.append(shifted_sum(((-k, above[min(k, n - 1 - k)]), (n - k, above[k - 1]))))
    return rows[m][r]


# ---------------------------------------------------------------------------
# T, T1 and the identities they reduce to


def p_exponent(a, u, r, s, t):
    """The v-exponent attached to one term of the three-factor product."""
    return (
        -s * (a + t)
        + 2 * r * a
        + (u - t + 2 * s - r) * (t - r)
        + (s - r) ** 2
        + comb2(s - r)
        + (t - r) ** 2
        + comb2(t - r)
        + r * (s + t)
        - comb2(r + 1)
        + 1
    )


@lru_cache(maxsize=None)
def _block(f, i, j):
    """(lowest exponent, l1 norm) of the block f(i, j) of the T sums."""
    g = f(i, j)
    # a product of balanced [n] steps its exponents by 2: v^lo times a
    # polynomial in v^2, whose image _image takes, dropping the odd entries
    if any(g.coeffs[1::2]):
        raise ValueError("%s(%d, %d) is not v^lo times a polynomial in v^2" % (f.__name__, i, j))
    return g.lo, sum(map(abs, g.coeffs))


@lru_cache(maxsize=None)
def _image(f, i, j, nb):
    """The Kronecker image of the block f(i, j), as a polynomial in v^2, in
    nb-byte slots."""
    t = f(i, j).coeffs[::2]
    return _packed(t, nb, _half(nb, len(t)))


def _term_exponent(a, u, k, m, r, n):
    """The exponent z of the T sums' term (k, m, n), r = d - k - m."""
    s, t = n - 2 * k, 1 + a - n - 2 * m
    return k * (k - 1) + m * (m + 1) - comb2(s) - comb2(t) + p_exponent(a, u, r, s, t)


def _t_groups(a, d, u):
    """The (k, m) groups of the T sums of (a, d, u), and their l1 bound.

    A group is (k, m, e0, base, terms, ratios). Its terms are (n, z + lo_j,
    j): j = t - r indexes the binomial [u choose j], nonzero for 0 <= j <= u,
    and n = 1 + a - 2m - r - j >= r + 2k gives j <= 1 + a - 2d, so every
    group runs j over the same 0 .. J. Its ratios are the three cleared
    factors, e0 is the lowest exponent of its terms and base that of the
    terms times the ratios. z is linear in n, with the slope 1 - u - 2d in
    every group (the squares of n in p_exponent cancel those of -C(s, 2) -
    C(t, 2)), so z is taken from _term_exponent at each group's top n and
    stepped by that slope, itself one difference of _term_exponent.
    """
    kmax = (a + 1) // 2
    blocks = [_block(qbinom, u, j) for j in range(min(u, a + 1 - 2 * d) + 1)]
    binom_l1 = sum([l1 for _, l1 in blocks])
    dz = _term_exponent(a, u, 0, 0, d, 1) - _term_exponent(a, u, 0, 0, d, 0)
    groups, bound = [], 0
    for k in range(kmax + 1):
        for m in range(kmax + 1):
            r = d - k - m
            if r < 0 or not blocks:
                continue
            n = 1 + a - 2 * m - r  # the top n, where j = 0
            z = _term_exponent(a, u, k, m, r, n)  # z(n - j) = z - j dz
            terms = [(n - j, z - j * dz + low, j) for j, (low, _) in enumerate(blocks)]
            ratios = ((qfact_ratio, r, d), (qdfact_ratio, 2 * k, 2 * kmax),
                      (qdfact_ratio, 2 * m, 2 * kmax))
            e0 = base = min([e for _, e, _ in terms])
            norm = binom_l1
            for ratio in ratios:
                low, l1 = _block(*ratio)
                base += low
                norm *= l1
            groups.append((k, m, e0, base, terms, ratios))
            bound += norm
    return groups, bound


@lru_cache(maxsize=None)
def _t_pair(a, d, u):
    """(T(a, d, u), T1(a, d, u)) in one pass over Kronecker images.

    Denominators [r]! [2k]!! [2m]!! are cleared against the fixed multiple
    [d]! [2K]!! [2K]!! (K the largest k), keeping everything a Laurent
    polynomial; the sums vanish iff the raw sums do. The cleared factor C is
    the product of the ratios [d]!/[r]!, [2K]!!/[2k]!! and [2K]!!/[2m]!!,
    which depend on k and m only (r = d - k - m), so each (k, m) group
    (_t_groups) sums its terms of even n (E) and of odd n (O) first:
    T = sum (E - v^(2k-2m) O) C and T1 = sum (v^(2k-2m) E - O) C.

    Every block (a binomial [u choose j] or a ratio) is v^lo times a
    polynomial in v^2, read at v^2 = 2^w as one int, its Kronecker image
    (_image). So E and O are int shifts and adds, one int per exponent
    parity, and each group multiplies them by the product of its three
    ratio images. T and T1 are sum_p v^(lo + p) T_p(v^2) over the parities
    p = 0, 1, each T_p one int; lo is 2K below the lowest exponent of any
    group, so every shift is a left shift (|2k - 2m| <= 2K). The bound, the
    sum over the groups of (sum ||[u choose j]||_1) * prod ||ratio||_1, is
    at least the l1 norm of T and of T1, so at least each of their
    coefficients; w holds it (ring._slot_bytes), so no slot carries and the
    ints decode back to T and T1 exactly.
    """
    groups, bound = _t_groups(a, d, u)
    nb = _slot_bytes(bound)
    w = 8 * nb
    lo = min([g[3] for g in groups], default=0) - 2 * ((a + 1) // 2)
    img, img1 = [0, 0], [0, 0]  # the images of T_p and T1_p by parity p
    for k, m, e0, base, terms, ratios in groups:
        parts = {}  # (n odd, exponent parity over e0): image
        for n, e, j in terms:
            key = n & 1, (e - e0) & 1
            parts[key] = parts.get(key, 0) + (_image(qbinom, u, j, nb) << w * ((e - e0) >> 1))
        r1, r2, r3 = [_image(*ratio, nb) for ratio in ratios]
        c = r1 * r2 * r3
        for (odd, p), x in parts.items():
            x *= c
            p += base - lo
            x, y = x << w * (p >> 1), x << w * ((p >> 1) + k - m)
            if odd:
                img[p & 1] -= y
                img1[p & 1] -= x
            else:
                img[p & 1] += x
                img1[p & 1] += y
    return tuple(shifted_sum([(p, _decoded(x, nb, lo, 2)) for p, x in enumerate(sums) if x])
                 for sums in (img, img1))


def t_value(a, d, u):
    """T(a, d, u): must vanish on every admissible triple."""
    return _t_pair(a, d, u)[0]


def t1_value(a, d, u):
    """T1(a, d, u): the companion sum with the shifted exponent convention."""
    return _t_pair(a, d, u)[1]


def adu_triples(amax):
    """All admissible (a, d, u) with a <= amax."""
    for a in range(amax + 1):
        for d in range(0, (a + 1) // 2 + 1):
            for u in range(0, a + 1 - 2 * d + 1):
                if (d, u) != (0, 0):
                    yield (a, d, u)


def _qbinom_sum(p, exponent, step=1, alternating=False):
    """sum_t (+-1)^t v^exponent(t) [p choose t] at v^step, t = 0 .. p.

    The sign (-1)^t is taken when `alternating`, else every sign is +.
    """
    terms = ([], [])
    for t in range(p + 1):
        qb = qbinom(p, t)
        terms[alternating and t % 2].append((exponent(t), qb.inflate(step) if step != 1 else qb))
    return shifted_sum(*terms)


@lru_cache(maxsize=None)
def _km_sum(s):
    """S(s) = sum_k v^(-2(k-1)(s-k)) [s choose k]_{v^2}, k = 0 .. s: km1's
    binomial sum before its shift, and kmrd's sum over k at k + m = s."""
    return _qbinom_sum(s, lambda k: -2 * (k - 1) * (s - k), step=2)


def km1_residual(p):
    """[p]! sum_{k+m=p} v^(-2(k-1)m - p(3-p)/2) / ([2k]!! [2m]!!)  minus 1.

    Cleared by [2p]!!, using [2p]!!/([2k]!![2m]!!) = [p choose k] at v^2,
    so the sum is v^(-p(3-p)/2) S(p) (_km_sum).
    """
    return _km_sum(p) * (LaurentPoly.v_pow(-p * (3 - p) // 2) * qfact(p)) - qdfact(2 * p)


def km3_residual(p):
    """sum_k v^(p(p+1)/2 - 2k(p-k+1)) [p choose k]_{v^2}  minus [2p]!!/[p]!.

    The quotient [2p]!!/[p]! is prod_{j=1}^p (v^j + v^-j), that is
    v^(-p(p+1)/2) (-v^2; v^2)_p.
    """
    total = _qbinom_sum(p, lambda k: p * (p + 1) // 2 - 2 * k * (p - k + 1), step=2)
    return shifted_sum([(0, total)], [(-p * (p + 1) // 2, pochhammer(2, 2, p, sign=-1))])


def km5_residual(p):
    """sum_k v^(-k(p-k+1)) [p choose k]  minus  prod_{j=1}^p (1 + v^-j),
    the product being (-v^-1; v^-1)_p."""
    return _qbinom_sum(p, lambda k: -k * (p - k + 1)) - pochhammer(-1, -1, p, sign=-1)


def _kmrd_groups(d):
    """The s groups of kmrd_residual(d) as (exponent, polynomial) at
    s = 0 .. d, each without its sign (-1)^(d-s) and the common [2d]!!."""
    # [2d]!!/[2s]!! and S(s) step their exponents by 2, so their product
    # is taken on half-length tuples (ring._kronecker) before [d]!/[d-s]!
    return [(comb2(d - s + 1), qfact_ratio(d - s, d) * (qdfact_ratio(2 * s, 2 * d) * _km_sum(s)))
            for s in range(d + 1)]


def kmrd_residual(d):
    """sum_{k+m+r=d} (-1)^r v^(C(r+1,2) - 2(k-1)m) / ([r]! [2k]!! [2m]!!).

    Cleared by [d]! [2d]!! [2d]!! so the sum stays polynomial. As
    [2k]!! = [2]^k [k]!_{v^2}, the cleared [2d]!!^2 / ([2k]!! [2m]!!) is
    [2d]!! [2d]!!/[2s]!! [s choose k]_{v^2} with s = k + m, so the terms are
    summed over k at each s, giving km1's binomial sum S(s) (_km_sum):
    [2d]!! sum_s (-1)^(d-s) v^C(d-s+1, 2) [d]!/[d-s]! [2d]!!/[2s]!! S(s),
    2d + 3 products.
    """
    groups = _kmrd_groups(d)  # s = d, d - 2, ... take the sign +
    return qdfact(2 * d) * shifted_sum(groups[d % 2::2], groups[1 - d % 2::2])


def qbinom_alt_residual(p, d):
    """sum_t (-1)^t v^(-dt) [p choose t]: zero when |d| <= p-1, d = p-1 mod 2."""
    return _qbinom_sum(p, lambda t: -d * t, alternating=True)


def qbinom_low_residual(p):
    """sum_t (-1)^t v^(-(p+1)t) [p choose t]  minus  (v^-2; v^-2)_p."""
    return _qbinom_sum(p, lambda t: -(p + 1) * t, alternating=True) - pochhammer(-2, -2, p)


def qbinom_high_residual(p):
    """sum_t (-1)^t v^((p+1)t) [p choose t]  minus  (v^2; v^2)_p."""
    return _qbinom_sum(p, lambda t: (p + 1) * t, alternating=True) - pochhammer(2, 2, p)


def run_identity_suites(pmax, dmax):
    """Every named identity over its whole advertised range.

    Returns a list of (name, ok) pairs, one per identity family, each ok
    being the conjunction of all instances in the range.
    """
    # built per call, so that it reads the residuals the module holds now;
    # each instance is the tuple of a residual's arguments
    table = [
        ("km-factorial", km1_residual, zip(range(pmax + 1))),
        ("km-double-factorial", km3_residual, zip(range(pmax + 1))),
        ("km-binomial-product", km5_residual, zip(range(pmax + 1))),
        ("km-alternating", kmrd_residual, zip(range(1, dmax + 1))),
        ("qbinom-alternating", qbinom_alt_residual,
         ((p, d) for p in range(1, pmax + 1) for d in range(1 - p, p, 2))),
        ("qbinom-low", qbinom_low_residual, zip(range(1, pmax + 1))),
        ("qbinom-high", qbinom_high_residual, zip(range(1, pmax + 1))),
    ]
    return [(name, all(residual(*args).is_zero() for args in instances))
            for name, residual, instances in table]


def run_t_suite(amax):
    """T and T1 on every admissible triple with a <= amax."""
    results = []
    for a, d, u in adu_triples(amax):
        results.append(
            (
                "T(%d,%d,%d)" % (a, d, u),
                t_value(a, d, u).is_zero() and t1_value(a, d, u).is_zero(),
            )
        )
    return results
