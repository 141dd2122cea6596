"""The q-series side: T, T1 and the q-identities behind the idivided powers.

Only `ihall identities` and the oracles load this module; `ihall verify`
never compiles it. It holds the q-combinatorics of the suites, which the
oracles share (comb2, [n]!! and its ratios, the cleared factor of the T
sums, [m choose r]; [n] and [n]! are in `ring`), then the triple-sum values
T and T1 and the factorial/binomial identities they reduce to, all over
exact Laurent polynomials. Each sum is taken in one pass: its terms v^e f go
into one buffer (ring.shifted_sum), T and T1 come out of one shared
evaluation per triple (each (k, m) group's terms of even and odd n are
summed once and multiplied by the group's cofactor once), and kmrd sums its
terms over m before it multiplies each k group by [2d]!!/[2k]!!.
"""

from functools import lru_cache

from .ring import ONE, ZERO, fill_ratios, pochhammer, qfact, qfact_ratio, qint, shifted_sum

# The largest bounds `ihall identities` runs to. Each family's cost grows as
# about the fifth to eighth power of its bound: on a 2-vCPU VM the p
# families take 18 s at pmax 64, kmrd 23 s at dmax 32 and the T suite 9 s at
# amax 24 (54 s and 96 MB in one run), so twice a bound would take ten
# minutes to over an hour.
CEILING = {"pmax": 64, "dmax": 32, "amax": 24}

# ---------------------------------------------------------------------------
# q-combinatorics of the suites
#
# qdfact_ratio, the cleared factor of the T sums and qbinom are memoized:
# the suites ask for the same small indices thousands of times.


def comb2(m):
    """The binomial coefficient m choose 2, for any integer m."""
    return m * (m - 1) // 2


_QDFACT_RATIOS = {}


def qdfact_ratio(lo, hi):
    """[hi]!! / [lo]!! = [lo+2][lo+4]...[hi] for even 0 <= lo <= hi."""
    if (lo, hi) in _QDFACT_RATIOS:
        return _QDFACT_RATIOS[lo, hi]
    if lo % 2 or hi % 2 or not 0 <= lo <= hi:
        raise ValueError("qdfact_ratio needs even 0 <= lo <= hi")
    return fill_ratios(_QDFACT_RATIOS, lo, hi, 2)


@lru_cache(maxsize=None)
def qfact_dfact_cofactor(r, d, k, m, kk):
    """[d]!/[r]! * [2kk]!!/[2k]!! * [2kk]!!/[2m]!!.

    The factor that clears the denominators [r]! [2k]!! [2m]!! of one group
    of terms of the T sums against their common multiple [d]! [2kk]!! [2kk]!!;
    T and T1 share it, across every u.
    """
    return qfact_ratio(r, d) * qdfact_ratio(2 * k, 2 * kk) * qdfact_ratio(2 * m, 2 * kk)


def qdfact(n):
    """Double factorial [n][n-2]...[2] for even n >= 0."""
    if n < 0 or n % 2:
        raise ValueError("qdfact needs an even n >= 0")
    return qdfact_ratio(0, n)


@lru_cache(maxsize=None)
def _pascal(m, r):
    """[m choose r] for m >= 0 by the q-Pascal rule
    [m, r] = v^-r [m-1, r] + v^(m-r) [m-1, r-1], no division."""
    if r <= 0 or m < r:
        return ONE if r == 0 else ZERO
    return shifted_sum(((-r, _pascal(m - 1, r)), (m - r, _pascal(m - 1, r - 1))))


@lru_cache(maxsize=None)
def qbinom(m, r):
    """Quantum binomial [m choose r] = [m][m-1]...[m-r+1] / [r]!; m may be
    any integer, zero for r < 0. For m < 0, [m, r] = (-1)^r [r-m-1, r], as
    [-n] = -[n]."""
    if r < 0:
        return ZERO
    if m < 0:
        out = qbinom(r - m - 1, r)
        return -out if r % 2 else out
    # the rows below m, in increasing order, so that each q-Pascal step finds
    # its two terms memoized and the recursion stays one step deep
    for j in range(m):
        for k in range(max(1, r - m + j), min(j, r) + 1):
            _pascal(j, k)
    return _pascal(m, r)


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
def _t_pair(a, d, u):
    """(T(a, d, u), T1(a, d, u)) in one pass.

    Denominators [r]! [2k]!! [2m]!! are cleared against the fixed multiple
    [d]! [2K]!! [2K]!! (K the largest k), keeping everything a Laurent
    polynomial; the sums vanish iff the raw sums do. The cleared factor C
    depends on k and m only (r = d - k - m), so each (k, m) group sums its
    terms of even n (E) and of odd n (O) first, and T and T1 share the two
    products E C and O C: T = sum E C - v^(2k-2m) O C and
    T1 = sum v^(2k-2m) E C - O C.
    """
    kmax = (a + 1) // 2
    even, odd = [], []
    for k in range(kmax + 1):
        for m in range(kmax + 1):
            r = d - k - m
            if r < 0:
                continue
            parts = ([], [])
            for n in range(r + 2 * k, a + 2 - 2 * m):
                s = n - 2 * k
                t = 1 + a - n - 2 * m
                qb = qbinom(u, t - r)
                if qb:
                    z = k * (k - 1) + m * (m + 1) - comb2(s) - comb2(t) + p_exponent(a, u, r, s, t)
                    parts[n % 2].append((z, qb))
            c = qfact_dfact_cofactor(r, d, k, m, kmax)
            even.append((2 * k - 2 * m, shifted_sum(parts[0]) * c))
            odd.append((2 * k - 2 * m, shifted_sum(parts[1]) * c))
    return (shifted_sum([(0, f) for _, f in even], odd),
            shifted_sum(even, [(0, f) for _, f in odd]))


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


def km1_residual(p):
    """[p]! sum_{k+m=p} v^(-2(k-1)m - p(3-p)/2) / ([2k]!! [2m]!!)  minus 1.

    Cleared by [2p]!!, using [2p]!!/([2k]!![2m]!!) = [p choose k] at v^2.
    """
    total = _qbinom_sum(p, lambda k: -2 * (k - 1) * (p - k) - p * (3 - p) // 2, step=2)
    return total * qfact(p) - qdfact(2 * p)


def km3_residual(p):
    """sum_k v^(p(p+1)/2 - 2k(p-k+1)) [p choose k]_{v^2}  minus [2p]!!/[p]!.

    The quotient [2p]!!/[p]! is the Laurent polynomial prod_{j=1}^p (v^j + v^-j),
    so it is taken by exact division.
    """
    total = _qbinom_sum(p, lambda k: p * (p + 1) // 2 - 2 * k * (p - k + 1), step=2)
    return total - qdfact(2 * p).exact_div(qfact(p))


def km5_residual(p):
    """sum_k v^(-k(p-k+1)) [p choose k]  minus  prod_{j=1}^p (1 + v^-j),
    the product being (-v^-1; v^-1)_p."""
    return _qbinom_sum(p, lambda k: -k * (p - k + 1)) - pochhammer(-1, -1, p, sign=-1)


def _kmrd_group(d, k):
    """The terms of kmrd_residual(d) with one k, as [2d]!!/[2k]!! times
    sum_m (-1)^r v^(C(r+1,2) - 2(k-1)m) [d]!/[r]! [2d]!!/[2m]!!, r = d - k - m."""
    terms = ([], [])
    for m in range(d - k + 1):
        r = d - k - m
        terms[r % 2].append((comb2(r + 1) - 2 * (k - 1) * m,
                             qfact_ratio(r, d) * qdfact_ratio(2 * m, 2 * d)))
    return qdfact_ratio(2 * k, 2 * d) * shifted_sum(*terms)


def kmrd_residual(d):
    """sum_{k+m+r=d} (-1)^r v^(C(r+1,2) - 2(k-1)m) / ([r]! [2k]!! [2m]!!).

    Cleared by [d]! [2d]!! [2d]!! so the sum stays polynomial; the terms
    are summed over m first and each k group takes its [2d]!!/[2k]!! once.
    """
    return shifted_sum([(0, _kmrd_group(d, k)) for k in range(d + 1)])


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
    results = []
    results.append(
        ("km-factorial", all(km1_residual(p).is_zero() for p in range(0, pmax + 1)))
    )
    results.append(
        ("km-double-factorial", all(km3_residual(p).is_zero() for p in range(0, pmax + 1)))
    )
    results.append(
        ("km-binomial-product", all(km5_residual(p).is_zero() for p in range(0, pmax + 1)))
    )
    results.append(
        ("km-alternating", all(kmrd_residual(d).is_zero() for d in range(1, dmax + 1)))
    )
    ok1 = True
    for p in range(1, pmax + 1):
        for d in range(-(p - 1), p):
            if (d - (p - 1)) % 2 == 0:
                ok1 = ok1 and qbinom_alt_residual(p, d).is_zero()
    results.append(("qbinom-alternating", ok1))
    results.append(
        ("qbinom-low", all(qbinom_low_residual(p).is_zero() for p in range(1, pmax + 1)))
    )
    results.append(
        ("qbinom-high", all(qbinom_high_residual(p).is_zero() for p in range(1, pmax + 1)))
    )
    return results


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
