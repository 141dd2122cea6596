"""Exact scalar arithmetic over Z: Laurent polynomials in v, the
q-combinatorics on them, and the q-series suites.

Every q-coefficient lies in Z[v, v^-1], so a LaurentPoly holds int
coefficients only, as a dense tuple from its lowest exponent; any other
coefficient (a Fraction, a float) raises TypeError.  An operand is a
LaurentPoly or an int (a constant) for every operator.  Equality is
structural, and a constant hashes as the int it equals.  No floats
anywhere.  There is no division: every quotient the program needs is a
product (a factorial ratio, a q-Pochhammer product) or a q-Pascal sum, all
in the ring Z[v, v^-1].  Every sum, + and - included, adds its shifted
terms v^e f into one buffer (shifted_sum).

The Kronecker image of a coefficient tuple is the tuple read at v = 2^w as
one int.  _slot_bytes sets the width w (one 64-bit word, or past 2^63 the
fewest whole bytes that hold a coefficient and its sign), _packed maps a
tuple to its image, and _unpacked (or _decoded, to a LaurentPoly) maps it
back.  Laurent polynomials multiply through one kernel on images, a single
big-int product (_kronecker), and the T sums are taken on images too
(_t_pair).

Of the commands only `identities` loads this module: the Hall-side
commands take their scalars at v = sqrt(q) as QSqrt numbers, which `qsqrt`
builds from ints, and the tests check them against the forms here at
v = sqrt(q).  Past LaurentPoly come the q-combinatorics that the suites
and the oracles share ([n], [n]! and [n]!! with their ratios, [m choose r],
q-Pochhammer products), then the triple sums T and T1 and the
factorial/binomial identities they reduce to, each right side a product
(km3's [2p]!!/[p]! is v^(-p(p+1)/2) (-v^2; v^2)_p).
"""

from functools import lru_cache
from operator import add, index, neg, sub
from struct import pack, unpack


class LaurentPoly:
    """Laurent polynomial in v with integer coefficients.

    Dense: `lo` is the lowest exponent and `coeffs` the tuple of int
    coefficients of v^lo, v^(lo+1), ..., whose first and last entries are
    nonzero; zero is (0, ()).  Equality and hashing are structural, but a
    constant hashes as the int it equals.
    """

    __slots__ = ("lo", "coeffs")

    def __new__(cls, terms=None):
        terms = terms or {}
        lo = min(terms, default=0)
        out = [0] * (max(terms, default=lo - 1) + 1 - lo)
        for e, c in terms.items():
            out[e - lo] = index(c)
        return _trim(lo, out)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def v_pow(cls, e):
        return _poly(e, (1,))

    @property
    def terms(self):
        """{exponent: coefficient} over the nonzero coefficients."""
        return {self.lo + i: c for i, c in enumerate(self.coeffs) if c}

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __hash__(self):
        if not self.lo and len(self.coeffs) < 2:
            return hash(sum(self.coeffs))  # a constant hashes as the int it equals
        return hash((self.lo, self.coeffs))

    def __add__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else shifted_sum(((0, self), (0, other)))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.lo, tuple(map(neg, self.coeffs)))

    def __sub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else shifted_sum(((0, self),), ((0, other),))

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else shifted_sum(((0, other),), ((0, self),))

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        lo = self.lo + other.lo
        if len(a) > 1:
            return _poly(lo, _kronecker(a, b))
        c = a[0]  # a monomial: shift the exponents
        return _poly(lo, b if c == 1 else tuple(map(c.__mul__, b)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly powers must be nonnegative integers")
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self):
        """The bar involution v -> v^-1."""
        return _poly(-self.max_exp(), self.coeffs[::-1])

    def inflate(self, k):
        """Substitute v -> v^k (k a positive integer)."""
        if not isinstance(k, int) or k <= 0:
            raise ValueError("inflate expects a positive integer")
        out = [0] * (k * len(self.coeffs) - k + 1)  # [] for zero
        out[::k] = self.coeffs
        return _poly(k * self.lo, tuple(out))

    def max_exp(self):
        return self.lo + len(self.coeffs) - 1 if self.coeffs else 0

    def coeff(self, e):
        i = e - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def specialize_sqrtq(self, q):
        """Evaluate at v = sqrt(q), exactly, as a QSqrt."""
        from .qsqrt import QSqrt

        k, odd = divmod(self.lo, 2)  # v^lo = q^k v^odd
        a = b = 0  # Horner over ints: (a + b v) v + c = (b q + c) + a v
        for c in reversed((0,) * odd + self.coeffs):
            a, b = b * q + c, a
        n = q ** abs(k)
        return QSqrt(q, a * n, b * n) if k >= 0 else QSqrt(q, a, b, n)

    def __repr__(self):
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            vs = "v" if e == 1 else f"v^{e}"
            parts.append(str(c) if e == 0 else vs if c == 1 else f"-{vs}" if c == -1 else f"{c}*{vs}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


_set_lo = LaurentPoly.lo.__set__
_set_coeffs = LaurentPoly.coeffs.__set__


def _poly(lo, coeffs):
    """A LaurentPoly on a coefficient tuple whose ends are nonzero."""
    out = object.__new__(LaurentPoly)
    _set_lo(out, lo)
    _set_coeffs(out, coeffs)
    return out


def _operand(other):
    """other as a LaurentPoly: a LaurentPoly as is, an int as a constant,
    anything else NotImplemented."""
    if type(other) is LaurentPoly:
        return other
    return LaurentPoly.const(other) if isinstance(other, int) else NotImplemented


def shifted_sum(plus, minus=()):
    """sum v^e f over the pairs (e, f) of plus, minus the same sum over minus.

    Every term enters one buffer by slices, and the buffer is trimmed once.
    """
    terms = [(e + f.lo, f.coeffs, op) for op, pairs in ((add, plus), (sub, minus))
             for e, f in pairs if f.coeffs]
    lo = min([t[0] for t in terms], default=0)
    out = [0] * (max([i + len(c) for i, c, _ in terms], default=lo) - lo)
    for i, c, op in terms:
        i -= lo
        out[i:i + len(c)] = map(op, out[i:i + len(c)], c)
    return _trim(lo, out)


def _trim(lo, out):
    """The LaurentPoly sum of out[i] v^(lo + i), its zero ends cut off."""
    i, j = 0, len(out)
    while i < j and not out[i]:
        i += 1
    while i < j and not out[j - 1]:
        j -= 1
    return _poly(lo + i, tuple(out[i:j])) if i < j else ZERO


def _kronecker(a, b):
    """The coefficient tuple of the product of two coefficient tuples.

    Two tuples that are zero at every odd index (polynomials in v^2)
    multiply as their even entries. Otherwise a Kronecker substitution
    (Harvey 2009): both tuples are read at v = 2^w (_packed), the two ints
    multiply, and the product's slots are read back (_unpacked). A product
    coefficient sums at most min(len a, len b) products, so its size is at
    most max|a| max|b| min(len a, len b), and w is the width that holds it
    (_slot_bytes).
    """
    if not any(a[1::2]) and not any(b[1::2]):
        out = [0] * (len(a) + len(b) - 1)
        out[::2] = _kronecker(a[::2], b[::2])
        return tuple(out)
    nb = _slot_bytes(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    n = len(a) + len(b) - 1
    h = _half(nb, n)
    x = _packed(a, nb, h >> 8 * nb * (len(b) - 1)) * _packed(b, nb, h >> 8 * nb * (len(a) - 1))
    return _unpacked(x, nb, n, h)


def _slot_bytes(m):
    """The bytes of a slot that holds every coefficient of size at most m and
    a sign bit: 8 below 2^63, else the fewest whole bytes."""
    return max(8, (m.bit_length() + 8) >> 3)


def _half(nb, n):
    """2^(8 nb - 1) in each of n slots of nb bytes."""
    return int.from_bytes((b"\0" * (nb - 1) + b"\x80") * n, "little")


def _packed(t, nb, h):
    """The Kronecker image sum t[i] 2^(8 nb i) of a coefficient tuple.

    Packed two's complement slots XOR H, minus H, give the image, where
    h = _half(nb, len(t)) has 2^(w-1) in every slot of w = 8 nb bits.
    """
    if nb == 8:
        s = pack("<%dq" % len(t), *t)
    else:
        s = b"".join([c.to_bytes(nb, "little", signed=True) for c in t])
    return (int.from_bytes(s, "little") ^ h) - h


def _unpacked(x, nb, n, h):
    """The n coefficients c[i] of an image x = sum c[i] 2^(8 nb i) whose
    every |c[i]| < 2^(8 nb - 1), and h = _half(nb, n).

    x + H has the digit c[i] + 2^(w-1) in [0, 2^w) in every slot, so no
    carry crosses a slot, and XOR H gives back the two's complement slots.
    One struct.unpack reads 8-byte slots; a wider slot is read by itself.
    """
    raw = ((x + h) ^ h).to_bytes(n * nb, "little")
    if nb == 8:
        return unpack("<%dq" % n, raw)
    return tuple([int.from_bytes(raw[i:i + nb], "little", signed=True) for i in range(0, n * nb, nb)])


def _decoded(x, nb, lo, step=1):
    """The LaurentPoly sum c[i] v^(lo + step i) of an image
    x = sum c[i] 2^(8 nb i) whose every |c[i]| < 2^(8 nb - 1).

    A top slot c[n-1] != 0 puts the bit length of |x| at w (n - 1) - 1 or
    more, so bit length // w + 2 slots hold every c[i]."""
    n = abs(x).bit_length() // (8 * nb) + 2
    out = [0] * (step * n - step + 1)
    out[::step] = _unpacked(x, nb, n, _half(nb, n))
    return _trim(lo, out)


ZERO = _poly(0, ())
ONE = _poly(0, (1,))
V = _poly(1, (1,))


# ---------------------------------------------------------------------------
# q-combinatorics: [n], [n]! and [n]!! with their ratios, [m choose r] and
# q-Pochhammer products
#
# qint, the factorial ratios and the binomial rows are memoized: their
# values are immutable LaurentPoly objects that the suites ask for at the
# same small indices thousands of times.

VMVI = V - LaurentPoly.v_pow(-1)  # v - v^-1


def comb2(m):
    """The binomial coefficient m choose 2, for any integer m."""
    return m * (m - 1) // 2


@lru_cache(maxsize=None)
def qint(r):
    """Balanced quantum integer [r] = (v^r - v^-r)/(v - v^-1)."""
    if r < 0:
        return -qint(-r)
    return LaurentPoly({e: 1 for e in range(r - 1, -r, -2)})


def _fill_ratios(memo, lo, hi, step):
    """[lo+step][lo+2 step]...[hi], one product per step past the memo.

    memo[0] lists the factorials [0]!, [1]!, [2]!, ... (for step 2 the
    double factorials [0]!!, [2]!!, ...) up to the largest hi asked for,
    which every suite shares.
    memo[lo] for lo > 0 is (top, the ratio up to top) for the last top
    asked for at lo: a larger hi extends it, and a smaller one is
    multiplied out from 1 and replaces it, as keeping every ratio up to a
    largest hi d would hold some d^2/2 polynomials.
    """
    if lo == 0:
        row = memo.setdefault(0, [ONE])
        while len(row) <= hi // step:
            row.append(row[-1] * qint(len(row) * step))
        return row[hi // step]
    top, out = memo.get(lo, (lo, ONE))
    if hi < top:
        top, out = lo, ONE
    for k in range(top + step, hi + 1, step):
        out = out * qint(k)
    memo[lo] = hi, out
    return out


_QFACT_RATIOS = {}
_QDFACT_RATIOS = {}


def qfact_ratio(lo, hi):
    """[hi]! / [lo]! = [lo+1][lo+2]...[hi] for 0 <= lo <= hi."""
    if not 0 <= lo <= hi:
        raise ValueError("qfact_ratio needs 0 <= lo <= hi")
    return _fill_ratios(_QFACT_RATIOS, lo, hi, 1)


def qfact(n):
    """[n]! for n >= 0."""
    if n < 0:
        raise ValueError("qfact needs n >= 0")
    return qfact_ratio(0, n)


def qdfact_ratio(lo, hi):
    """[hi]!! / [lo]!! = [lo+2][lo+4]...[hi] for even 0 <= lo <= hi."""
    if lo % 2 or hi % 2 or not 0 <= lo <= hi:
        raise ValueError("qdfact_ratio needs even 0 <= lo <= hi")
    return _fill_ratios(_QDFACT_RATIOS, lo, hi, 2)


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


def pochhammer(e, n, sign=1):
    """(sign v^e; v^e)_n = prod_{j=1}^n (1 - sign v^(j e)), sign 1 or -1,
    each factor taken as a two-term shifted_sum."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    if sign not in (1, -1):
        raise ValueError("pochhammer needs sign 1 or -1")
    out = ONE
    for j in range(1, n + 1):  # out (1 - sign v^(j e)) = out - sign v^(j e) out
        term = [(j * e, out)]
        out = shifted_sum([(0, out)] + term) if sign < 0 else shifted_sum([(0, out)], term)
    return out


# ---------------------------------------------------------------------------
# T, T1 and the identities they reduce to
#
# The largest bounds `ihall identities` runs to. Each family's cost grows as
# about the fifth to eighth power of its bound: on a 2-vCPU VM the p
# families take 6-8 s at pmax 64, kmrd 1.6 s at dmax 32 and the T suite
# 5-7 s at amax 24 (12-16 s and 65 MB in one run), so twice a bound would
# multiply a family's time by 30 to 250.

CEILING = {"pmax": 64, "dmax": 32, "amax": 24}


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
    coefficients; w holds it (_slot_bytes), so no slot carries and the
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
    return shifted_sum([(0, total)], [(-p * (p + 1) // 2, pochhammer(2, p, sign=-1))])


def km5_residual(p):
    """sum_k v^(-k(p-k+1)) [p choose k]  minus  prod_{j=1}^p (1 + v^-j),
    the product being (-v^-1; v^-1)_p."""
    return _qbinom_sum(p, lambda k: -k * (p - k + 1)) - pochhammer(-1, p, sign=-1)


def _kmrd_groups(d):
    """The s groups of kmrd_residual(d) as (exponent, polynomial) at
    s = 0 .. d, each without its sign (-1)^(d-s) and the common [2d]!!."""
    # [2d]!!/[2s]!! and S(s) step their exponents by 2, so their product
    # is taken on half-length tuples (_kronecker) before [d]!/[d-s]!
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
    return _qbinom_sum(p, lambda t: -(p + 1) * t, alternating=True) - pochhammer(-2, p)


def qbinom_high_residual(p):
    """sum_t (-1)^t v^((p+1)t) [p choose t]  minus  (v^2; v^2)_p."""
    return _qbinom_sum(p, lambda t: (p + 1) * t, alternating=True) - pochhammer(2, p)


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


def __getattr__(name):
    # PEP 562: QSqrt lives in qsqrt; the benchmark's tracer
    # (perfbench/spans.py) still reads it as ring.QSqrt
    if name != "QSqrt":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .qsqrt import QSqrt

    return QSqrt
