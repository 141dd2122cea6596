"""Exact scalar arithmetic over Z: Laurent polynomials in v and (a + b*sqrt(q))/d.

Every q-coefficient lies in Z[v, v^-1], so a LaurentPoly holds int
coefficients only, as a dense tuple from its lowest exponent; any other
coefficient (a Fraction, a float) raises TypeError.  Laurent polynomials
multiply through one kernel, a Kronecker substitution into a single big-int
product (_kronecker).  One long division over Z (_poly_divmod) serves
exact_div and the gcd of the Q(v) oracle; each of its steps must divide
exactly, else it raises ExactDivisionError.  Every sum, + and - included,
adds its shifted terms v^e f into one buffer (shifted_sum).  An operand is
a LaurentPoly or an int (a constant) for every operator.  A QSqrt
holds three ints a, b and d in lowest terms, so every scalar operation is
int arithmetic and one gcd; only its repr prints fractions.  Equality is
structural, and a constant hashes as the int or Fraction it equals.  No
floats anywhere.
"""

from functools import lru_cache
from math import gcd, isqrt
from operator import add, index, neg, sub
from struct import pack, unpack
from sys import hash_info


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


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

    def min_exp(self):
        return self.lo

    def max_exp(self):
        return self.lo + len(self.coeffs) - 1 if self.coeffs else 0

    def coeff(self, e):
        i = e - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def exact_div(self, other):
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        divisor = _operand(other)
        if divisor is NotImplemented:
            raise TypeError(f"cannot divide a LaurentPoly by a {type(other).__name__}")
        if not divisor.coeffs:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self.coeffs:
            return ZERO
        quot, rem = _poly_divmod(self.coeffs, divisor.coeffs)
        if any(rem):
            raise ExactDivisionError("nonzero remainder in exact polynomial division")
        # an exact quotient's ends are the ratios of the ends: both nonzero
        return _poly(self.lo - divisor.lo, tuple(quot))

    def specialize_sqrtq(self, q):
        """Evaluate at v = sqrt(q), exactly, as a QSqrt."""
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
    (Harvey 2009) in slots of w = 8 * nb bits: a product coefficient sums at
    most min(len a, len b) products, so its size is at most
    m = max|a| max|b| min(len a, len b), and w is 64 if m < 2^63, else the
    whole bytes that hold m and a sign bit. H has 2^(w-1) in every slot:
    packed two's complement slots XOR H, minus H, give A(2^w), and
    (AB)(2^w) + H has the digit c + 2^(w-1) in [0, 2^w) in every slot, so no
    carry crosses a slot; XOR H gives back the two's complement slots.
    """
    if not any(a[1::2]) and not any(b[1::2]):
        out = [0] * (len(a) + len(b) - 1)
        out[::2] = _kronecker(a[::2], b[::2])
        return tuple(out)
    m = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nb = 8 if m < 1 << 63 else (m.bit_length() + 8) >> 3
    n = len(a) + len(b) - 1
    h = int.from_bytes((b"\0" * (nb - 1) + b"\x80") * n, "little")
    ha, hb = h >> 8 * nb * (len(b) - 1), h >> 8 * nb * (len(a) - 1)
    raw = ((_packed(a, nb, ha) * _packed(b, nb, hb) + h) ^ h).to_bytes(n * nb, "little")
    if nb == 8:
        return unpack("<%dq" % n, raw)
    return tuple([int.from_bytes(raw[i:i + nb], "little", signed=True) for i in range(0, n * nb, nb)])


def _packed(t, nb, h):
    """sum t[i] 2^(8 nb i): t's two's complement nb-byte slots XOR h, minus h."""
    if nb == 8:
        s = pack("<%dq" % len(t), *t)
    else:
        s = b"".join([c.to_bytes(nb, "little", signed=True) for c in t])
    return (int.from_bytes(s, "little") ^ h) - h


def _poly_divmod(num, den):
    """(quotient, remainder) of dense int coefficient sequences, low degree first.

    Long division over Z by den, whose last coefficient is nonzero: each step
    divides a leading coefficient by den's and raises ExactDivisionError when
    that leaves a remainder. The remainder has at most len(den) - 1 entries.
    """
    rem = list(num)
    dd = len(den) - 1
    lead = den[dd]
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd]
        if c:
            f, r = divmod(c, lead)
            if r:
                raise ExactDivisionError(f"{c} is not divisible by {lead}")
            quot[i] = f
            for j in range(dd + 1):
                rem[i + j] -= f * den[j]
    return quot, rem[:dd]


ZERO = _poly(0, ())
ONE = _poly(0, (1,))
V = _poly(1, (1,))


class QSqrt:
    """Exact number (a + b*sqrt(q)) / d with ints a, b and d.

    d > 0 and gcd(a, b, d) = 1, and if q is a perfect square s^2 the sqrt
    part folds into a at construction, so equality stays structural; it
    is False across different q, and a value with b = 0 hashes as the
    rational a/d. The parts a and b may be given as any rationals with a
    numerator and a denominator (ints, Fractions); a float raises TypeError.
    """

    __slots__ = ("q", "a", "b", "d")

    def __new__(cls, q, a=0, b=0, d=1):
        if not isinstance(q, int) or q < 1:
            raise ValueError("q must be a positive integer")
        try:
            a, b, d = (a.numerator * b.denominator, b.numerator * a.denominator,
                       d * a.denominator * b.denominator)
        except AttributeError:
            raise TypeError("QSqrt parts must be rationals") from None
        s = isqrt(q)
        if s * s == q:
            a, b = a + b * s, 0
        if not d:
            raise ZeroDivisionError("QSqrt with denominator zero")
        return _qsqrt(q, a, b, d)

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt is immutable")

    @classmethod
    def v_pow(cls, q, e):
        """sqrt(q)^e for any integer exponent e."""
        return LaurentPoly.v_pow(e).specialize_sqrtq(q)

    def is_zero(self):
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def _coerce(self, other):
        if type(other) is not QSqrt:
            try:
                return QSqrt(self.q, other)
            except TypeError:
                return None
        if other.q != self.q:
            raise ValueError(f"mixing sqrt({self.q}) with sqrt({other.q})")
        return other

    def __eq__(self, other):
        if type(other) is QSqrt and other.q != self.q:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b:
            return hash((self.q, self.a, self.b, self.d))
        # as the int or Fraction a/d hashes: a times 1/d modulo the hash prime
        try:
            return hash(self.a * pow(self.d, -1, hash_info.modulus))
        except ValueError:  # d is a multiple of the prime
            return hash_info.inf if self.a > 0 else -hash_info.inf

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        return _qsqrt(self.q, self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _qsqrt(self.q, -self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, o.a, o.b
        return _qsqrt(self.q, a * c + b * e * self.q, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self):
        a, b = self.a, self.b
        den = a * a - b * b * self.q  # nonzero unless self is: a square q is folded
        if not den:
            raise ZeroDivisionError("inverse of zero")
        return _qsqrt(self.q, a * self.d, -b * self.d, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __repr__(self):
        a, b = _frac(self.a, self.d), _frac(self.b, self.d)
        if not self.b:
            return a
        if not self.a:
            return f"{b}*sqrt({self.q})"
        return f"{a} {'+' if self.b > 0 else '-'} {b.lstrip('-')}*sqrt({self.q})"


_set_q, _set_a, _set_b, _set_d = (getattr(QSqrt, k).__set__ for k in QSqrt.__slots__)


def _qsqrt(q, a, b, d):
    """The QSqrt (a + b*sqrt(q)) / d for ints with d != 0, in lowest terms."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    out = object.__new__(QSqrt)
    _set_q(out, q)
    _set_a(out, a // g)
    _set_b(out, b // g)
    _set_d(out, d // g)
    return out


def _frac(n, d):
    """n/d in lowest terms as a Fraction prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


# ---------------------------------------------------------------------------
# quantum combinatorics
#
# qint, qbinom, the factorial ratios behind qfact and qdfact and the cleared
# factor of the T sums are memoized: their values are immutable LaurentPoly
# objects, and the identity suites ask for the same small indices thousands
# of times.

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


@lru_cache(maxsize=None)
def qfact_ratio(lo, hi):
    """[hi]! / [lo]! = [lo+1][lo+2]...[hi] for 0 <= lo <= hi."""
    if not 0 <= lo <= hi:
        raise ValueError("qfact_ratio needs 0 <= lo <= hi")
    if hi == lo:
        return ONE
    return qfact_ratio(lo, hi - 1) * qint(hi)


@lru_cache(maxsize=None)
def qdfact_ratio(lo, hi):
    """[hi]!! / [lo]!! = [lo+2][lo+4]...[hi] for even 0 <= lo <= hi."""
    if lo % 2 or hi % 2 or not 0 <= lo <= hi:
        raise ValueError("qdfact_ratio needs even 0 <= lo <= hi")
    if hi == lo:
        return ONE
    return qdfact_ratio(lo, hi - 2) * qint(hi)


@lru_cache(maxsize=None)
def qfact_dfact_cofactor(r, d, k, m, kk):
    """[d]!/[r]! * [2kk]!!/[2k]!! * [2kk]!!/[2m]!!.

    The factor that clears the denominators [r]! [2k]!! [2m]!! of one group
    of terms of the T sums against their common multiple [d]! [2kk]!! [2kk]!!;
    T and T1 share it, across every u.
    """
    return qfact_ratio(r, d) * qdfact_ratio(2 * k, 2 * kk) * qdfact_ratio(2 * m, 2 * kk)


def qfact(n):
    """[n]! for n >= 0."""
    if n < 0:
        raise ValueError("qfact needs n >= 0")
    return qfact_ratio(0, n)


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


def pochhammer(e_a, e_x, n, sign=1):
    """(a; x)_n = prod_{j=0}^{n-1} (1 - a x^j) with a = sign v^e_a, x = v^e_x,
    sign 1 or -1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    if sign not in (1, -1):
        raise ValueError("pochhammer needs sign 1 or -1")
    out = ONE
    for j in range(n):
        out = out * (ONE - _poly(e_a + j * e_x, (sign,)))
    return out
