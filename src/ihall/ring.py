"""Exact scalar arithmetic: Laurent polynomials over Z and Q(sqrt(q)).

Every q-coefficient lies in Z[v, v^-1], so a LaurentPoly holds int
coefficients only: an integral Fraction is stored as its int, and a
non-integral Fraction raises TypeError, as a float does.  Laurent polynomials
multiply through one kernel, a Kronecker substitution into a single big-int
product (_kronecker).  One long division over Z (_poly_divmod) serves
exact_div and the gcd of the Q(v) oracle; each of its steps must divide
exactly, else it raises ExactDivisionError.  QSqrt keeps rational parts,
since Q(sqrt(q)) needs them, in the normal form of _norm, and divides them
through the exact helper _div.  Equality is structural.  No floats anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _norm(c):
    """An exact scalar in normal form: int if integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


def _div(a, b):
    """a / b for normal-form scalars, exactly; never a float."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        if not rem:
            return quot
    return _norm(Fraction(a, b))


def _qpow(q, k):
    """q^k for an int q and any integer k, exactly."""
    return q ** k if k >= 0 else Fraction(1, q ** -k)


class LaurentPoly:
    """Laurent polynomial in v with integer coefficients.

    Stored as a dict {exponent: coefficient} with all coefficients nonzero
    ints, so equality and hashing are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _norm(c)
                if type(c) is not int:
                    raise TypeError(f"{c!r} is not an integer coefficient")
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def v_pow(cls, e):
        return cls({e: 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for e, c in b.items():
            s = get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        if len(a) == 1:  # a monomial: shift the exponents
            ((e0, c0),) = a.items()
            return _trusted({e + e0: c * c0 for e, c in b.items()})
        return _trusted(_kronecker(a, b))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly powers must be nonnegative integers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self):
        """The bar involution v -> v^-1."""
        return _trusted({-e: c for e, c in self.terms.items()})

    def inflate(self, k):
        """Substitute v -> v^k (k a positive integer)."""
        if not isinstance(k, int) or k <= 0:
            raise ValueError("inflate expects a positive integer")
        return _trusted({e * k: c for e, c in self.terms.items()})

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def coeff(self, e):
        return self.terms.get(e, 0)

    def _as_coeff_list(self):
        # (lowest exponent, dense coefficient list from that exponent up)
        if not self.terms:
            return 0, [0]
        lo, hi = self.min_exp(), self.max_exp()
        coeffs = [0] * (hi - lo + 1)
        for e, c in self.terms.items():
            coeffs[e - lo] = c
        return lo, coeffs

    def exact_div(self, other):
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return ZERO
        lo_n, num = self._as_coeff_list()
        lo_d, den = other._as_coeff_list()
        quot, rem = _poly_divmod(num, den)
        if any(rem):
            raise ExactDivisionError("nonzero remainder in exact polynomial division")
        return _trusted({lo_n - lo_d + i: c for i, c in enumerate(quot) if c})

    def specialize_sqrtq(self, q):
        """Evaluate at v = sqrt(q), exactly, as a QSqrt."""
        parts = [0, 0]  # v^(2k) -> q^k, v^(2k+1) -> q^k sqrt(q)
        for e, c in self.terms.items():
            k, odd = divmod(e, 2)
            parts[odd] += c * _qpow(q, k)
        return QSqrt(q, *parts)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                mon = str(c)
            else:
                vs = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    mon = vs
                elif c == -1:
                    mon = f"-{vs}"
                else:
                    mon = f"{c}*{vs}"
            parts.append(mon)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _trusted(terms):
    """A LaurentPoly on a dict that is already clean: nonzero int coefficients."""
    out = object.__new__(LaurentPoly)
    object.__setattr__(out, "terms", terms)
    return out


def _kronecker(a, b):
    """The product of two integer term dicts, each with at least two terms.

    Kronecker substitution: with g the gcd of the offsets e - lo of both
    dicts, a is read as v^lo_a A(v^g) and b as v^lo_b B(v^g), and A and B
    are evaluated at x = 2^w, so one big-int product gives (AB)(2^w). A
    coefficient of AB is a sum of at most min(len a, len b) products, so its
    absolute value is at most m = max|a| * max|b| * min(len a, len b). The
    slot width w is m.bit_length() + 1 rounded up to whole bytes, which makes
    every coefficient strictly less than 2^(w-1) in absolute value: each slot
    then holds a balanced digit, and adding 2^(w-1) to every slot turns
    (AB)(2^w) into plain base-2^w digits, read back from its bytes. No carry
    crosses a slot, so the unpacking is exact.
    """
    lo_a, lo_b = min(a), min(b)
    g = gcd(*[e - lo_a for e in a], *[e - lo_b for e in b])
    m = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    nb = (m.bit_length() + 8) >> 3  # bytes per slot: at least bit_length + 1 bits
    half = 1 << ((nb << 3) - 1)
    half_slot = half.to_bytes(nb, "little")

    def pack(terms, lo):
        n = (max(terms) - lo) // g + 1
        slots = [half] * n  # every slot offset by half, so all are nonnegative
        for e, c in terms.items():
            slots[(e - lo) // g] = c + half
        packed = int.from_bytes(b"".join([c.to_bytes(nb, "little") for c in slots]), "little")
        return packed - int.from_bytes(half_slot * n, "little"), n

    x, n_a = pack(a, lo_a)
    y, n_b = pack(b, lo_b)
    n = n_a + n_b - 1
    size = n * nb
    raw = (x * y + int.from_bytes(half_slot * n, "little")).to_bytes(size, "little")
    lo = lo_a + lo_b
    digits = [int.from_bytes(raw[i:i + nb], "little") for i in range(0, size, nb)]
    return {lo + g * i: d - half for i, d in enumerate(digits) if d != half}


def _poly_divmod(num, den):
    """(quotient, remainder) of dense int coefficient lists, low degree first.

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


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})


class QSqrt:
    """Exact number a + b*sqrt(q) with a, b rational, in the normal form of _norm.

    If q happens to be a perfect square s^2 the sqrt part folds into the
    rational part at construction, so equality stays structural.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q, a=0, b=0):
        if not isinstance(q, int) or q < 1:
            raise ValueError("q must be a positive integer")
        a, b = _norm(a), _norm(b)
        s = isqrt(q)
        if s * s == q and b:
            a, b = _norm(a + b * s), 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt is immutable")

    @classmethod
    def v_pow(cls, q, e):
        """sqrt(q)^e for any integer exponent e."""
        k, odd = divmod(e, 2)
        if odd:
            return cls(q, 0, _qpow(q, k))
        return cls(q, _qpow(q, k))

    def is_zero(self):
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def _coerce(self, other):
        if isinstance(other, QSqrt):
            if other.q != self.q:
                raise ValueError(f"mixing sqrt({self.q}) with sqrt({other.q})")
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt(self.q, other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt(self.q, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt(self.q, -self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt(
            self.q,
            self.a * other.a + self.b * other.b * self.q,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self):
        den = self.a * self.a - self.b * self.b * self.q
        if not den:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            # a^2 = b^2 q with b != 0 forces q to be a perfect square,
            # which construction folds away; unreachable but kept honest.
            raise ZeroDivisionError("inverse of zero divisor")
        return QSqrt(self.q, _div(self.a, den), _div(-self.b, den))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __repr__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt({self.q})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.q})"


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
def qbinom(m, r):
    """Quantum binomial [m choose r]; m may be any integer, zero for r < 0."""
    if r < 0:
        return ZERO
    num = ONE
    for j in range(r):
        num = num * qint(m - j)
    return num.exact_div(qfact(r))


def pochhammer(e_a, e_x, n):
    """(a; x)_n = prod_{j=0}^{n-1} (1 - a x^j) with a = v^e_a, x = v^e_x."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = ONE
    for j in range(n):
        out = out * (ONE - LaurentPoly.v_pow(e_a + j * e_x))
    return out
