"""Exact numbers (a + b*sqrt(q))/d over the ints: the scalars of a Hall algebra.

A QSqrt holds three ints a, b and d in lowest terms, so every scalar
operation is int arithmetic and one gcd; only its repr prints fractions.
Equality is structural, and a value with b = 0 hashes as the int or
Fraction it equals. No floats anywhere. Only the commands that build a
Hall algebra load this module; LaurentPoly.specialize_sqrtq imports it when
it is called.
"""

from math import gcd, isqrt
from sys import hash_info


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
        """sqrt(q)^e for any integer exponent e: q^k sqrt(q)^odd for
        e = 2k + odd, with q^-k as the denominator when k < 0."""
        k, odd = divmod(e, 2)
        n = q ** abs(k)
        return cls(q, (1 - odd) * n, odd * n) if k >= 0 else cls(q, 1 - odd, odd, n)

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
