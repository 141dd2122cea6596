"""Exact scalar arithmetic over Z: Laurent polynomials in v.

Every q-coefficient lies in Z[v, v^-1], so a LaurentPoly holds int
coefficients only, as a dense tuple from its lowest exponent; any other
coefficient (a Fraction, a float) raises TypeError.  Laurent polynomials
multiply through one kernel, a Kronecker substitution into a single big-int
product (_kronecker).  The Kronecker image of a coefficient tuple, the
tuple read at v = 2^w as one int, has its one home here: _slot_bytes sets
the width w (one 64-bit word, or past 2^63 the fewest whole bytes that
hold a coefficient and its sign), _packed maps a tuple to its image, and
_unpacked (or _decoded, to a LaurentPoly) maps it back; `qseries` takes the
T sums on images too.
There is no division: every quotient the program needs is a product (a
factorial ratio, a q-Pochhammer product) or a q-Pascal sum, all in the ring
Z[v, v^-1].  Every sum, + and - included, adds its shifted terms v^e f into
one buffer (shifted_sum).  An operand is a LaurentPoly or an int (a
constant) for every operator.  Equality is structural, and a constant
hashes as the int it equals.  No floats anywhere.

Of the commands only `identities` loads this module: the Hall-side
commands take their scalars at v = sqrt(q) as QSqrt numbers, which `qsqrt`
builds from ints.  It holds what the identity suites, the symbolic oracles
and the tests share: LaurentPoly, [n], [n]! and q-Pochhammer products.  The
tests check the QSqrt values against these forms at v = sqrt(q).  The rest
of the q-combinatorics lives in `qseries`, for the identity suites and the
oracles (which take qbinom, qdfact, comb2 and p_exponent from it).
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
# quantum integers, factorials and q-Pochhammer products
#
# qint and the factorial ratios behind qfact are memoized: their values are
# immutable LaurentPoly objects asked for at the same small indices again
# and again.

VMVI = V - LaurentPoly.v_pow(-1)  # v - v^-1


@lru_cache(maxsize=None)
def qint(r):
    """Balanced quantum integer [r] = (v^r - v^-r)/(v - v^-1)."""
    if r < 0:
        return -qint(-r)
    return LaurentPoly({e: 1 for e in range(r - 1, -r, -2)})


def fill_ratios(memo, lo, hi, step):
    """[lo+step][lo+2 step]...[hi]. memo[lo] is (top, the ratio up to top)
    for the last top asked for at lo: a larger hi extends it, one product
    per step, and a smaller one is multiplied out from 1 and replaces it."""
    top, out = memo.get(lo, (lo, ONE))
    if hi < top:
        top, out = lo, ONE
    for k in range(top + step, hi + 1, step):
        out = out * qint(k)
    memo[lo] = hi, out
    return out


_QFACT_RATIOS = {}


def qfact_ratio(lo, hi):
    """[hi]! / [lo]! = [lo+1][lo+2]...[hi] for 0 <= lo <= hi."""
    if not 0 <= lo <= hi:
        raise ValueError("qfact_ratio needs 0 <= lo <= hi")
    return fill_ratios(_QFACT_RATIOS, lo, hi, 1)


def qfact(n):
    """[n]! for n >= 0."""
    if n < 0:
        raise ValueError("qfact needs n >= 0")
    return qfact_ratio(0, n)


def pochhammer(e_a, e_x, n, sign=1):
    """(a; x)_n = prod_{j=0}^{n-1} (1 - a x^j) with a = sign v^e_a, x = v^e_x,
    sign 1 or -1, each factor taken as a two-term shifted_sum."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    if sign not in (1, -1):
        raise ValueError("pochhammer needs sign 1 or -1")
    out = ONE
    for j in range(n):  # out (1 - sign v^e) = out - sign v^e out
        term = [(e_a + j * e_x, out)]
        out = shifted_sum([(0, out)] + term) if sign < 0 else shifted_sum([(0, out)], term)
    return out


def __getattr__(name):
    # PEP 562: QSqrt lives in qsqrt; the benchmark's tracer
    # (perfbench/spans.py) still reads it as ring.QSqrt
    if name != "QSqrt":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .qsqrt import QSqrt

    return QSqrt
