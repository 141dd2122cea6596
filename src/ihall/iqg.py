"""Serre-type presentation checks and supporting q-identities.

The generators B_i, ktilde_i of the universal presentation are mapped into a
Hall algebra (simples and torus elements with parity- and orbit-dependent
normalizations); every defining relation then becomes an element that must
vanish identically. Relations with denominators are multiplied through so
each check is a plain zero test.

The second half holds the pure q-series side: the triple-sum values T and
T1 and the factorial/binomial identities they reduce to, all over exact
Laurent polynomials. Each sum is taken in one pass: its terms v^e f go
into one buffer (ring.shifted_sum), T and T1 come out of one shared
evaluation per triple (each (k, m) group's terms of even and odd n are
summed once and multiplied by the group's cofactor once), and kmrd sums
its terms over m before it multiplies each k group by [2d]!!/[2k]!!.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .ring import (
    VMVI,
    LaurentPoly,
    QSqrt,
    comb2,
    pochhammer,
    qbinom,
    qdfact,
    qdfact_ratio,
    qfact,
    qfact_dfact_cofactor,
    qfact_ratio,
    shifted_sum,
)

# ---------------------------------------------------------------------------
# generators under the Hall-algebra embedding
# ---------------------------------------------------------------------------


class Psi:
    """The images of B_j and ktilde_i inside one Hall algebra."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.iq = algebra.iq
        self.reps = frozenset(self.iq.i_tau)
        self._bdp_cache = {}

    def B(self, j):
        h = self.algebra
        s = h.simple(j)
        if j in self.reps:
            return s.scale(QSqrt(h.q, -1, 0, h.q - 1))
        return s.scale(h.v_pow(1) * QSqrt(h.q, 1, 0, h.q - 1))

    def K(self, i):
        h = self.algebra
        k = h.torus_k(i)
        if self.iq.tau[i] == i:
            return k.scale(QSqrt(h.q, -1, 0, h.q))
        c = self.iq.cartan_vv(i, self.iq.tau[i])
        if c % 2:
            raise ValueError("odd Cartan pairing between a swapped pair")
        return k.scale(h.v_pow(-c // 2))

    def BDP(self, i, n, parity=None):
        """Image of the (parity-)divided power of B_i."""
        key = (i, n, parity)
        if key in self._bdp_cache:
            return self._bdp_cache[key]
        from .idp import idp_hall

        h = self.algebra
        fixed = self.iq.tau[i] == i
        base = idp_hall(h, i, n, parity if fixed else None)
        if fixed or i in self.reps:
            scal = QSqrt(h.q, 1, 0, (1 - h.q) ** n)
        else:
            scal = h.v_pow(n) * QSqrt(h.q, 1, 0, (h.q - 1) ** n)
        out = base.scale(scal)
        self._bdp_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# the relation suite
# ---------------------------------------------------------------------------


class RelationInstance(NamedTuple):
    kind: str  # torus-torus | torus-b | commute | serre | pair | fixed-serre
    i: str
    j: Optional[str]
    parity: Optional[int]
    label: str


def build_relation_suite(iq, parities=(0, 1)):
    """Every defining relation instance for one iquiver.

    torus-torus / torus-b cover the weight relations; commute the c = 0
    case between non-partner vertices; serre the classical Serre relation
    at a non-fixed vertex; pair the relation binding a swapped pair; and
    fixed-serre the parity pair of relations at a tau-fixed vertex.
    """
    if not iq.is_virtually_acyclic():
        raise ValueError(
            "the presentation check is defined for virtually acyclic iquivers"
        )
    out = []
    verts = iq.vertices
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            i, l = verts[a], verts[b]
            out.append(
                RelationInstance(
                    "torus-torus", i, l, None, "k(%s) k(%s) commute" % (i, l)
                )
            )
    for i in verts:
        for l in verts:
            out.append(
                RelationInstance(
                    "torus-b", i, l, None, "k(%s) past B(%s)" % (i, l)
                )
            )
    for i in verts:
        ti = iq.tau[i]
        for j in verts:
            if j == i:
                continue
            c = iq.cartan_vv(i, j)
            if ti == i:
                for parity in parities:
                    out.append(
                        RelationInstance(
                            "fixed-serre",
                            i,
                            j,
                            parity,
                            "fixed serre i=%s j=%s parity=%d" % (i, j, parity),
                        )
                    )
            elif j == ti:
                out.append(
                    RelationInstance("pair", i, j, None, "pair relation i=%s" % i)
                )
            elif c == 0:
                if verts.index(i) < verts.index(j):
                    out.append(
                        RelationInstance(
                            "commute", i, j, None, "B(%s) B(%s) commute" % (i, j)
                        )
                    )
            else:
                out.append(
                    RelationInstance(
                        "serre", i, j, None, "serre i=%s j=%s" % (i, j)
                    )
                )
    return out


def _serre_sum(psi, i, j, c, parity=None):
    """sum_n (-1)^n B_i^(n) B_j B_i^(1-c-n), n = 0 .. 1-c.

    With a parity, the left divided powers take it and the right ones take
    (parity + c) mod 2.
    """
    rpar = None if parity is None else (parity + c) % 2
    bj = psi.B(j)
    out = psi.algebra.zero()
    for n in range(0, 1 - c + 1):
        term = psi.BDP(i, n, parity) * bj * psi.BDP(i, 1 - c - n, rpar)
        out = out + (term if n % 2 == 0 else -term)
    return out


def relation_residual(algebra, inst, psi=None):
    """The relation instance evaluated in the Hall algebra; zero iff it holds."""
    psi = psi or Psi(algebra)
    iq = algebra.iq
    kind = inst.kind
    if kind == "torus-torus":
        ki, kl = psi.K(inst.i), psi.K(inst.j)
        return ki * kl - kl * ki
    if kind == "torus-b":
        ki, bl = psi.K(inst.i), psi.B(inst.j)
        e = iq.cartan_vv(iq.tau[inst.i], inst.j) - iq.cartan_vv(inst.i, inst.j)
        return ki * bl - (bl * ki).scale(algebra.v_pow(e))
    if kind == "commute":
        bi, bj = psi.B(inst.i), psi.B(inst.j)
        return bi * bj - bj * bi
    if kind in ("serre", "fixed-serre"):
        c = iq.cartan_vv(inst.i, inst.j)
        return _serre_sum(psi, inst.i, inst.j, c, inst.parity)
    if kind == "pair":
        i, ti = inst.i, iq.tau[inst.i]
        c = iq.cartan_vv(i, ti)
        lhs = _serre_sum(psi, i, ti, c)
        # multiplied through by (v - v^-1) to stay polynomial
        res = lhs.scale(algebra.scalar(VMVI))
        mid = psi.BDP(i, -c)
        res = res - (mid * psi.K(i)).scale(
            algebra.scalar(LaurentPoly.v_pow(c) * pochhammer(-2, -2, -c))
        )
        res = res + (mid * psi.K(ti)).scale(
            algebra.scalar(pochhammer(2, 2, -c))
        )
        return res
    raise ValueError("unknown relation kind %r" % (kind,))


def verify_presentation(algebra, parities=(0, 1)):
    """Run the whole suite; returns a list of (label, residual) pairs."""
    psi = Psi(algebra)
    suite = build_relation_suite(algebra.iq, parities)
    return [(inst.label, relation_residual(algebra, inst, psi)) for inst in suite]


# ---------------------------------------------------------------------------
# the q-series side: T, T1 and the identities they reduce to
# ---------------------------------------------------------------------------


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


def run_identity_suites(pmax=12, dmax=12):
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


def run_t_suite(amax=8):
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
