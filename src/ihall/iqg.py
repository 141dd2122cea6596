"""Serre-type presentation checks.

The generators B_i, ktilde_i of the universal presentation are mapped into a
Hall algebra (B_i as its own first divided power, ktilde_i as a scaled
torus element); every defining relation then becomes an element that must
vanish identically, and each one between B_i and B_j, j not tau(i), is one
Serre sum. Relations with denominators are multiplied through so each check
is a plain zero test. Every scalar is a QSqrt at v = sqrt(q), built in
`qsqrt` from ints, so `ihall verify` loads no Laurent polynomial.

The q-series suites (T, T1 and the identities they reduce to) live in
`ring`, which `ihall verify` never loads. Their public names still
resolve here, on access only (`__getattr__` below), because the
benchmark's tracer (perfbench/spans.py) patches them by these names.
"""

from collections import namedtuple

from .qsqrt import QSqrt

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
        """B_j is its own first (parity-0) divided power."""
        return self.BDP(j, 1, 0 if self.iq.tau[j] == j else None)

    def K(self, i):
        """ktilde_i: off a fixed vertex, K_i times v^(-c/2) with c = c_{i,tau i},
        which is even on every iquiver, as tau pairs the arrows i -> tau i
        with the arrows tau i -> i; the pair relation needs an even c too."""
        h = self.algebra
        k = h.torus_k(i)
        if self.iq.tau[i] == i:
            return k.scale(QSqrt(h.q, -1, 0, h.q))
        return k.scale(h.v_pow(-self.iq.cartan_vv(i, self.iq.tau[i]) // 2))

    def BDP(self, i, n, parity=None):
        """Image of the (parity-)divided power of B_i."""
        key = (i, n, parity)
        if key in self._bdp_cache:
            return self._bdp_cache[key]
        from .idp import idp_hall

        h = self.algebra
        base = idp_hall(h, i, n, parity)
        # a fixed vertex is its own orbit's representative
        if i in self.reps:
            scal = QSqrt(h.q, 1, 0, (1 - h.q) ** n)
        else:
            scal = h.v_pow(n) * QSqrt(h.q, 1, 0, (h.q - 1) ** n)
        out = base.scale(scal)
        self._bdp_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# the relation suite
# ---------------------------------------------------------------------------


# kind is torus-torus | torus-b | commute | serre | pair | fixed-serre; j and
# parity may be None
RelationInstance = namedtuple("RelationInstance", "kind i j parity label")


def build_relation_suite(iq, parities=(0, 1)):
    """Every defining relation instance for one iquiver.

    torus-torus / torus-b cover the weight relations; serre the classical
    Serre relation at a non-fixed vertex, and commute its c = 0 case (one
    instance per unordered pair); pair the relation binding a swapped pair;
    and fixed-serre the parity pair of relations at a tau-fixed vertex.
    commute, serre and fixed-serre all evaluate as one Serre sum.
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

    At c = 0 this is B_j B_i - B_i B_j, the commutation relation.
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
    if kind in ("commute", "serre", "fixed-serre"):
        c = iq.cartan_vv(inst.i, inst.j)
        return _serre_sum(psi, inst.i, inst.j, c, inst.parity)
    if kind == "pair":
        # c = c_{i,tau i} is even (`Psi.K`), as the relation below needs
        i, ti = inst.i, iq.tau[inst.i]
        c = iq.cartan_vv(i, ti)
        lhs = _serre_sum(psi, i, ti, c)
        q = algebra.q
        # multiplied through by (v - v^-1) to stay polynomial
        res = lhs.scale(algebra.v_pow(1) - algebra.v_pow(-1))
        mid = psi.BDP(i, -c)
        res = res - (mid * psi.K(i)).scale(algebra.v_pow(c) * QSqrt.pochhammer(q, -2, -c))
        res = res + (mid * psi.K(ti)).scale(QSqrt.pochhammer(q, 2, -c))
        return res
    raise ValueError("unknown relation kind %r" % (kind,))


def verify_presentation(algebra, parities=(0, 1)):
    """Run the whole suite; returns a list of (label, residual) pairs."""
    psi = Psi(algebra)
    suite = build_relation_suite(algebra.iq, parities)
    return [(inst.label, relation_residual(algebra, inst, psi)) for inst in suite]


_QSERIES = frozenset((
    "p_exponent", "t_value", "t1_value", "adu_triples",
    "km1_residual", "km3_residual", "km5_residual", "kmrd_residual",
    "qbinom_alt_residual", "qbinom_low_residual", "qbinom_high_residual",
    "run_identity_suites", "run_t_suite",
))


def __getattr__(name):
    # PEP 562: loads ring only when one of its names is asked for here
    if name not in _QSERIES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import ring

    return getattr(ring, name)
