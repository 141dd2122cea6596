"""The mutation gate: every factor of the product and of the generator images
must be seen by some relation.

Each row breaks one factor by monkeypatch, at the one place it is computed,
and runs the whole relation suite on its named case: at least one relation
must turn nonzero. The homology-exponent and Pochhammer rows name
kronecker-r1, the only builtin whose suite sees them. B_i at a fixed vertex
times -1 is a symmetry, not a fault: every idivided power B_i^(n) has the
parity of n in B_i, so every relation stays zero.
"""

import pytest

from ihall import idp, iqg
from ihall.frep import ModuleTable
from ihall.ihall import HallAlgebra, HallElt
from ihall.iquiver import builtin_iquiver
from ihall.qsqrt import QSqrt


def _failing(name, q=2):
    """How many relations of the builtin's suite at q are nonzero."""
    return sum(not r.is_zero() for _, r in iqg.verify_presentation(HallAlgebra(builtin_iquiver(name), q)))


def _pair_twist(factor):
    # the Euler-form twist v^<x, y> of a pair product becomes v^(factor <x, y>)
    def patch(mp):
        pair = HallAlgebra._pair

        def _pair(self, x, y):
            s = self.v_pow((factor - 1) * self.iq.euler(x.dim, y.dim))
            return tuple((w, g, c * s) for w, g, c in pair(self, x, y))

        mp.setattr(HallAlgebra, "_pair", _pair)

    return patch


def _no_torus_factor(mp):
    # K_a moves past [y] with no power of v
    mul = HallAlgebra._mul

    def _mul(self, e1, e2):
        out = self.zero()
        for (x, a), cx in e1.terms.items():
            for (y, b), cy in e2.terms.items():
                one = mul(self, HallElt(self, {(x, a): cx}), HallElt(self, {(y, b): cy}))
                out = out + one.scale(self.v_pow(-self.iq.sym(self.iq.twist(a), y.dim)))
        return out

    mp.setattr(HallAlgebra, "_mul", _mul)


def _counts(change):
    # each (X, alpha, e): count of extension_counts goes through change
    def patch(mp):
        ext = ModuleTable.extension_counts

        def extension_counts(self, x, y):
            counts, denom = ext(self, x, y)
            out = {}
            for (w, alpha, e), n in counts.items():
                e, n = change(self, x, y, e, n)
                out[w, alpha, e] = out.get((w, alpha, e), 0) + n
            return out, denom

        mp.setattr(ModuleTable, "extension_counts", extension_counts)

    return patch


def _times_p(table, x, y, e, n):
    # [x] * [y] counted p times over, at dim x != dim y, both nonzero
    return e, n * table.p if x.dim != y.dim and any(x.dim) and any(y.dim) else n


def _same_parity_right(mp):
    # the right-hand idivided powers of a Serre sum take the left's parity
    def _serre_sum(psi, i, j, c, parity=None):
        out = psi.algebra.zero()
        for n in range(0, 2 - c):
            term = psi.BDP(i, n, parity) * psi.B(j) * psi.BDP(i, 1 - c - n, parity)
            out = out + (term if n % 2 == 0 else -term)
        return out

    mp.setattr(iqg, "_serre_sum", _serre_sum)


def _plain_at_fixed(mp):
    # B_i^n / [n]! at a fixed vertex too
    power = idp.idivided_power

    def idivided_power(alg, i, n, parity=None):
        if alg.iq.tau[i] != i:
            return power(alg, i, n, parity)
        return alg.power(power(alg, i, 1, 0), n).scale(QSqrt.qfact(alg.q, n).inverse())

    mp.setattr(idp, "idivided_power", idivided_power)


def _torus_b_negated(mp):
    # k_i B_l - v^-e B_l k_i for the weight relation's v^e
    residual = iqg.relation_residual

    def relation_residual(alg, inst, psi=None):
        if inst.kind != "torus-b":
            return residual(alg, inst, psi)
        iq, ki, bl = alg.iq, idp.ktilde(alg, inst.i), iqg.Psi(alg).B(inst.j)
        e = iq.cartan_vv(iq.tau[inst.i], inst.j) - iq.cartan_vv(inst.i, inst.j)
        return ki * bl - (bl * ki).scale(alg.v_pow(-e))

    mp.setattr(iqg, "relation_residual", relation_residual)


def _ktilde(fixed, scal):
    # ktilde_i times scal(algebra) at the fixed (or the moved) vertices
    def patch(mp):
        ktilde = idp.ktilde
        mp.setattr(idp, "ktilde", lambda alg, i: ktilde(alg, i).scale(
            scal(alg) if (alg.iq.tau[i] == i) == fixed else 1))

    return patch


def _b_scale(fixed, scal):
    # c_i^n times scal(algebra, n) at the fixed (or the moved) vertices
    def patch(mp):
        b_scale = idp.b_scale
        mp.setattr(idp, "b_scale", lambda alg, i, n=1: b_scale(alg, i, n) * (
            scal(alg, n) if (alg.iq.tau[i] == i) == fixed else 1))

    return patch


def _pochhammer_negated(mp):
    pochhammer = QSqrt.pochhammer
    mp.setattr(QSqrt, "pochhammer", classmethod(lambda cls, q, e, n: pochhammer(q, -e, n)))


# (mutation, patch, case); a case is a builtin at q = 2
MUTATIONS = [
    ("Euler-form twist in _pair dropped", _pair_twist(0), "a2-split"),
    ("Euler-form twist in _pair negated", _pair_twist(-1), "a2-split"),
    ("torus commutation factor in _mul dropped", _no_torus_factor, "kronecker-r1"),
    ("homology exponent of the middles dropped", _counts(lambda t, x, y, e, n: (0, n)), "kronecker-r1"),
    ("homology exponent of the middles negated", _counts(lambda t, x, y, e, n: (-e, n)), "kronecker-r1"),
    ("counts of [x] * [y] times p", _counts(_times_p), "a2-split"),
    ("right-hand parity taken equal to the left", _same_parity_right, "a2-split"),
    ("plain divided powers at a fixed vertex", _plain_at_fixed, "a2-split"),
    ("ktilde_i at a fixed vertex times v^2", _ktilde(True, lambda alg: alg.v_pow(2)), "a2-split"),
    ("ktilde_i at a fixed vertex times -q", _ktilde(True, lambda alg: -alg.q), "a2-split"),
    ("torus-b exponent negated", _torus_b_negated, "kronecker-r1"),
    ("ktilde_i at a moved vertex times v^2", _ktilde(False, lambda alg: alg.v_pow(2)), "kronecker-r1"),
    ("B_i at a moved vertex times v", _b_scale(False, lambda alg, n: alg.v_pow(n)), "kronecker-r1"),
    ("pair relation's Pochhammer exponents negated", _pochhammer_negated, "kronecker-r1"),
]

# (symmetry, patch, case): every relation stays zero
INVARIANCES = [
    ("B_i at a fixed vertex times -1", _b_scale(True, lambda alg, n: (-1) ** n), "a3-quasisplit"),
]


@pytest.mark.parametrize("name, patch, case", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_fails_a_relation(name, patch, case, monkeypatch):
    assert _failing(case) == 0
    patch(monkeypatch)
    assert _failing(case) > 0


@pytest.mark.parametrize("name, patch, case", INVARIANCES, ids=[m[0] for m in INVARIANCES])
def test_symmetry_keeps_every_relation(name, patch, case, monkeypatch):
    patch(monkeypatch)
    assert _failing(case) == 0
