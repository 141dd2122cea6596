"""Exact coefficient arithmetic: Laurent polynomials over Z, Q(sqrt q)."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ihall import ring
from ihall.qsqrt import QSqrt
from ihall.ring import (
    LaurentPoly,
    ONE,
    V,
    ZERO,
    comb2,
    km5_residual,
    kmrd_residual,
    pochhammer,
    qbinom,
    qdfact,
    qdfact_ratio,
    qfact,
    qfact_ratio,
    qint,
    shifted_sum,
)
from child import run_child

polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-40, max_value=40),
        max_size=5,
    ),
)


def vp(e):
    return LaurentPoly.v_pow(e)


def test_poly_basic_arithmetic():
    assert V * V == vp(2)
    assert (V + ONE) * (V - ONE) == vp(2) - ONE
    assert vp(-3) * vp(3) == ONE
    assert ZERO.is_zero() and not ONE.is_zero()
    assert (V - V).is_zero()


def test_qint_is_balanced():
    assert qint(1) == ONE
    assert qint(2) == V + vp(-1)
    assert qint(3) == vp(2) + ONE + vp(-2)
    # [n] (v - v^-1) telescopes to v^n - v^-n
    for n in range(1, 7):
        assert qint(n) * (V - vp(-1)) == vp(n) - vp(-n)


def test_qfact_and_double_factorial():
    assert qfact(0) == ONE
    assert qfact(3) == qint(1) * qint(2) * qint(3)
    assert qdfact(0) == ONE
    assert qdfact(6) == qint(2) * qint(4) * qint(6)
    with pytest.raises(ValueError):
        qdfact(3)


def test_qbinom_values():
    assert qbinom(4, 2) * qfact(2) * qfact(2) == qfact(4)
    assert qbinom(3, 0) == ONE
    assert qbinom(3, 5).is_zero()
    assert qbinom(3, -1).is_zero()


def test_qbinom_matches_product_over_factorial():
    # the q-Pascal rows against [m choose r] [r]! = prod_{j<r} [m - j], from
    # a cold memo and with negative m reflected to m >= 0 first
    ring._ROWS.clear()
    for m in range(-8, 15):
        for r in range(-2, 15):
            got = qbinom(m, r)
            if r < 0:
                assert got.is_zero(), (m, r)
                continue
            num = ONE
            for j in range(r):
                num = num * qint(m - j)
            assert got * qfact(r) == num, (m, r)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_qbinom_symmetry(m, r):
    assert qbinom(m, r) == qbinom(m, m - r)


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_qbinom_bar_invariant(m, r):
    # balanced binomials are fixed by v -> v^-1
    assert qbinom(m, r).bar() == qbinom(m, r)


def test_pochhammer():
    assert pochhammer(2, 0) == ONE
    assert pochhammer(2, 2) == (ONE - vp(2)) * (ONE - vp(4))
    assert pochhammer(-2, 3) == (ONE - vp(-2)) * (ONE - vp(-4)) * (ONE - vp(-6))


@pytest.mark.parametrize("sign", [1, -1])
def test_pochhammer_matches_its_product(sign):
    # (sign v^e; v^e)_n against prod_{j<=n} (1 - sign v^(j e)) on term dicts
    for e in range(-3, 4):
        want = {0: 1}
        for n in range(7):
            _matches(pochhammer(e, n, sign), want)
            want = _dict_product(want, _dict_sum({0: 1}, {(n + 1) * e: sign}, -1))
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            pochhammer(1, 2, bad)


def test_km5_product_is_a_pochhammer(monkeypatch):
    # km5_residual's right-hand side prod_{j=1}^p (1 + v^-j), multiplied out
    # factor by factor, is (-v^-1; v^-1)_p, and km5_residual takes it from
    # pochhammer
    prod = ONE
    for p in range(13):
        assert pochhammer(-1, p, sign=-1) == prod
        prod = prod * (ONE + vp(-(p + 1)))
    calls = []

    def spy(*args, **kw):
        calls.append((args, kw))
        return pochhammer(*args, **kw)

    monkeypatch.setattr(ring, "pochhammer", spy)
    for p in range(13):
        assert km5_residual(p).is_zero()
    assert calls == [((-1, p), {"sign": -1}) for p in range(13)]


@given(polys, polys)
@settings(max_examples=60)
def test_bar_is_a_ring_involution(f, g):
    assert (f * g).bar() == f.bar() * g.bar()
    assert (f + g).bar() == f.bar() + g.bar()
    assert f.bar().bar() == f


@given(polys, polys)
@settings(max_examples=60)
def test_specialize_sqrtq_is_a_homomorphism(f, g):
    q = 3
    assert (f * g).specialize_sqrtq(q) == f.specialize_sqrtq(q) * g.specialize_sqrtq(q)
    assert (f + g).specialize_sqrtq(q) == f.specialize_sqrtq(q) + g.specialize_sqrtq(q)


def test_inflate_doubles_exponents():
    f = vp(2) - 3 * vp(-1)
    assert f.inflate(2) == vp(4) - 3 * vp(-2)
    assert qbinom(3, 1).inflate(2) == vp(4) + ONE + vp(-4)


def test_qsqrt_folds_perfect_squares():
    x = QSqrt(4, 0, 1)  # sqrt(4) = 2
    assert x == QSqrt(4, 2, 0)
    y = QSqrt(2, 0, 1)
    assert y * y == QSqrt(2, 2, 0)
    assert y.inverse() * y == QSqrt(2, 1)


def test_qsqrt_vpow_matches_poly_specialization():
    for q in (2, 3, 5):
        for e in range(-5, 6):
            assert LaurentPoly.v_pow(e).specialize_sqrtq(q) == QSqrt.v_pow(q, e)


def test_qsqrt_v_pow_is_a_power_of_q_times_sqrt_q():
    # q^k sqrt(q)^odd, with no Laurent polynomial built; the squares fold
    for q in (2, 3, 4, 5, 9):
        for e in range(-9, 10):
            got = QSqrt.v_pow(q, e)
            assert got == LaurentPoly.v_pow(e).specialize_sqrtq(q), (q, e)
            assert (got.b == 0) == (e % 2 == 0 or isqrt(q) ** 2 == q), (q, e)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_qsqrt_q_numbers_match_their_laurent_forms(q):
    # the scalars of idp_hall and of the pair relation are built from ints
    # at v = sqrt(q); 4 and 9 fold the sqrt part
    for n in range(13):
        assert QSqrt.qfact(q, n) == qfact(n).specialize_sqrtq(q), n
    for e in (1, -1, 2, -2):
        for n in range(7):
            assert QSqrt.pochhammer(q, e, n) == pochhammer(e, n).specialize_sqrtq(q), (e, n)
    with pytest.raises(ValueError):
        QSqrt.qfact(q, -1)
    with pytest.raises(ValueError):
        QSqrt.pochhammer(q, 2, -1)


def test_qsqrt_mixing_bases_rejected():
    with pytest.raises(ValueError):
        QSqrt(2, 1) + QSqrt(3, 1)
    with pytest.raises(ValueError):
        QSqrt(2, 1) * QSqrt(3, 1)
    # comparing is not arithmetic: scalars over different bases are unequal
    assert QSqrt(2, 3) != QSqrt(3, 3)
    assert not QSqrt(2, 0, 1) == QSqrt(3, 0, 1)


@pytest.mark.parametrize(
    "const, value",
    [
        (QSqrt(2, 3), 3),
        (QSqrt(3, -1), -1),
        (QSqrt(5), 0),
        (QSqrt(4, 0, 1), 2),
        (QSqrt(2, 1, 0, 2), Fraction(1, 2)),
        (QSqrt(3, -7, 0, 6), Fraction(-7, 6)),
        (QSqrt(2, 5, 0, 2 ** 61 - 1), Fraction(5, 2 ** 61 - 1)),
        (LaurentPoly.const(3), 3),
        (LaurentPoly.const(-1), -1),
        (LaurentPoly(), 0),
        (ONE, 1),
    ],
)
def test_constants_hash_as_the_numbers_they_equal(const, value):
    # a set or dict that mixes ints (or Fractions) with equal constants
    # keeps one of each
    assert const == value and hash(const) == hash(value)
    assert len({const, value}) == 1
    assert {value: "x"}[const] == "x"


def test_nonconstant_scalars_stay_apart_from_numbers():
    assert len({QSqrt(2, 0, 1), QSqrt(2, 1, 1), 0, 1}) == 4
    assert len({V, LaurentPoly.v_pow(-1), 1, 0}) == 4


def test_qsqrt_fraction_coercion():
    x = QSqrt(2, Fraction(1, 2), 1)
    assert x + Fraction(1, 2) == QSqrt(2, 1, 1)
    assert 2 * x == QSqrt(2, 1, 2)


def _exact_coeffs(x):
    if isinstance(x, LaurentPoly):
        return list(x.terms.values())
    return [x.a, x.b, x.d]


def test_coefficients_stay_exact_and_integral_ones_are_ints():
    polynomial = [
        qbinom(7, 3),
        qbinom(9, 4),
        qbinom(-4, 3),
        qfact(6),
        qdfact(8),
        qfact_ratio(3, 6) * 3,
    ]
    for x in polynomial:
        assert all(type(c) is int for c in _exact_coeffs(x)), x
    # Q(sqrt q) holds ints (a, b, d) for (a + b sqrt q)/d, in lowest terms
    for x in [
        QSqrt(2, 1, 1).inverse(),
        QSqrt(2, 3, 1).inverse(),
        qint(3).specialize_sqrtq(2).inverse(),
        vp(-3).specialize_sqrtq(3),
        QSqrt(2, Fraction(1, 2), Fraction(3, 4)),
        QSqrt(3, 4, -6, -10),
    ]:
        coeffs = _exact_coeffs(x)
        assert all(type(c) is int for c in coeffs), (x, coeffs)
        assert gcd(*coeffs) == 1 and x.d > 0, (x, coeffs)
    assert _exact_coeffs(QSqrt(2, 3, 1).inverse()) == [3, -1, 7]
    assert _exact_coeffs(qint(3).specialize_sqrtq(2).inverse()) == [2, 0, 7]
    assert _exact_coeffs(vp(-3).specialize_sqrtq(3)) == [0, 1, 9]
    assert _exact_coeffs(QSqrt(2, Fraction(1, 2), Fraction(3, 4))) == [2, 3, 4]
    assert _exact_coeffs(QSqrt(3, 4, -6, -10)) == [-2, 3, 5]
    assert QSqrt(2, 3, 1).inverse() == QSqrt(2, Fraction(3, 7), Fraction(-1, 7))
    assert QSqrt(2, 1, 1).inverse() == QSqrt(2, -1, 1)


def test_floats_are_rejected_as_coefficients():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError):
        QSqrt(2, 0.5)


def test_integral_fraction_coefficients_are_rejected():
    # a LaurentPoly holds ints only; an integral Fraction is no exception
    for c in (Fraction(2), Fraction(4, 2), Fraction(-3, 3), Fraction(0)):
        with pytest.raises(TypeError):
            LaurentPoly({0: c})
        with pytest.raises(TypeError):
            LaurentPoly.const(c)
        with pytest.raises(TypeError):
            V * c
        with pytest.raises(TypeError):
            c * V
        with pytest.raises(TypeError):
            V + c
        with pytest.raises(TypeError):
            V - c
        assert (LaurentPoly.const(c.numerator) == c) is False
        assert (c == LaurentPoly.const(c.numerator)) is False
    assert LaurentPoly.const(2) == 2 and ZERO == 0


def test_non_integral_coefficients_are_rejected():
    half = Fraction(1, 2)
    with pytest.raises(TypeError):
        LaurentPoly({0: half})
    with pytest.raises(TypeError):
        LaurentPoly.const(Fraction(2, 3))
    with pytest.raises(TypeError):
        V * half
    with pytest.raises(TypeError):
        V + half
    # comparing with a non-integral Fraction is a plain False
    assert (ONE == half) is False
    assert (ZERO == half) is False
    assert ONE != half


def _qint_ref(r):
    # [r] as the sum of v^(|r|-1-2i), i < |r|, and [-r] = -[r], without the
    # memoized helpers
    sign = -1 if r < 0 else 1
    return LaurentPoly({abs(r) - 1 - 2 * i: sign for i in range(abs(r))})


def _prod(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


def test_memoized_helpers_match_plain_products():
    for r in range(-5, 8):
        # the reference is [r]: it times v - v^-1 telescopes to v^r - v^-r
        assert _qint_ref(r) * (V - vp(-1)) == vp(r) - vp(-r)
        assert qint(r) == _qint_ref(r)
    for hi in range(8):
        assert qfact(hi) == _prod(_qint_ref(j) for j in range(1, hi + 1))
        assert qdfact(2 * hi) == _prod(_qint_ref(2 * j) for j in range(1, hi + 1))
        for lo in range(hi + 1):
            assert qfact_ratio(lo, hi) == _prod(_qint_ref(j) for j in range(lo + 1, hi + 1))
            assert qdfact_ratio(2 * lo, 2 * hi) == _prod(
                _qint_ref(2 * j) for j in range(lo + 1, hi + 1)
            )
    for m in range(-4, 8):
        for r in range(6):
            num = _prod(_qint_ref(m - j) for j in range(r))
            assert qbinom(m, r) * qfact(r) == num
    for d in range(5):
        for k in range(d + 1):
            for m in range(d - k + 1):
                r = d - k - m
                # [d]!/[r]! [2d]!!/[2k]!! [2d]!!/[2m]!!, the cleared factor of the T sums
                ratios = qfact_ratio(r, d) * qdfact_ratio(2 * k, 2 * d) * qdfact_ratio(2 * m, 2 * d)
                assert ratios == (
                    _prod(_qint_ref(j) for j in range(r + 1, d + 1))
                    * _prod(_qint_ref(2 * j) for j in range(k + 1, d + 1))
                    * _prod(_qint_ref(2 * j) for j in range(m + 1, d + 1))
                )
    with pytest.raises(ValueError):
        qfact_ratio(3, 2)
    with pytest.raises(ValueError):
        qdfact_ratio(1, 4)


def test_ratio_memos_keep_one_entry_per_lower_index(monkeypatch):
    # kmrd(d) asks for [d]!/[d-s]! and [2d]!!/[2s]!! at every s, and a later
    # d extends the ratio at each lower index, so each memo keeps one entry
    # per lower index: at 0 the list of factorials up to the largest top
    # asked for, elsewhere the ratio to the last top asked for
    monkeypatch.setattr(ring, "_QFACT_RATIOS", {})
    monkeypatch.setattr(ring, "_QDFACT_RATIOS", {})
    for d in range(1, 13):
        assert kmrd_residual(d).is_zero(), d
    assert ring._QFACT_RATIOS == {
        0: [_prod(_qint_ref(j) for j in range(1, top + 1)) for top in range(13)],
        **{lo: (12, _prod(_qint_ref(j) for j in range(lo + 1, 13))) for lo in range(1, 13)},
    }
    assert ring._QDFACT_RATIOS == {
        0: [_prod(_qint_ref(2 * j) for j in range(1, top + 1)) for top in range(13)],
        **{2 * lo: (24, _prod(_qint_ref(2 * j) for j in range(lo + 1, 13))) for lo in range(1, 13)},
    }
    # a lower factorial is read from the list, with no product; a lower top
    # elsewhere is multiplied out from 1 and takes the entry's place
    calls = []
    monkeypatch.setattr(ring, "qint", lambda r: calls.append(r) or _qint_ref(r))
    assert qfact(5) == _prod(_qint_ref(j) for j in range(1, 6)) and calls == []
    assert qfact_ratio(3, 5) == _qint_ref(4) * _qint_ref(5) and calls == [4, 5]
    assert ring._QFACT_RATIOS[3] == (5, _qint_ref(4) * _qint_ref(5)) and len(ring._QFACT_RATIOS) == 13


def test_identity_suites_share_the_factorials():
    # at the benchmark's identities range (perfbench/run.py) km1, kmrd and
    # the T suite share the factorials at lower index 0, so the suites take
    # 88 products [k] in all (counted on ring.qint, which only the ratio
    # memos call), where one entry per lower index took 112. Keeping every
    # ratio would take 76 but hold some d^2/2 polynomials: 13 MB more at
    # kmrd's ceiling
    code = """if True:
        from ihall import ring
        from ihall.ring import run_identity_suites, run_t_suite
        qint, calls = ring.qint, []
        ring.qint = lambda r: calls.append(r) or qint(r)
        rows = run_identity_suites(pmax=10, dmax=8) + run_t_suite(amax=7)
        print(all(ok for _, ok in rows), len(calls))
    """
    status, out, err, _ = run_child(code=code)
    assert (status, out, err) == (0, "True 88\n", "")


def test_factorial_ratios_need_no_deep_call_chain():
    # the memos fill upward in a loop, so [50]!, [100]!! and [300 choose 3]
    # are no RecursionError under a limit of 40 frames; a row of binomials
    # is filled only to the column asked for (or its mirror), so m = 300
    # costs 300 short rows, where [300 choose 150] would fill some 10^8
    # coefficients by any q-Pascal rule
    code = """if True:
        from ihall.ring import ONE, qbinom, qdfact, qfact, qfact_ratio, qint
        sys.setrecursionlimit(40)
        want_f, want_d = ONE, ONE
        for k in range(1, 51):
            want_f = want_f * qint(k)
            want_d = want_d * qint(2 * k)
        print(qfact(50) == want_f, qdfact(100) == want_d,
              qbinom(300, 3) * qfact(3) == qfact_ratio(297, 300) == qbinom(300, 297) * qfact(3))
    """
    status, out, err, _ = run_child(code=code)
    assert (status, out, err) == (0, "True True True\n", "")


# ---------------------------------------------------------------------------
# the Kronecker product kernel against the defining double sum


def _schoolbook(f, g):
    """f * g by the defining double sum over the terms: the kernel's oracle."""
    return LaurentPoly(_dict_product(f.terms, g.terms))


def _schoolbook_prod(factors):
    out = ONE
    for f in factors:
        out = _schoolbook(out, f)
    return out


def _near_powers_of_two(top):
    # slot boundaries: +-(2^k - 1) and +-2^k
    return st.integers(min_value=0, max_value=top).flatmap(
        lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 1 - 2 ** k, -(2 ** k)])
    )


wide_ints = st.one_of(
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    _near_powers_of_two(80),
    st.integers(min_value=-3, max_value=3),
)


def _wide_polys(coeffs):
    return st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(min_value=-15, max_value=15), coeffs, max_size=9),
    )


@given(_wide_polys(wide_ints), _wide_polys(wide_ints))
@settings(max_examples=300)
def test_product_matches_schoolbook_on_integers(f, g):
    assert f * g == _schoolbook(f, g)
    assert f * g == g * f
    assert all(type(c) is int for c in (f * g).terms.values())


@pytest.mark.parametrize("n", [2, 3, 5])
def test_product_at_the_slot_width_bound(n):
    # n equal coefficients c times n equal coefficients d: the middle
    # coefficient n*c*d reaches the kernel's bound max|a| max|b| min(len)
    # exactly, so every bit length of the bound (every slot boundary) shows up
    ones = LaurentPoly({2 * i - 3: 1 for i in range(n)})
    for k in range(0, 84):
        for c in (2 ** k - 1, 2 ** k, 1 - 2 ** k, -(2 ** k)):
            for d in (2 ** k - 1, 2 ** k, -(2 ** k), 2 ** (k // 2), -1):
                f, g = ones * c, ones.bar() * d
                prod = f * g
                assert prod == _schoolbook(f, g), (n, c, d)
                if c and d:
                    assert prod.coeff(0) == n * c * d


# ---------------------------------------------------------------------------
# the dense coefficient tuples against {exponent: coefficient} dicts


def _dict_sum(x, y, sign=1):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _dict_product(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _matches(f, d):
    """f is the normal form of the nonzero terms d: nonzero ends, int entries."""
    assert f.terms == d
    assert f == LaurentPoly(d) and hash(f) == hash(LaurentPoly(d))
    assert (f.lo, f.max_exp()) == (min(d, default=0), max(d, default=0))
    assert f.coeffs == () or (f.coeffs[0] and f.coeffs[-1])
    assert all(type(c) is int for c in f.coeffs)
    for e in range(f.lo - 2, f.max_exp() + 3):
        assert f.coeff(e) == d.get(e, 0)


# two coefficients past 2^32 take the bound past 2^63, out of the word slots
slot_ints = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-(2 ** 34), max_value=2 ** 34),
    _near_powers_of_two(34),
)


@st.composite
def inflated_polys(draw):
    """(f, terms of f): a polynomial with spread exponents, inflated by 1, 2 or 3."""
    d = draw(st.dictionaries(st.integers(min_value=-30, max_value=30), slot_ints, max_size=8))
    k = draw(st.integers(min_value=1, max_value=3))
    return LaurentPoly(d).inflate(k), {e * k: c for e, c in d.items() if c}


@given(inflated_polys(), inflated_polys())
@settings(max_examples=300)
def test_dense_arithmetic_matches_term_dicts(fx, gy):
    (f, x), (g, y) = fx, gy
    _matches(f, x)
    _matches(f * g, _dict_product(x, y))
    _matches(f + g, _dict_sum(x, y))
    _matches(f - g, _dict_sum(x, y, -1))
    _matches(-f, {e: -c for e, c in x.items()})
    _matches(f.bar(), {-e: c for e, c in x.items()})


# (e, f) pairs for shifted_sum: negative shifts and exponents, zero f included
shift_pairs = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.dictionaries(st.integers(min_value=-12, max_value=12), slot_ints, max_size=6).map(LaurentPoly),
    ),
    max_size=6,
)


def _shifted_terms(pairs):
    """The nonzero terms of sum v^e f over the pairs (e, f), one term at a time."""
    out = {}
    for e, f in pairs:
        out = _dict_sum(out, {x + e: c for x, c in f.terms.items()})
    return out


@given(shift_pairs, shift_pairs)
@settings(max_examples=300)
def test_shifted_sum_matches_term_dicts(plus, minus):
    _matches(shifted_sum(plus, minus), _dict_sum(_shifted_terms(plus), _shifted_terms(minus), -1))
    _matches(shifted_sum(plus), _shifted_terms(plus))
    # the plus terms subtracted again, in another order, cancel in full
    assert shifted_sum(plus, plus[::-1]) is ZERO
    _matches(shifted_sum(minus + plus, plus[::-1]), _shifted_terms(minus))


def test_shifted_sum_edge_cases():
    f = LaurentPoly({-3: 2, 0: 5, 4: -1})
    assert shifted_sum([]) is ZERO and shifted_sum([], []) is ZERO
    assert shifted_sum([(7, ZERO)], [(-2, ZERO)]) is ZERO
    assert shifted_sum([(2, f), (-1, f)], [(-1, f), (2, f)]) is ZERO
    # both ends cancel: only the middle term is left, in normal form
    assert shifted_sum([(0, f)], [(0, LaurentPoly({-3: 2})), (4, LaurentPoly.const(-1))]) == LaurentPoly({0: 5})
    assert shifted_sum([(-5, f)]) == f * vp(-5)
    assert shifted_sum([(1, f), (1, f)], [(0, f)]) == 2 * V * f - f


@pytest.mark.parametrize(
    "n, c, d",
    [
        (7, 92737 * 649657, 7 * 73 * 127 * 337),  # n c d = 2^63 - 1: the last word-slot bound
        (8, 2 ** 30, 2 ** 30),  # n c d = 2^63: the first bound past the word slots
    ],
)
def test_product_at_the_word_slot_bound(n, c, d):
    # n equal coefficients times n equal coefficients: the bound
    # max|a| max|b| min(len a, len b) is n c d, which the coefficient of
    # v^(n+1), a sum over all n pairs, reaches
    assert n * c * d - 2 ** 63 in (-1, 0)
    for sc, sd in ((1, 1), (1, -1), (-1, -1)):
        f = LaurentPoly({e: sc * c for e in range(-3, n - 3)})
        g = LaurentPoly({e: sd * d for e in range(5, n + 5)})
        _matches(f * g, _dict_product(f.terms, g.terms))
        assert (f * g).coeff(n + 1) == sc * sd * n * c * d


@pytest.mark.parametrize("nb", [8, 9, 10, 11, 12, 13, 15, 16, 24])
def test_slot_images_round_trip(nb):
    # the largest slot values either way, 0 and small ones, packed into one
    # int and read back slot by slot
    top = 2 ** (8 * nb - 1) - 1
    for t in [(top, -top, 0), (0, 0, -top), (-1, top, 1, -top, 0, 2 ** 64, -(2 ** 64)), (top,)]:
        t = tuple(c for c in t if abs(c) <= top)
        x = ring._packed(t, nb, ring._half(nb, len(t)))
        assert x == sum(c << 8 * nb * i for i, c in enumerate(t))
        assert ring._unpacked(x, nb, len(t), ring._half(nb, len(t))) == t
        # read into more slots, the image's extra top slots are zeros
        assert ring._unpacked(x, nb, len(t) + 2, ring._half(nb, len(t) + 2)) == t + (0, 0)
        assert ring._decoded(x, nb, -3) == LaurentPoly({i - 3: c for i, c in enumerate(t)})
        assert ring._decoded(x, nb, -3, 2) == LaurentPoly({2 * i - 3: c for i, c in enumerate(t)})


def test_slot_width_holds_the_bound_and_a_sign_bit():
    # 8 bytes up to 2^63 - 1, past it the fewest whole bytes that hold m and a sign bit
    widths = {0: 8, 2 ** 63 - 1: 8, 2 ** 63: 9, 2 ** 71 - 1: 9, 2 ** 71: 10, 2 ** 79: 11,
              2 ** 95 - 1: 12, 2 ** 95: 13, 2 ** 127 - 1: 16, 2 ** 127: 17, 2 ** 191: 25}
    assert {m: ring._slot_bytes(m) for m in widths} == widths
    for b in range(300):
        for m in (2 ** b - 1, 2 ** b):
            assert ring._slot_bytes(m) == min(nb for nb in range(8, 48) if m < 2 ** (8 * nb - 1))


def test_product_of_zero_and_monomials():
    f = LaurentPoly({-4: 3, 1: -2, 5: 2 ** 90})
    assert (f * ZERO).is_zero() and (ZERO * f).is_zero() and (f * 0).is_zero()
    assert f * vp(-6) == LaurentPoly({-10: 3, -5: -2, -1: 2 ** 90})
    assert f * LaurentPoly({2: -7}) == LaurentPoly({-2: -21, 3: 14, 7: -7 * 2 ** 90})
    assert 3 * f == f * LaurentPoly.const(3) == LaurentPoly({-4: 9, 1: -6, 5: 3 * 2 ** 90})


def test_sums_stay_in_normal_form():
    f = LaurentPoly({0: 1, 3: 1})
    total = f + f
    assert total == LaurentPoly({0: 2, 3: 2}) and type(total.coeff(0)) is int
    assert (f - f).terms == {}
    assert (f + -1).terms == {3: 1}
    assert (V + ONE) - V == ONE


# operands of the LaurentPoly operators: (operand, the terms of the constant
# it equals or None, whether the operators take it); only ints and
# LaurentPolys are taken, an integral Fraction, float or QSqrt included
OPERANDS = {
    "int": (3, {0: 3}, True),
    "negative int": (-2, {0: -2}, True),
    "zero int": (0, {}, True),
    "bool": (True, {0: 1}, True),
    "poly": (LaurentPoly({-3: 2, 0: 1, 1: -4}), {-3: 2, 0: 1, 1: -4}, True),
    "zero poly": (ZERO, {}, True),
    "Fraction": (Fraction(1, 2), None, False),
    "integral Fraction": (Fraction(4, 2), {0: 2}, False),
    "float": (0.5, None, False),
    "integral float": (2.0, {0: 2}, False),
    "QSqrt": (QSqrt(2, 1, 1), None, False),
    "rational QSqrt": (QSqrt(2, 3), {0: 3}, False),
}

# each operator and its reflected form, f a LaurentPoly, with its oracle on
# term dicts
OPERATORS = [
    (lambda f, x: f + x, lambda a, b: _dict_sum(a, b)),
    (lambda f, x: x + f, lambda a, b: _dict_sum(b, a)),
    (lambda f, x: f - x, lambda a, b: _dict_sum(a, b, -1)),
    (lambda f, x: x - f, lambda a, b: _dict_sum(b, a, -1)),
    (lambda f, x: f * x, _dict_product),
    (lambda f, x: x * f, lambda a, b: _dict_product(b, a)),
]

F = LaurentPoly({-2: 3, 0: -1, 5: 7})


@pytest.mark.parametrize("operand", OPERANDS)
def test_operators_take_ints_and_polys_only(operand):
    x, terms, taken = OPERANDS[operand]
    const = None if terms is None else LaurentPoly(terms)
    for op, oracle in OPERATORS:
        for f in (F, ZERO, ONE):
            if taken:
                _matches(op(f, x), oracle(f.terms, terms))
            else:
                with pytest.raises(TypeError):
                    op(f, x)
    if taken:
        assert const == x and x == const and not const != x
        assert (F == x) is (x == F) is False and F != x
        return
    # comparing is a plain False, even with a constant of equal value
    for f in (F, ZERO, ONE) + ((const,) if const is not None else ()):
        assert (f == x) is False and (x == f) is False and f != x


def test_nonvanishing_products_match_schoolbook():
    # every identity residual is zero, so a kernel that wrongly returned 0
    # would pass them; these products are large and nonzero
    fact12 = _schoolbook_prod(qint(j) for j in range(1, 13))
    dfact24 = _schoolbook_prod(qint(2 * j) for j in range(1, 13))
    # [12 choose 6] [6]! = [12][11]...[7]
    falling = _schoolbook_prod(qint(12 - j) for j in range(6))
    value = qfact(12) * qdfact(24) * qbinom(12, 6)
    assert _schoolbook(value, _schoolbook_prod(qint(j) for j in range(1, 7))) == _schoolbook(
        _schoolbook(fact12, dfact24), falling
    )
    # at v = 1 each [n] is n
    f12 = 479001600
    assert sum(value.terms.values()) == f12 * (2 ** 12 * f12) * 924
    # the kmrd terms with every sign taken positive
    for d in range(1, 9):
        total = ZERO
        ref = ZERO
        for k in range(d + 1):
            for m in range(d - k + 1):
                r = d - k - m
                e = comb2(r + 1) - 2 * (k - 1) * m
                ratios = qfact_ratio(r, d) * qdfact_ratio(2 * k, 2 * d) * qdfact_ratio(2 * m, 2 * d)
                total = total + vp(e) * ratios
                ref = ref + _schoolbook_prod(
                    [vp(e)]
                    + [qint(j) for j in range(r + 1, d + 1)]
                    + [qint(2 * j) for j in range(k + 1, d + 1)]
                    + [qint(2 * j) for j in range(m + 1, d + 1)]
                )
        assert total == ref and not total.is_zero()


# ---------------------------------------------------------------------------
# QSqrt against a pair of Fractions


class _Pair:
    """a + b sqrt(q) with Fraction parts, a square q folded: the oracle of QSqrt."""

    def __init__(self, q, a, b=0):
        s = isqrt(q)
        if s * s == q:
            a, b = a + b * s, 0
        self.q, self.a, self.b = q, Fraction(a), Fraction(b)

    def __add__(self, o):
        return _Pair(self.q, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return _Pair(self.q, -self.a, -self.b)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        return _Pair(self.q, self.a * o.a + self.b * o.b * self.q, self.a * o.b + self.b * o.a)

    def inverse(self):
        n = self.a ** 2 - self.b ** 2 * self.q
        return _Pair(self.q, self.a / n, -self.b / n)

    def __repr__(self):
        # each part prints as its Fraction does
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt({self.q})"
        return f"{self.a} {'+' if self.b > 0 else '-'} {abs(self.b)}*sqrt({self.q})"


def _pair_v_pow(q, e):
    h = Fraction(q) ** (e // 2)
    return _Pair(q, 0, h) if e % 2 else _Pair(q, h)


def _agrees(x, p):
    """x is the normal form of the oracle value p, and prints as p does."""
    assert (Fraction(x.a, x.d), Fraction(x.b, x.d)) == (p.a, p.b)
    assert all(type(c) is int for c in (x.q, x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert isqrt(x.q) ** 2 != x.q or x.b == 0
    assert repr(x) == repr(p)
    same = QSqrt(p.q, p.a, p.b)
    assert x == same and hash(x) == hash(same)
    assert x == p.a if not p.b else x != p.a


qsqrt_parts = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=30),
)


@given(
    st.sampled_from([2, 3, 4, 5, 9]),
    qsqrt_parts, qsqrt_parts, qsqrt_parts, qsqrt_parts,
    st.integers(min_value=-9, max_value=9),
)
@settings(max_examples=400)
def test_qsqrt_matches_fraction_pairs(q, a, b, c, e, k):
    x, y = QSqrt(q, a, b), QSqrt(q, c, e)
    px, py = _Pair(q, a, b), _Pair(q, c, e)
    _agrees(x, px)
    _agrees(x + y, px + py)
    _agrees(x - y, px - py)
    _agrees(x * y, px * py)
    _agrees(-x, -px)
    # ints and Fractions enter on either side
    _agrees(x + c, px + _Pair(q, c))
    _agrees(c - x, _Pair(q, c) - px)
    _agrees(x * c, px * _Pair(q, c))
    _agrees(c * x, px * _Pair(q, c))
    if py.a or py.b:
        _agrees(y.inverse(), py.inverse())
        _agrees(x / y, px * py.inverse())
        _agrees(a / y, _Pair(q, a) * py.inverse())
    if c:
        _agrees(x / c, px * _Pair(q, 1 / Fraction(c)))
    _agrees(QSqrt.v_pow(q, k), _pair_v_pow(q, k))
    _agrees(x * QSqrt.v_pow(q, k), px * _pair_v_pow(q, k))
    assert (x == y) is ((px.a, px.b) == (py.a, py.b))
    assert (x == x / 2) is (x == x * 2) is (not x)


def test_qsqrt_rejects_floats_and_zero_denominators():
    x = QSqrt(2, 1, 1)
    for args in ((0.5,), (1, 0.5), (1, 1, 2.0)):
        with pytest.raises(TypeError):
            QSqrt(2, *args)
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        x * 0.5
    assert (x == 0.5) is False
    with pytest.raises(ZeroDivisionError):
        QSqrt(2, 1, 1, 0)
    with pytest.raises(ZeroDivisionError):
        QSqrt(2).inverse()
    with pytest.raises(ZeroDivisionError):
        x / 0
