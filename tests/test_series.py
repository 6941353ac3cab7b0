"""Truncated Laurent series: arithmetic laws, truncation bookkeeping, and the
elliptic-function expansions built on top of them."""

import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab.families import adjudicate, build_family
from fermatlab.scalars import RationalComplex
from fermatlab.series import LaurentSeries, exp_series, ode_residual_series, wp_series

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def series_strategy(low_min=-3, high=8):
    def build(low, coeffs):
        padded = coeffs + [Fraction(0)] * (high - low + 1 - len(coeffs))
        return LaurentSeries.make(low, padded[: high - low + 1], high)

    return st.builds(
        build,
        st.integers(min_value=low_min, max_value=2),
        st.lists(small_rationals, min_size=1, max_size=6),
    )


# -- construction and bookkeeping --------------------------------------------


def test_make_trims_leading_zeros():
    s = LaurentSeries.make(-2, [0, 0, 3, 0, 1], 2)
    assert s.low == 0 and s.high == 2
    assert s.coefficient(0) == RationalComplex(3)
    assert s.coefficient(2) == RationalComplex(1)


def test_coefficient_beyond_truncation_raises():
    s = LaurentSeries.constant(1, 4)
    with pytest.raises(ValueError, match="beyond truncation"):
        s.coefficient(5)


def test_pole_order_cap():
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        LaurentSeries.make(-13, [1] * 20, 6)
    # order 12 itself is allowed
    LaurentSeries.make(-12, [1] * 20, 7)


def test_float_input_is_refused():
    with pytest.raises(TypeError):
        LaurentSeries.make(0, [0.5])
    with pytest.raises(TypeError):
        exp_series(0.5, 4)
    with pytest.raises(TypeError):
        wp_series(0.0, 1.0, 8)


def test_truncation_tightens_under_multiplication():
    # (w^-1 + ...) * (w^2 + ...) : the unknown tail of the first factor
    # pollutes exponents above high1 + low2
    a = LaurentSeries.make(-1, [1, 1, 1, 1, 1, 1], 4)
    b = LaurentSeries.make(2, [1, 1, 1], 4)
    prod = a * b
    assert prod.high == min(4 + 2, 4 + (-1))  # = 3
    assert prod.low == 1


def test_zero_series_identity():
    z = LaurentSeries.zero(6)
    s = LaurentSeries.make(-1, [2, 0, 5], 1)
    assert z.is_zero
    assert (s + z).coefficient(-1) == RationalComplex(2)
    assert (s * z).is_zero


# -- ring laws on random truncated series ------------------------------------


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=40, deadline=None)
def test_distributivity(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert (lhs - rhs).is_zero_through(min(lhs.high, rhs.high))


@given(series_strategy(), series_strategy())
@settings(max_examples=40, deadline=None)
def test_commutativity(a, b):
    assert (a * b - b * a).is_zero_through((a * b).high)


@given(series_strategy())
@settings(max_examples=40, deadline=None)
def test_derivative_of_product(a):
    b = LaurentSeries.make(0, [1, 2, 3, 0, 0, 0, 0, 0, 0], 8)
    lhs = (a * b).differentiate()
    rhs = a.differentiate() * b + a * b.differentiate()
    assert (lhs - rhs).is_zero_through(min(lhs.high, rhs.high))


def test_invert_round_trip():
    s = LaurentSeries.make(-2, [1, 0, Fraction(1, 3), 5, 0, 0, 0, 1], 5)
    prod = s * s.invert()
    assert prod.coefficient(0) == RationalComplex(1)
    assert prod.is_zero_through(prod.high) is False  # the 1 at exponent 0
    diff = prod - LaurentSeries.constant(1, prod.high)
    assert diff.is_zero_through(diff.high)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(4).invert()


def test_power_matches_repeated_multiplication():
    s = LaurentSeries.make(-1, [1, 1, 0, 0, 0, 0], 4)
    cube = s**3
    ref = s * s * s
    assert (cube - ref).is_zero_through(min(cube.high, ref.high))
    inv = s ** (-1)
    diff = inv - s.invert()
    assert diff.is_zero_through(diff.high)
    with pytest.raises(TypeError):
        s ** Fraction(1, 2)


# -- the numerator representation against a schoolbook Fraction reference ---
#
# A reference series is (high, {exponent: (re, im)}) with Fraction parts and
# only nonzero coefficients stored; its low is the smallest stored exponent.

ZERO = (Fraction(0), Fraction(0))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _cinv(x):
    d = x[0] * x[0] + x[1] * x[1]
    return (x[0] / d, -x[1] / d)


def _ref_low(ref):
    high, c = ref
    return min(c, default=high + 1)


def _ref(high, items):
    return high, {k: v for k, v in items if v != ZERO and k <= high}


def _ref_add(a, b):
    high = min(a[0], b[0])
    keys = set(a[1]) | set(b[1])
    return _ref(high, ((k, _cadd(a[1].get(k, ZERO), b[1].get(k, ZERO))) for k in keys))


def _ref_mul(a, b):
    high = min(a[0] + _ref_low(b), b[0] + _ref_low(a))
    out = {}
    for i, x in a[1].items():
        for j, y in b[1].items():
            out[i + j] = _cadd(out.get(i + j, ZERO), _cmul(x, y))
    return _ref(high, out.items())


def _ref_invert(a):
    m = _ref_low(a)
    coeff = [a[1].get(m + j, ZERO) for j in range(a[0] - m + 1)]
    inv = [_cinv(coeff[0])]
    for k in range(1, len(coeff)):
        s = ZERO
        for j in range(1, k + 1):
            s = _cadd(s, _cmul(coeff[j], inv[k - j]))
        inv.append(_cmul((-s[0], -s[1]), inv[0]))
    return _ref(a[0] - 2 * m, ((k - m, v) for k, v in enumerate(inv)))


def _ref_differentiate(a):
    return _ref(a[0] - 1, ((k - 1, (k * v[0], k * v[1])) for k, v in a[1].items()))


def _assert_matches(s, ref):
    high, c = ref
    assert (s.low, s.high) == (_ref_low(ref), high)
    assert s.den > 0 and gcd(s.den, *s.re, *s.im) == 1  # reduced once, canonical
    for k in range(s.low, high + 1):
        assert s.coefficient(k) == RationalComplex(*c.get(k, ZERO))


gaussian = st.one_of(st.just(ZERO), st.tuples(small_rationals, small_rationals))


@st.composite
def raw_series(draw):
    """(series, reference) with a pole or not, leading zeros and its own
    truncation order."""
    low = draw(st.integers(min_value=-3, max_value=2))
    high = low + draw(st.integers(min_value=0, max_value=9))
    coeffs = [ZERO] * draw(st.integers(min_value=0, max_value=2))
    coeffs += draw(st.lists(gaussian, min_size=1, max_size=10))
    coeffs = (coeffs + [ZERO] * (high - low + 1))[: high - low + 1]
    s = LaurentSeries.make(low, [RationalComplex(*c) for c in coeffs], high)
    return s, _ref(high, ((low + k, c) for k, c in enumerate(coeffs)))


@given(raw_series(), raw_series())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_reference(a, b):
    (sa, ra), (sb, rb) = a, b
    _assert_matches(sa, ra)
    _assert_matches(sa * sb, _ref_mul(ra, rb))
    _assert_matches(sa + sb, _ref_add(ra, rb))
    _assert_matches(sa.differentiate(), _ref_differentiate(ra))
    if not sa.is_zero:
        _assert_matches(sa.invert(), _ref_invert(ra))


def test_quadratic_minus_leading_terms_do_not_depend_on_order():
    fam = build_family("quadratic", rho=Fraction(5, 4), sign="minus")
    want = [[1, "-20/3"], [2, "100/9"], [3, "-40/9"], [4, "100/27"]]
    assert adjudicate(fam, order=40).series_leading == want
    assert adjudicate(fam, order=80).series_leading == want
    assert adjudicate(fam, order=120).series_leading == want


# -- exponential series ------------------------------------------------------


def test_exp_series_is_exact_for_rational_rate():
    s = exp_series(Fraction(2), 8)
    assert s.coefficient(3) == RationalComplex(Fraction(8, 6))


def test_exp_series_matches_cmath():
    c = RationalComplex(Fraction(3, 10), Fraction(-11, 10))
    s = exp_series(c, 30)
    for z in (0.1, -0.2 + 0.15j, 0.05j):
        partial = sum(complex(a) * z ** (s.low + k) for k, a in enumerate(s.coeffs))
        assert abs(partial - cmath.exp(complex(c) * z)) < 1e-12


def test_exp_series_derivative_rule():
    c = Fraction(3, 2)
    s = exp_series(c, 10)
    diff = s.differentiate() - s.scale(c)
    assert diff.is_zero_through(diff.high)


# -- Weierstrass expansions --------------------------------------------------


def test_wp_series_shape_and_frozen_coefficients():
    s = wp_series(0, 1, 12)
    assert s.low == -2
    # only exponents congruent to -2 mod 6 survive when the quadratic
    # invariant vanishes
    nonzero = [k for k, _ in s.leading_terms(10)]
    assert nonzero == [-2, 4, 10]
    assert s.coefficient(4) == RationalComplex(Fraction(1, 28))
    assert s.coefficient(10) == RationalComplex(Fraction(1, 10192))


def test_wp_series_even():
    s = wp_series(Fraction(-1, 12), Fraction(-1, 6), 20)
    for k in range(s.low, 20 + 1):
        if k % 2 == 1:
            assert s.coefficient(k) == RationalComplex(0)


def test_wp_coefficients_classical_values():
    # c_k sits at exponent 2k - 2
    s = wp_series(1, 1, 8)
    assert s.coefficient(2) == RationalComplex(Fraction(1, 20))
    assert s.coefficient(4) == RationalComplex(Fraction(1, 28))
    # c_4 = c_2^2 / 3
    assert s.coefficient(6) == RationalComplex(Fraction(1, 1200))


def test_order_guards():
    with pytest.raises(ValueError, match=">= 4"):
        wp_series(0, 1, 3)
    with pytest.raises(ValueError, match=">= 10"):
        ode_residual_series(0, 1, 9)


@pytest.mark.parametrize(
    "g2,g3",
    [(0, 1), (Fraction(-1, 12), Fraction(-1, 6)), (0, 432), (Fraction(7, 3), Fraction(-2))],
)
def test_ode_residual_vanishes_for_honest_invariants(g2, g3):
    res = ode_residual_series(g2, g3, 40)
    assert res.is_zero_through(res.high)


def test_ode_residual_vanishes_for_gaussian_invariants():
    g2 = RationalComplex(Fraction(1, 3), Fraction(-2, 5))
    g3 = RationalComplex(Fraction(-3, 4), Fraction(7, 2))
    res = ode_residual_series(g2, g3, 80)
    assert res.high >= 80 and res.is_zero_through(80)


def test_ode_residual_detects_corruption():
    # the residual built by ode_residual_series is zero by construction for
    # matching invariants; feed the cubic law a mismatched constant instead
    wp = wp_series(0, 1, 20)
    wpp = wp.differentiate()
    res = (
        wpp * wpp
        - (wp**3).scale(4)
        + LaurentSeries.constant(Fraction(999, 1000), 16)
    )
    assert not res.is_zero_through(res.high)
    k, c = res.leading_terms(1)[0]
    assert k == 0 and c == RationalComplex(Fraction(-1, 1000))

