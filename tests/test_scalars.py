"""Exact Gaussian-rational scalars and the numeric constants built on them."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab.scalars import (
    CBRT4,
    ETA,
    SQRT3,
    ZETA,
    RationalComplex,
    complex_agm,
    cubic_roots,
    format_complex,
    is_exact_scalar,
    parse_complex,
    rational_sqrt,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=10**4
)


def gaussians():
    return st.builds(RationalComplex, rationals, rationals)


# -- exact arithmetic --------------------------------------------------------


@given(gaussians(), gaussians(), gaussians())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


@given(gaussians(), gaussians())
@settings(max_examples=60, deadline=None)
def test_matches_float_arithmetic(a, b):
    fa, fb = a.to_complex(), b.to_complex()
    scale = 1.0 + abs(fa) + abs(fb) + abs(fa * fb)
    assert abs((a + b).to_complex() - (fa + fb)) <= 1e-13 * scale
    assert abs((a * b).to_complex() - (fa * fb)) <= 1e-13 * scale


@given(gaussians())
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(a):
    b = RationalComplex(Fraction(3, 7), Fraction(-2, 5))
    assert (a * b) / b == a


def test_reflected_operators_coerce_plain_numbers():
    a = RationalComplex(Fraction(1, 2), Fraction(1, 3))
    assert 1 + a == a + 1 == RationalComplex(Fraction(3, 2), Fraction(1, 3))
    assert 2 * a == a * 2
    assert Fraction(1, 2) - a == -(a - Fraction(1, 2))
    assert complex(a) == complex(0.5, 1 / 3)


def test_integer_powers():
    i = RationalComplex(0, 1)
    assert i**2 == RationalComplex(-1)
    assert i**3 == RationalComplex(0, -1)
    assert i**4 == RationalComplex(1)
    assert (1 + i) ** 2 == RationalComplex(0, 2)


def test_is_exact_scalar():
    assert is_exact_scalar(3)
    assert is_exact_scalar(Fraction(1, 3))
    assert is_exact_scalar(RationalComplex(1, 2))
    assert not is_exact_scalar(0.5)
    assert not is_exact_scalar(1 + 2j)


# -- irrational constants ----------------------------------------------------


def test_constants_satisfy_their_defining_equations():
    assert abs(SQRT3 * SQRT3 - 3.0) < 1e-14
    assert abs(CBRT4**3 - 4.0) < 1e-13
    for eta in ETA:
        assert abs(eta**3 - 1.0) < 1e-14
    for zeta in ZETA:
        assert abs(zeta**4 - 1.0) < 1e-14
    assert len(set(ETA)) == 3 and len(set(ZETA)) == 4


def test_eta_zero_is_one():
    assert ETA[0] == 1 and ZETA[0] == 1


# -- parsing and formatting --------------------------------------------------


def test_parse_rational():
    # real integers and p/q parse to exact Fractions
    assert parse_complex("5/4") == Fraction(5, 4)
    assert type(parse_complex("5/4")) is Fraction
    assert parse_complex("-3") == Fraction(-3)
    with pytest.raises(ValueError):
        parse_complex("x")


def test_parse_complex_exact_forms():
    assert parse_complex("1/3+1/2i") == RationalComplex(Fraction(1, 3), Fraction(1, 2))
    assert parse_complex("-2i") == RationalComplex(0, -2)
    assert parse_complex("7") == Fraction(7)
    assert parse_complex("+i") == RationalComplex(0, 1)
    assert parse_complex("-i") == RationalComplex(0, -1)
    # decimal parts are floats, not exact
    z = parse_complex("0.5+0.25i")
    assert type(z) is complex and z == complex(0.5, 0.25)
    for bad in ("x", "1+", "1/0"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_complex_round_trip():
    z = complex(0.1, -2.5)
    assert complex(format_complex(z).replace("i", "j")) == z


# -- numeric helpers ---------------------------------------------------------


def test_cubic_roots_sum_and_product():
    # 4t^3 - 1 = 0: roots are (1/4)^(1/3) times the three cube roots of unity
    roots = cubic_roots(4, 0, -1)
    s = sum(roots)
    p = roots[0] * roots[1] * roots[2]
    assert abs(s) < 1e-10
    assert abs(p - 0.25) < 1e-10
    vals = sorted(abs(r) for r in roots)
    assert all(abs(v - 0.25 ** (1 / 3)) < 1e-10 for v in vals)


@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=40, deadline=None)
def test_cubic_roots_reconstruct_polynomial(r):
    """Random monic-up-to-scale cubics: the returned roots satisfy them."""
    a3, a1, a0 = 2.0, r, 1.5 - 0.5j
    for root in cubic_roots(a3, a1, a0):
        val = a3 * root**3 + a1 * root + a0
        scale = abs(a3) * (1 + abs(root)) ** 3 + abs(a1) * (1 + abs(root)) + abs(a0)
        assert abs(val) <= 1e-9 * scale


def test_agm_known_value():
    # classical AGM(1, 1/2); digits cross-checked against the arithmetic-
    # geometric iteration run in exact decimal arithmetic
    assert abs(complex_agm(1.0, 0.5) - 0.7283955155234534) < 1e-15


@given(
    st.complex_numbers(
        min_magnitude=0.2, max_magnitude=5, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=40, deadline=None)
def test_agm_symmetry_and_mean_bounds(a):
    b = a * 0.37 + 0.1  # keep the pair away from opposite signs
    m1 = complex_agm(a, b)
    m2 = complex_agm(b, a)
    assert abs(m1 - m2) <= 1e-13 * (1 + abs(m1))


def test_agm_homogeneous():
    m = complex_agm(1.0, 0.5)
    assert abs(complex_agm(3.0, 1.5) - 3.0 * m) < 1e-13


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_rho_five_fourths_has_rational_root():
    # the stock quadratic-family parameter: rho^2 - 1 = 9/16
    assert rational_sqrt(Fraction(5, 4) ** 2 - 1) == Fraction(3, 4)
