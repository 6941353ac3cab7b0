"""Polynomial quotient ring Q(i)[P, X] / (X^2 - C(P)) used by the exact
adjudicator, with C the cubic from the Weierstrass differential law."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab.quotient import (
    QuotientElement,
    RationalPoly,
    quotient_adjudicate,
    sign_normalized,
)
from fermatlab.scalars import RationalComplex

#: X^2 -> 4P^3 - 1, the cubic attached to invariants (0, 1)
CUBIC = RationalPoly.make([-1, 0, 0, 4])

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(max_degree=3):
    return st.builds(
        RationalPoly.make, st.lists(small, min_size=1, max_size=max_degree + 1)
    )


def elements():
    return st.builds(
        lambda e, o: QuotientElement(e, o, CUBIC), polys(), polys(2)
    )


# -- plain polynomials -------------------------------------------------------


def test_make_trims_and_degree():
    p = RationalPoly.make([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coefficient(1) == RationalComplex(2)
    assert p.coefficient(7) == RationalComplex(0)
    assert RationalPoly.zero().degree == -1


def test_poly_evaluation_matches_horner():
    p = RationalPoly.make([Fraction(1, 2), -3, 0, 2])  # 2P^3 - 3P + 1/2
    x = RationalComplex(Fraction(1, 3), Fraction(1, 5))
    direct = (
        RationalComplex(2) * x**3
        - RationalComplex(3) * x
        + RationalComplex(Fraction(1, 2))
    )
    horner = RationalComplex(0)
    for c in reversed(p.coeffs):
        horner = horner * x + c
    assert horner == direct


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_poly_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


def test_poly_pow_and_monomial():
    m = RationalPoly.monomial(Fraction(2), 3)
    assert m.degree == 3 and m.leading_coefficient() == RationalComplex(2)
    assert m**2 == RationalPoly.monomial(Fraction(4), 6)


def test_descending_strings():
    p = RationalPoly.make([Fraction(1, 12), Fraction(1, 36), 0, -4, Fraction(44, 3)])
    assert p.descending_strings() == ["44/3", "-4", "0", "1/36", "1/12"]


def test_sign_normalized_flips_negative_leading():
    p = RationalPoly.make([1, -2])
    q = sign_normalized(p)
    assert q.leading_coefficient() == RationalComplex(2)
    assert sign_normalized(q) == q
    assert sign_normalized(RationalPoly.zero()) == RationalPoly.zero()


# -- quotient elements -------------------------------------------------------


def test_x_squared_reduces_to_cubic():
    x = QuotientElement.x_times(RationalPoly.constant(1), CUBIC)
    sq = x * x
    assert sq.odd.is_zero
    assert sq.even == CUBIC


def test_norm_identity():
    """(A + XB)(A - XB) = A^2 - C B^2 once X^2 is reduced."""
    a = RationalPoly.make([1, Fraction(1, 2), 3])
    b = RationalPoly.make([-2, 5])
    plus = QuotientElement(a, b, CUBIC)
    minus = QuotientElement(a, -b, CUBIC)
    prod = plus * minus
    assert prod.odd.is_zero
    assert prod.even == a * a - CUBIC * (b * b)


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_element_commutativity(u, v):
    assert quotient_adjudicate(u * v - v * u).is_zero


@given(elements(), elements(), elements())
@settings(max_examples=30, deadline=None)
def test_element_associativity(u, v, w):
    assert quotient_adjudicate((u * v) * w - u * (v * w)).is_zero


def test_scalar_and_power_shortcuts():
    two = QuotientElement.from_scalar(2, CUBIC)
    p2 = QuotientElement.p_power(2, CUBIC)
    combined = two * p2
    assert combined.even == RationalPoly.monomial(Fraction(2), 2)
    assert combined.odd.is_zero
    cube = p2**3
    assert cube.even == RationalPoly.monomial(Fraction(1), 6)


def test_adjudicate_verdicts():
    zero = QuotientElement.from_scalar(0, CUBIC)
    assert quotient_adjudicate(zero).verdict == "ZERO"
    one = QuotientElement.from_scalar(1, CUBIC)
    rv = quotient_adjudicate(one)
    assert rv.verdict == "NONZERO" and not rv.is_zero
    assert rv.even_residual.descending_strings() == ["1"]
    assert rv.odd_residual.is_zero


def test_known_zero_combination():
    """54 + 54 X^2 - 216 P^3 collapses once X^2 -> 4P^3 - 1."""
    elem = (
        QuotientElement.from_scalar(54, CUBIC)
        + QuotientElement.x_times(RationalPoly.constant(1), CUBIC)
        * QuotientElement.x_times(RationalPoly.constant(54), CUBIC)
        + QuotientElement.p_power(3, CUBIC).scale(-216)
    )
    assert quotient_adjudicate(elem).is_zero


def test_odd_part_survives_adjudication():
    elem = QuotientElement.x_times(RationalPoly.make([0, 1]), CUBIC)
    rv = quotient_adjudicate(elem)
    assert rv.verdict == "NONZERO"
    assert rv.odd_residual.descending_strings() == ["1", "0"]


def test_mixed_cubics_rejected():
    other = RationalPoly.make([0, -1, 0, 4])
    u = QuotientElement.from_scalar(1, CUBIC)
    v = QuotientElement.from_scalar(1, other)
    with pytest.raises(ValueError):
        u + v
