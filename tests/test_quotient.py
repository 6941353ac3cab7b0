"""Polynomial quotient ring Q(i)[P, X] / (X^2 - C(P)) used by the exact
adjudicator, with C the cubic from the Weierstrass differential law."""

from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab.quotient import QuotientElement, RationalPoly, quotient_adjudicate, ring
from fermatlab.scalars import RationalComplex

#: X^2 -> 4P^3 - 1, the cubic attached to invariants (0, 1)
ONE, P, X = ring([-1, 0, 0, 4])
CUBIC = ONE.cubic

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussian = st.builds(RationalComplex, small, small)


def polys(max_degree=3):
    return st.builds(RationalPoly.make, st.lists(small, min_size=1, max_size=max_degree + 1))


def elements():
    return st.builds(lambda e, o: QuotientElement(e, o, CUBIC), polys(), polys(2))


def _coeffs(p: RationalPoly) -> list:
    """The coefficients in ascending degree, read off the numerators."""
    return [RationalComplex(Fraction(r, p.den), Fraction(i, p.den)) for r, i in zip(p.re, p.im)]


def _trimmed(cs: list) -> list:
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


# -- plain polynomials -------------------------------------------------------


def test_make_trims_and_degree():
    p = RationalPoly.make([1, 2, 0, 0])
    assert len(p.re) - 1 == 1  # the degree
    assert _coeffs(p) == [RationalComplex(1), RationalComplex(2)]
    assert p == RationalPoly.make([Fraction(2, 2), RationalComplex(2)])
    assert RationalPoly.make([0, 0]) == RationalPoly.make(()) and RationalPoly.make(()).is_zero


def test_poly_evaluation_matches_horner():
    p = RationalPoly.make([Fraction(1, 2), -3, 0, 2])  # 2P^3 - 3P + 1/2
    x = RationalComplex(Fraction(1, 3), Fraction(1, 5))
    direct = (
        RationalComplex(2) * x**3
        - RationalComplex(3) * x
        + RationalComplex(Fraction(1, 2))
    )
    horner = RationalComplex(0)
    for c in reversed(_coeffs(p)):
        horner = horner * x + c
    assert horner == direct


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_poly_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert (a + a.scale(-1)).is_zero


def test_poly_pow_and_monomial():
    m = RationalPoly.make([0, 0, 0, 2])
    assert len(m.re) - 1 == 3 and _coeffs(m)[-1] == RationalComplex(2)
    assert m * m == RationalPoly.make([0] * 6 + [4])


@given(
    st.lists(gaussian, min_size=0, max_size=5),
    st.lists(gaussian, min_size=0, max_size=5),
    gaussian,
)
@settings(max_examples=60, deadline=None)
def test_poly_arithmetic_matches_schoolbook_reference(xs, ys, c):
    """Sums, products and scalings on the shared numerator kernel agree
    with coefficient-wise RationalComplex arithmetic."""
    a, b = RationalPoly.make(xs), RationalPoly.make(ys)
    zero = RationalComplex(0)
    total = [x + y for x, y in zip_longest(xs, ys, fillvalue=zero)]
    product = [zero] * max(len(xs) + len(ys) - 1, 0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            product[i + j] = product[i + j] + x * y
    for got, want in ((a + b, total), (a * b, product), (a.scale(c), [x * c for x in xs])):
        assert _coeffs(got) == _trimmed(want)
        assert got == RationalPoly.make(want)


# -- quotient elements -------------------------------------------------------


def test_x_squared_reduces_to_cubic():
    sq = X * X
    assert sq.odd.is_zero
    assert sq.even == CUBIC == RationalPoly.make([-1, 0, 0, 4])


def test_norm_identity():
    """(A + XB)(A - XB) = A^2 - C B^2 once X^2 is reduced."""
    a = ONE + P.scale(Fraction(1, 2)) + (P * P).scale(3)
    b = ONE.scale(-2) + P.scale(5)
    prod = (a + X * b) * (a - X * b)
    assert prod.odd.is_zero
    assert prod.even == a.even * a.even + (CUBIC * (b.even * b.even)).scale(-1)


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_element_commutativity(u, v):
    assert quotient_adjudicate(u * v - v * u) is None


@given(elements(), elements(), elements())
@settings(max_examples=30, deadline=None)
def test_element_associativity(u, v, w):
    assert quotient_adjudicate((u * v) * w - u * (v * w)) is None


def test_scalar_and_power_shortcuts():
    p2 = P * P
    combined = ONE.scale(2) * p2
    assert combined.even == RationalPoly.make([0, 0, 2])
    assert combined.odd.is_zero
    cube = p2 * p2 * p2
    assert cube.even == RationalPoly.make([0] * 6 + [1]) and cube.odd.is_zero
    assert P.scale(0).is_zero


def test_adjudicate_verdicts():
    assert quotient_adjudicate(ONE - ONE) is None
    assert quotient_adjudicate(ONE) == (["1"], [])


def test_known_zero_combination():
    """54 + 54 X^2 - 216 P^3 collapses once X^2 -> 4P^3 - 1."""
    elem = ONE.scale(54) + X * X.scale(54) + (P * P * P).scale(-216)
    assert quotient_adjudicate(elem) is None


def test_odd_part_survives_adjudication():
    even, odd = quotient_adjudicate(X * P)
    assert even == [] and odd == ["1", "0"]


def test_descending_strings():
    even = RationalPoly.make([Fraction(1, 12), Fraction(1, 36), 0, -4, Fraction(44, 3)])
    elem = QuotientElement(even, RationalPoly.make(()), CUBIC)
    assert quotient_adjudicate(elem) == (["44/3", "-4", "0", "1/36", "1/12"], [])


def test_sign_normalized_flips_negative_leading():
    flipped = QuotientElement(RationalPoly.make([1, -2]), RationalPoly.make([-1, 2]), CUBIC)
    assert quotient_adjudicate(flipped) == (["2", "-1"], ["2", "-1"])
    # a purely imaginary leading coefficient is flipped toward +i
    i = RationalComplex(0, 1)
    lead_i = (ONE + P.scale(i)).scale(-1)
    assert quotient_adjudicate(lead_i) == (["1i", "1"], [])
    assert quotient_adjudicate(lead_i.scale(-1)) == (["1i", "1"], [])
    # the zero part stays empty beside a nonzero one
    assert quotient_adjudicate(X.scale(-3)) == ([], ["3"])


def test_mixed_cubics_rejected():
    other, _, _ = ring([0, -1, 0, 4])
    with pytest.raises(ValueError):
        ONE + other
    with pytest.raises(ValueError):
        ONE * other
