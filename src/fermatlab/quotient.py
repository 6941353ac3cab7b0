"""Exact polynomial arithmetic over Q(i) and the quotient-ring adjudicator.

Identities between the catalog's meromorphic solution pairs reduce, after
clearing denominators and pairing off irrational constants, to statements in
the commutative ring Q(i)[P, X] / (X^2 - C(P)) where C is the cubic from the
differential equation satisfied by the parametrizing function.  An element is
stored as evenPart(P) + X * oddPart(P); multiplication eagerly rewrites X^2
via C, so "is this identically zero" becomes "are both parts the zero
polynomial" -- an exact, machine-checkable verdict.

Polynomials keep the representation of ``series.LaurentSeries``: Gaussian
integer numerators over one reduced common denominator, multiplied by the
series layer's product kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import lcm

from .series import _cmul, _numerators, _parts, _reduce, _view


def _poly(den, re, im) -> "RationalPoly":
    """Polynomial from numerators over den: drops zero top terms and reduces."""
    n = len(re)
    while n and re[n - 1] == 0 and im[n - 1] == 0:
        n -= 1
    return RationalPoly(*_reduce(den, re[:n], im[:n]))


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial over Q(i): coefficient k, multiplying
    t**k, is (re[k] + i*im[k]) / den; no zero top term, so equality is
    equality of polynomials."""

    den: int
    re: tuple
    im: tuple

    @staticmethod
    def make(coeffs) -> "RationalPoly":
        """From coefficients in ascending degree: ints, Fractions or
        RationalComplex values."""
        return _poly(*_numerators(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.re

    def __add__(self, other):
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return _poly(
            den,
            [f * a + g * b for a, b in zip_longest(self.re, other.re, fillvalue=0)],
            [f * a + g * b for a, b in zip_longest(self.im, other.im, fillvalue=0)],
        )

    def __mul__(self, other):
        n = len(self.re) + len(other.re) - 1
        return _poly(self.den * other.den, *_cmul(self.re, self.im, other.re, other.im, 0, n))

    def scale(self, c) -> "RationalPoly":
        cr, ci, cd = _parts(c)
        return _poly(self.den * cd, *_cmul(self.re, self.im, (cr,), (ci,), 0, len(self.re)))


@dataclass(frozen=True)
class QuotientElement:
    """evenPart(P) + X * oddPart(P) in Q(i)[P, X] / (X^2 - cubic(P))."""

    even: RationalPoly
    odd: RationalPoly
    cubic: RationalPoly

    def _check(self, other: "QuotientElement"):
        if self.cubic != other.cubic:
            raise ValueError("elements live in different quotient rings")

    @property
    def is_zero(self) -> bool:
        return self.even.is_zero and self.odd.is_zero

    def __add__(self, other):
        self._check(other)
        return QuotientElement(self.even + other.even, self.odd + other.odd, self.cubic)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        # (a + X b)(c + X d) = (ac + C bd) + X (ad + bc), using X^2 -> C
        even = self.even * other.even + self.cubic * (self.odd * other.odd)
        odd = self.even * other.odd + self.odd * other.even
        return QuotientElement(even, odd, self.cubic)

    def scale(self, c) -> "QuotientElement":
        return QuotientElement(self.even.scale(c), self.odd.scale(c), self.cubic)


def ring(cubic_coeffs) -> tuple:
    """(1, P, X) of Q(i)[P, X] / (X^2 - C), the coefficients of the cubic C
    given in ascending degree."""
    cubic = RationalPoly.make(cubic_coeffs)
    zero, one = RationalPoly.make(()), RationalPoly.make([1])
    return (
        QuotientElement(one, zero, cubic),
        QuotientElement(RationalPoly.make([0, 1]), zero, cubic),
        QuotientElement(zero, one, cubic),
    )


def _descending(poly: RationalPoly) -> list[str]:
    """Coefficients from the top degree down, as exact strings, with the
    overall sign flipped so the leading coefficient has positive real part
    (ties broken toward positive imaginary part)."""
    s = -1 if poly.re and (poly.re[-1], poly.im[-1]) < (0, 0) else 1
    return [str(_view(poly.den, s * r, s * i)) for r, i in zip(poly.re[::-1], poly.im[::-1])]


def quotient_adjudicate(elem: QuotientElement):
    """None when elem is zero; otherwise the descending coefficient strings
    of its even and odd parts, each sign-normalized: a residual is defined
    only up to which side of the identity was subtracted, so equivalent
    write-ups of one failure report the same strings."""
    if elem.is_zero:
        return None
    return _descending(elem.even), _descending(elem.odd)
