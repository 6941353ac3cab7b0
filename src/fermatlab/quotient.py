"""Exact polynomial arithmetic over Q(i) and the quotient-ring adjudicator.

Identities between the catalog's meromorphic solution pairs reduce, after
clearing denominators and pairing off irrational constants, to statements in
the commutative ring Q(i)[P, X] / (X^2 - C(P)) where C is the cubic from the
differential equation satisfied by the parametrizing function.  An element is
stored as evenPart(P) + X * oddPart(P); multiplication eagerly rewrites X^2
via C, so "is this identically zero" becomes "are both parts the zero
polynomial" -- an exact, machine-checkable verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import RationalComplex


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial over Q(i); coeffs[k] multiplies t**k."""

    coeffs: tuple

    @staticmethod
    def make(coeffs) -> "RationalPoly":
        cs = [RationalComplex.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        return RationalPoly(tuple(cs))

    @staticmethod
    def zero() -> "RationalPoly":
        return RationalPoly(())

    @staticmethod
    def constant(c) -> "RationalPoly":
        return RationalPoly.make([c])

    @staticmethod
    def monomial(c, k: int) -> "RationalPoly":
        return RationalPoly.make([0] * k + [c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> RationalComplex:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RationalComplex(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly.make(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __neg__(self):
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return RationalPoly.zero()
        out = [RationalComplex(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RationalPoly.make(out)

    def scale(self, c) -> "RationalPoly":
        c = RationalComplex.coerce(c)
        return RationalPoly.make([a * c for a in self.coeffs])

    def __pow__(self, k: int):
        out = RationalPoly.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def leading_coefficient(self) -> RationalComplex:
        return self.coeffs[-1] if self.coeffs else RationalComplex(0)

    def descending_strings(self) -> list[str]:
        """Coefficients from the top degree down, as exact strings."""
        return [str(self.coefficient(k)) for k in range(self.degree, -1, -1)]


@dataclass(frozen=True)
class QuotientElement:
    """evenPart(P) + X * oddPart(P) in Q(i)[P, X] / (X^2 - cubic(P))."""

    even: RationalPoly
    odd: RationalPoly
    cubic: RationalPoly

    def _check(self, other: "QuotientElement"):
        if self.cubic != other.cubic:
            raise ValueError("elements live in different quotient rings")

    @staticmethod
    def from_scalar(c, cubic: RationalPoly) -> "QuotientElement":
        return QuotientElement(RationalPoly.constant(c), RationalPoly.zero(), cubic)

    @staticmethod
    def p_power(k: int, cubic: RationalPoly) -> "QuotientElement":
        return QuotientElement(RationalPoly.monomial(1, k), RationalPoly.zero(), cubic)

    @staticmethod
    def x_times(poly: RationalPoly, cubic: RationalPoly) -> "QuotientElement":
        return QuotientElement(RationalPoly.zero(), poly, cubic)

    @property
    def is_zero(self) -> bool:
        return self.even.is_zero and self.odd.is_zero

    def __add__(self, other):
        self._check(other)
        return QuotientElement(self.even + other.even, self.odd + other.odd, self.cubic)

    def __neg__(self):
        return QuotientElement(-self.even, -self.odd, self.cubic)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # (a + X b)(c + X d) = (ac + C bd) + X (ad + bc), using X^2 -> C
        even = self.even * other.even + self.cubic * (self.odd * other.odd)
        odd = self.even * other.odd + self.odd * other.even
        return QuotientElement(even, odd, self.cubic)

    def scale(self, c) -> "QuotientElement":
        return QuotientElement(self.even.scale(c), self.odd.scale(c), self.cubic)

    def __pow__(self, k: int):
        out = QuotientElement.from_scalar(1, self.cubic)
        for _ in range(k):
            out = out * self
        return out


@dataclass(frozen=True)
class RingVerdict:
    """Outcome of exact adjudication in the quotient ring.

    ``even_residual`` and ``odd_residual`` are reported verbatim (no sign
    massaging): a residual is only defined up to which side of the identity
    was subtracted, and callers that need comparability normalize explicitly.
    """

    is_zero: bool
    even_residual: RationalPoly
    odd_residual: RationalPoly

    @property
    def verdict(self) -> str:
        return "ZERO" if self.is_zero else "NONZERO"


def quotient_adjudicate(elem: QuotientElement) -> RingVerdict:
    """ZERO iff both parts vanish identically; residual polynomials verbatim."""
    return RingVerdict(elem.is_zero, elem.even, elem.odd)


def sign_normalized(poly: RationalPoly) -> RationalPoly:
    """Flip the overall sign so the leading coefficient has positive real part
    (ties broken toward positive imaginary part).  Residual polynomials differ
    by a global sign depending on which side of an identity was subtracted;
    this makes reports comparable."""
    lead = poly.leading_coefficient()
    if lead.re < 0 or (lead.re == 0 and lead.im < 0):
        return -poly
    return poly
