"""Scalar arithmetic foundations.

Two coefficient domains are used throughout the package:

* exact mode -- Gaussian rationals (elements of Q(i)) built on
  ``fractions.Fraction``; every operation is exact and deterministic.
* float mode -- the builtin ``complex``; fast, used by the numeric engine.

This module also provides the algebraic constants that appear in the
solution families (sqrt(3), 4^(1/3), roots of unity), a depressed-cubic
root solver and the complex arithmetic-geometric mean with the standard
"right choice" square-root branch rule.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class RationalComplex:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    # -- coercion -----------------------------------------------------------
    @staticmethod
    def coerce(x) -> "RationalComplex":
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalComplex(x, 0)
        raise TypeError(f"cannot coerce {x!r} to RationalComplex")

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        o = RationalComplex.coerce(other)
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-RationalComplex.coerce(other))

    def __rsub__(self, other):
        return RationalComplex.coerce(other) + (-self)

    def __mul__(self, other):
        o = RationalComplex.coerce(other)
        return RationalComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        o = RationalComplex.coerce(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        n = self * o.conjugate()
        return RationalComplex(n.re / d, n.im / d)

    def __rtruediv__(self, other):
        return RationalComplex.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return (RationalComplex(1) / self) ** (-k)
        out = RationalComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- views --------------------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, RationalComplex))


# ---------------------------------------------------------------------------
# Algebraic constants (float views; exact identities about them are used only
# after rationalization, see the quotient-ring adjudicator).
# ---------------------------------------------------------------------------

SQRT3: float = math.sqrt(3.0)
CBRT4: float = 4.0 ** (1.0 / 3.0)  # principal real cube root
#: cube roots of unity eta^k, k = 0, 1, 2
ETA: tuple[complex, ...] = tuple(cmath.exp(2j * cmath.pi * k / 3) for k in range(3))
#: fourth roots of unity zeta^k, k = 0, 1, 2, 3
ZETA: tuple[complex, ...] = (1 + 0j, 1j, -1 + 0j, -1j)


# ---------------------------------------------------------------------------
# Parsing / formatting of scalars for the CLI.
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
# either "a" / "a+bi" / "a-bi", or a pure-imaginary "bi" / "+i" / "-2/3i"
_COMPLEX_RE = _re.compile(
    rf"^(?P<re>[+-]?{_NUM})(?P<im1>[+-](?:{_NUM})?i)?$"
    rf"|^(?P<im2>[+-]?(?:{_NUM})?i)$"
)


def _part_value(text: str):
    """One signed real token -> Fraction (exact forms) or float."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
    if _re.fullmatch(r"[+-]?\d+", text):
        return Fraction(int(text))
    return float(text)


def parse_complex(text: str):
    """Parse "a+bi" (no spaces) into an exact scalar (Fraction or Gaussian
    rational) when both parts are integers or p/q fractions, else a complex
    float."""
    s = text.strip()
    m = _COMPLEX_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse complex number {text!r}")
    re_part = m.group("re")
    im_part = m.group("im1") or m.group("im2")
    re_val = _part_value(re_part) if re_part is not None else Fraction(0)
    if im_part is None:
        im_val = Fraction(0)
    else:
        body = im_part[:-1]  # strip the trailing i
        if body in ("", "+"):
            im_val = Fraction(1)
        elif body == "-":
            im_val = Fraction(-1)
        else:
            im_val = _part_value(body)
    if isinstance(re_val, Fraction) and isinstance(im_val, Fraction):
        if im_val == 0:
            return re_val
        return RationalComplex(re_val, im_val)
    return complex(float(re_val), float(im_val))


def format_complex(z: complex) -> str:
    """z as a+bi with 17 significant digits per part, enough to round-trip."""
    re_s = format(z.real, ".17g")
    im_s = format(abs(z.imag), ".17g")
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_s}{sign}{im_s}i"


# ---------------------------------------------------------------------------
# Depressed cubic roots.
# ---------------------------------------------------------------------------


def cubic_roots(a3: complex, a1: complex, a0: complex) -> tuple[complex, complex, complex]:
    """Roots of a3*t^3 + a1*t + a0 (no quadratic term), polished by Newton
    and sorted by (re, im).

    Raises ValueError for a3 == 0 and ConvergenceError if the polished
    residual fails the contract |p(root)| < 1e-12 * scale.
    """
    a3 = complex(a3)
    a1 = complex(a1)
    a0 = complex(a0)
    if a3 == 0:
        raise ValueError("leading cubic coefficient must be nonzero")
    roots = np.roots([a3, 0.0, a1, a0])

    def poly(t):
        return a3 * t * t * t + a1 * t + a0

    def dpoly(t):
        return 3 * a3 * t * t + a1

    polished = []
    for r in roots:
        t = complex(r)
        for _ in range(3):
            d = dpoly(t)
            if d == 0:
                break
            t = t - poly(t) / d
        polished.append(t)

    big = max(1.0, max(abs(t) for t in polished))
    scale = max(1.0, abs(a3) * big**3, abs(a1) * big, abs(a0))
    for t in polished:
        if abs(poly(t)) >= 1e-12 * scale:
            raise ConvergenceError(
                f"cubic root polish failed: residual {abs(poly(t)):.3e} at {t}"
            )
    polished.sort(key=lambda t: (t.real, t.imag))
    return tuple(polished)


# ---------------------------------------------------------------------------
# Complex arithmetic-geometric mean.
# ---------------------------------------------------------------------------


def right_choice_sqrt(prod: complex, mean: complex) -> complex:
    """Principal square root of ``prod`` with its sign flipped when needed so
    that |mean - root| <= |mean + root| (the standard AGM branch rule)."""
    root = cmath.sqrt(prod)
    if abs(mean - root) > abs(mean + root):
        root = -root
    return root


#: the AGM has converged when |a - b| <= _AGM_REL_TOL * max(|a|, |b|), and
#: must do so within _AGM_MAX_ITER iterations
_AGM_REL_TOL = 1e-14
_AGM_MAX_ITER = 64


def complex_agm(a: complex, b: complex) -> complex:
    """Common limit of the AGM iteration with right-choice square roots.

    Preconditions: a, b and a + b nonzero.
    """
    a = complex(a)
    b = complex(b)
    if a == 0 or b == 0:
        raise ValueError("AGM arguments must be nonzero")
    if a + b == 0:
        raise ValueError("AGM undefined for a + b == 0")
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_REL_TOL * max(abs(a), abs(b)):
            return (a + b) / 2
        mean = (a + b) / 2
        geo = right_choice_sqrt(a * b, mean)
        a, b = mean, geo
        if a == 0 or a + b == 0:
            raise ConvergenceError("AGM iteration hit a degenerate pair")
    raise ConvergenceError(f"AGM did not converge within {_AGM_MAX_ITER} iterations")


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
