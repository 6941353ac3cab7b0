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
# Parsing / formatting of scalars for the CLI and config surfaces.
# ---------------------------------------------------------------------------

_COMPLEX_RE = _re.compile(
    r"""^\s*
    (?P<re>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:/\d+)?)?
    (?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)?
    (?P<unit>[ij])?
    \s*$""",
    _re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or decimal notation into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}") from exc


def parse_complex(text: str) -> RationalComplex:
    """Parse ``a+bi`` (no spaces; parts rational or decimal) exactly.

    Accepted forms include ``2``, ``-1.5``, ``3i``, ``0.3+0.2i``,
    ``1/2-3/4i``, ``i``, ``-i``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty complex literal")
    m = _COMPLEX_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None and m.group("unit") is None):
        raise ValueError(f"cannot parse complex literal {text!r}")
    re_part, im_part, unit = m.group("re"), m.group("im"), m.group("unit")
    try:
        if unit is None:
            if im_part is not None:
                raise ValueError(f"cannot parse complex literal {text!r}")
            return RationalComplex(Fraction(re_part), 0)
        # trailing i: the imaginary magnitude is im_part if present, else re_part
        if im_part is not None:
            re_val = Fraction(re_part) if re_part is not None else Fraction(0)
            im_val = Fraction(im_part) if im_part not in ("+", "-") else Fraction(im_part + "1")
            return RationalComplex(re_val, im_val)
        if re_part is not None:
            return RationalComplex(0, Fraction(re_part))
        return RationalComplex(0, 1)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def format_complex(z: complex, digits: int = 17) -> str:
    re_s = format(z.real, f".{digits}g")
    im_s = format(abs(z.imag), f".{digits}g")
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


def complex_agm(a: complex, b: complex, rel_tol: float = 1e-14, max_iter: int = 64) -> complex:
    """Common limit of the AGM iteration with right-choice square roots.

    Preconditions: a, b and a + b nonzero.  Convergence is declared when
    |a - b| <= rel_tol * max(|a|, |b|).
    """
    a = complex(a)
    b = complex(b)
    if a == 0 or b == 0:
        raise ValueError("AGM arguments must be nonzero")
    if a + b == 0:
        raise ValueError("AGM undefined for a + b == 0")
    for _ in range(max_iter):
        if abs(a - b) <= rel_tol * max(abs(a), abs(b)):
            return (a + b) / 2
        mean = (a + b) / 2
        geo = right_choice_sqrt(a * b, mean)
        a, b = mean, geo
        if a == 0 or a + b == 0:
            raise ConvergenceError("AGM iteration hit a degenerate pair")
    raise ConvergenceError(f"AGM did not converge within {max_iter} iterations")


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
