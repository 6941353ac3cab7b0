"""The catalog of explicit solution families.

Each builder returns a SolutionFamily carrying numeric expression trees
(f, g, and for the derivative-coupled kind also h) together with an exact
residual recipe.  The exact recipe is stated in the base variable w; since
composition with an entire reparametrization preserves pointwise identities,
one exact adjudication covers every choice of the composition slot.

Irrational constants (sqrt(3), the real cube root of 4, cube roots of unity)
never reach the exact layer: the stored residuals are hand-rationalized by
parity pairing -- (a+b)^k + (a-b)^k keeps only even powers of b -- and by the
exact cubes/fourth powers of the roots of unity, so adjudication happens in
Q(i) alone.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateLatticeError
from .exprs import (
    Const,
    Exp,
    Expr,
    W,
    Wp,
    WpPrime,
    differentiate,
)
from .quotient import (
    QuotientElement,
    RationalPoly,
    RingVerdict,
    quotient_adjudicate,
    sign_normalized,
)
from .scalars import (
    CBRT4,
    ETA,
    SQRT3,
    ZETA,
    RationalComplex,
    format_complex,
    is_exact_scalar,
    rational_sqrt,
)
from .series import LaurentSeries, exp_series
from .wp import (
    check_range,
    engine_for,
    invariants_from_case,
    invariants_from_tau,
    second_derivative_constant,
    tau_cubic_coefficients,
    tau_is_degenerate,
)

# ---------------------------------------------------------------------------
# Exact residual recipes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingResidual:
    """Cleared-denominator residual as a quotient-ring element."""

    element: QuotientElement
    description: str


@dataclass(frozen=True)
class SeriesResidual:
    """Exact Laurent-series recipe for the residual in the base variable."""

    build: Callable[[int], LaurentSeries]
    description: str


@dataclass(frozen=True)
class PolyResidual:
    """Residual as a polynomial identity in one formal parameter."""

    poly: RationalPoly
    var: str
    description: str


@dataclass(frozen=True)
class FamilyParams:
    eta_index: int = 0
    zeta_index: int = 0
    variant: Optional[int] = None
    rho: object = None
    sign: Optional[str] = None
    tau: object = None
    exponent: Optional[int] = None
    ell: Optional[int] = None
    gamma: object = None
    delta: object = None
    slot: str = "w"

    def to_dict(self) -> dict:
        out = {}
        for field in dataclasses.fields(self):
            val = getattr(self, field.name)
            if val is not None:
                out[field.name] = _format_param(val)
        return out


def _format_param(v) -> object:
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, RationalComplex):
        return str(v)
    if isinstance(v, complex):
        return format_complex(v)
    if isinstance(v, float):
        return v
    return str(v)


@dataclass(frozen=True)
class SolutionFamily:
    """One catalog entry: expressions, exponents, kind and exact residual."""

    family_id: str
    kind: str  # fermat | quadratic | cubic | corollary
    m: int
    n: int
    f: Expr
    g: Expr
    params: FamilyParams
    exact_residual: object = None
    h: Optional[Expr] = None
    ell: Optional[int] = None
    degenerate: bool = False

    def residual_expr(self) -> Expr:
        """The defining equation's left side minus one."""
        if self.kind in ("fermat", "corollary"):
            return self.f**self.m + self.g**self.n - Const(1)
        if self.kind == "quadratic":
            rho = complex(self.params.rho)
            coeff = 2.0 * rho if self.params.sign == "plus" else -2.0 * rho
            return self.f**2 + Const(coeff) * self.f * self.g + self.g**2 - Const(1)
        if self.kind == "cubic":
            tc = complex(self.params.tau)
            return self.f**3 - Const(3.0 * tc) * self.f * self.g + self.g**3 - Const(1)
        raise ValueError(f"unknown kind {self.kind!r}")

    def derivative_identity_expr(self) -> Expr:
        """Derivative of the defining equation: m f^(m-1) f' + n g^(n-1) g'."""
        fp = differentiate(self.f)
        gp = differentiate(self.g)
        return (
            Const(self.m) * self.f ** (self.m - 1) * fp
            + Const(self.n) * self.g ** (self.n - 1) * gp
        )


# ---------------------------------------------------------------------------
# Adjudication.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyVerdict:
    family_id: str
    verdict: str  # ZERO | NONZERO | UNAVAILABLE
    route: str  # ring | series | poly | none
    description: str
    even_coeffs_desc: Optional[list] = None
    odd_coeffs_desc: Optional[list] = None
    series_leading: Optional[list] = None
    poly_coeffs_desc: Optional[list] = None

    @property
    def is_zero(self) -> bool:
        return self.verdict == "ZERO"


def adjudicate(family: SolutionFamily, order: int = 40) -> FamilyVerdict:
    """Exact verdict for the family's defining identity.

    Ring residuals are reported sign-normalized (leading coefficient with
    positive real part) so that algebraically equivalent write-ups of the
    same failure produce identical reports.
    """
    res = family.exact_residual
    if res is None:
        return FamilyVerdict(
            family.family_id,
            "UNAVAILABLE",
            "none",
            "no exact residual recipe for these parameters (numeric scans only)",
        )
    if isinstance(res, RingResidual):
        rv: RingVerdict = quotient_adjudicate(res.element)
        if rv.is_zero:
            return FamilyVerdict(family.family_id, "ZERO", "ring", res.description)
        even = sign_normalized(rv.even_residual)
        odd = sign_normalized(rv.odd_residual)
        return FamilyVerdict(
            family.family_id,
            "NONZERO",
            "ring",
            res.description,
            even_coeffs_desc=even.descending_strings(),
            odd_coeffs_desc=odd.descending_strings(),
        )
    if isinstance(res, SeriesResidual):
        s = res.build(order)
        if s.is_zero_through(order):
            return FamilyVerdict(family.family_id, "ZERO", "series", res.description)
        leading = [[k, str(c)] for k, c in s.leading_terms(4)]
        return FamilyVerdict(
            family.family_id,
            "NONZERO",
            "series",
            res.description,
            series_leading=leading,
        )
    if isinstance(res, PolyResidual):
        if res.poly.is_zero:
            return FamilyVerdict(family.family_id, "ZERO", "poly", res.description)
        return FamilyVerdict(
            family.family_id,
            "NONZERO",
            "poly",
            res.description,
            poly_coeffs_desc=sign_normalized(res.poly).descending_strings(),
        )
    raise TypeError(f"unknown residual recipe {res!r}")


# ---------------------------------------------------------------------------
# Ring scaffolding.
# ---------------------------------------------------------------------------


def _ring(cubic_coeffs_ascending):
    cubic = RationalPoly.make(cubic_coeffs_ascending)
    one = QuotientElement.from_scalar(1, cubic)
    p = QuotientElement.p_power(1, cubic)
    x = QuotientElement.x_times(RationalPoly.constant(1), cubic)
    return cubic, one, p, x


def _slot_label(expr: Optional[Expr]) -> str:
    if expr is None or expr is W:
        return "w"
    if isinstance(expr, Exp) and expr.arg is W:
        return "e^w"
    if isinstance(expr, Const):
        return "constant"
    return "custom"


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------

#: largest real or imaginary part of the quadratic family's rho: the float
#: route's rho_2 = rho - sqrt(rho^2 - 1), about 1/(2 rho), cancels and
#: rounds to zero from about 1e8 on, and f then divides by it
MAX_RHO = 1e7
#: largest m of the m-one family: its exact series takes m - 1 products;
#: at m = 16 and [series] order = 400, adjudication takes about 10 s on
#: one core of a 2-core Xeon VM with CPython 3.11
MAX_M_ONE_EXPONENT = 16
#: largest real or imaginary part of the picard-pair exponents gamma and
#: delta: e^gamma overflows a double beyond Re(gamma) = 709.78, and e^gamma
#: is periodic in Im(gamma), so a larger imaginary part adds nothing
MAX_PAIR_EXPONENT = 700


def build_case_i(alpha: Optional[Expr] = None) -> SolutionFamily:
    """Degree-(2,2) pair f = (1-a^2)/(1+a^2), g = 2a/(1+a^2) for a
    meromorphic parameter a; the identity is polynomial in the parameter."""
    alpha = Exp(W) if alpha is None else alpha
    one = Const(1)
    f = (one - alpha**2) / (one + alpha**2)
    g = (Const(2) * alpha) / (one + alpha**2)
    a = RationalPoly.monomial(1, 1)
    unit = RationalPoly.constant(1)
    poly = (unit - a * a) ** 2 + (a * a).scale(4) - (unit + a * a) ** 2
    return SolutionFamily(
        family_id="case1",
        kind="fermat",
        m=2,
        n=2,
        f=f,
        g=g,
        params=FamilyParams(slot=_slot_label(alpha)),
        exact_residual=PolyResidual(
            poly,
            "a",
            "(1-a^2)^2 + 4a^2 - (1+a^2)^2 as a polynomial in the parameter a",
        ),
        degenerate=isinstance(alpha, Const),
    )


def build_case_ii(eta_index: int = 0, beta: Optional[Expr] = None) -> SolutionFamily:
    """Degree-(3,3) elliptic pair on invariants (0, 1):
    f = (3 + sqrt(3) X)/(6 P), g = eta (3 - sqrt(3) X)/(6 P)."""
    if eta_index not in (0, 1, 2):
        raise ValueError("eta_index must be 0, 1 or 2")
    beta = W if beta is None else beta
    eng = engine_for(invariants_from_case("II"))
    p = Wp(eng, beta)
    x = WpPrime(eng, beta)
    eta = ETA[eta_index]
    f = (Const(3) + Const(SQRT3) * x) / (Const(6) * p)
    g = Const(eta) * (Const(3) - Const(SQRT3) * x) / (Const(6) * p)
    _, one, P, X = _ring([-1, 0, 0, 4])  # X^2 -> 4P^3 - 1
    elem = (
        one.scale(54) + (X * X).scale(54) - (P * P * P).scale(216)
    )  # parity pairing of (3 + s X)^3 + (3 - s X)^3 with s^2 = 3, eta^3 = 1
    return SolutionFamily(
        family_id="case2",
        kind="fermat",
        m=3,
        n=3,
        f=f,
        g=g,
        params=FamilyParams(eta_index=eta_index, slot=_slot_label(beta)),
        exact_residual=RingResidual(
            elem, "54 + 54 X^2 - 216 P^3 with X^2 -> 4P^3 - 1"
        ),
    )


def build_case_iii(eta_index: int = 0, beta: Optional[Expr] = None) -> SolutionFamily:
    """Degree-(2,3) elliptic pair on invariants (0, 1):
    f = i X, g = eta 4^(1/3) P."""
    if eta_index not in (0, 1, 2):
        raise ValueError("eta_index must be 0, 1 or 2")
    beta = W if beta is None else beta
    eng = engine_for(invariants_from_case("III"))
    p = Wp(eng, beta)
    x = WpPrime(eng, beta)
    eta = ETA[eta_index]
    f = Const(1j) * x
    g = Const(eta * CBRT4) * p
    _, one, P, X = _ring([-1, 0, 0, 4])
    i = RationalComplex(0, 1)
    xi = QuotientElement.x_times(RationalPoly.constant(i), X.cubic)
    elem = (xi * xi) + (P * P * P).scale(4) - one  # (iX)^2 + 4P^3 - 1
    return SolutionFamily(
        family_id="case3",
        kind="fermat",
        m=2,
        n=3,
        f=f,
        g=g,
        params=FamilyParams(eta_index=eta_index, slot=_slot_label(beta)),
        exact_residual=RingResidual(
            elem, "(iX)^2 + 4P^3 - 1 with X^2 -> 4P^3 - 1 (cube of eta and of 4^(1/3) rationalized)"
        ),
    )


def build_case_iv(
    variant: int = 1, zeta_index: int = 0, beta: Optional[Expr] = None
) -> SolutionFamily:
    """Degree-(2,4) elliptic pair on invariants (-1/12, -1/6), as printed.

    variant 1: f = (-4P^3 + P/12 + 1/3)/(4P^3 + P/12 + 1/6), g = 2 zeta P / X
    variant 2: f = i(4P^3 - P/12 - 1/3)/(4P^2),            g = zeta i X / (2P)
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if zeta_index not in (0, 1, 2, 3):
        raise ValueError("zeta_index must be 0..3")
    beta = W if beta is None else beta
    eng = engine_for(invariants_from_case("IV"))
    p = Wp(eng, beta)
    x = WpPrime(eng, beta)
    zeta = ZETA[zeta_index]
    third = Fraction(1, 3)
    twelfth = Fraction(1, 12)
    if variant == 1:
        f = (Const(-4) * p**3 + Const(twelfth) * p + Const(third)) / (
            Const(4) * p**3 + Const(twelfth) * p + Const(Fraction(1, 6))
        )
        g = (Const(2 * zeta) * p) / x
    else:
        f = Const(1j) * (Const(4) * p**3 - Const(twelfth) * p - Const(third)) / (
            Const(4) * p**2
        )
        g = (Const(zeta * 1j) * x) / (Const(2) * p)
    cubic, one, P, X = _ring([Fraction(1, 6), Fraction(1, 12), 0, 4])
    d_poly = QuotientElement(cubic, RationalPoly.zero(), cubic)  # D = the cubic itself
    z4 = RationalComplex(0, 1) ** (4 * zeta_index)  # zeta^4, exactly 1
    p4 = (P * P * P * P).scale(z4 * 16)
    if variant == 1:
        n_poly = QuotientElement(
            RationalPoly.make([third, twelfth, 0, -4]), RationalPoly.zero(), cubic
        )
        elem = n_poly * n_poly + p4 - d_poly * d_poly
        desc = "N^2 + 16 P^4 - D^2, N = -4P^3 + P/12 + 1/3, D = 4P^3 + P/12 + 1/6"
    else:
        m_poly = QuotientElement(
            RationalPoly.make([-third, -twelfth, 0, 4]), RationalPoly.zero(), cubic
        )
        elem = d_poly * d_poly - m_poly * m_poly - p4
        desc = "D^2 - M^2 - 16 P^4, M = 4P^3 - P/12 - 1/3, D = 4P^3 + P/12 + 1/6"
    return SolutionFamily(
        family_id="case4",
        kind="fermat",
        m=2,
        n=4,
        f=f,
        g=g,
        params=FamilyParams(
            zeta_index=zeta_index, variant=variant, slot=_slot_label(beta)
        ),
        exact_residual=RingResidual(elem, desc),
    )


def swapped(fam: SolutionFamily, new_id: str) -> SolutionFamily:
    """Exchange the two members (and exponents); verdicts are unchanged."""
    return SolutionFamily(
        family_id=new_id,
        kind=fam.kind,
        m=fam.n,
        n=fam.m,
        f=fam.g,
        g=fam.f,
        params=fam.params,
        exact_residual=fam.exact_residual,
        h=fam.h,
        ell=fam.ell,
        degenerate=fam.degenerate,
    )


def build_case_v(eta_index: int = 0, beta: Optional[Expr] = None) -> SolutionFamily:
    return swapped(build_case_iii(eta_index, beta), "case5")


def build_case_vi(
    variant: int = 1, zeta_index: int = 0, beta: Optional[Expr] = None
) -> SolutionFamily:
    return swapped(build_case_iv(variant, zeta_index, beta), "case6")


def _exact_rho_parts(rho):
    """(rho, root) as exact scalars when rho is rational with rational
    sqrt(rho^2 - 1); otherwise None."""
    if not is_exact_scalar(rho):
        return None
    rc = RationalComplex.coerce(rho)
    if not rc.is_real:
        return None
    disc = rc.re * rc.re - 1
    root = rational_sqrt(disc) if disc >= 0 else None
    if root is None:
        return None
    return rc.re, root


def _quadratic_ratio_diff(rho, exact):
    """(rho1/rho2, rho1 - rho2) for rho_1,2 = rho +/- sqrt(rho^2 - 1),
    exact Fractions when possible, complex floats otherwise."""
    if exact is not None:
        rho_val, root = exact
        if rho_val * rho_val == 1:
            raise ValueError("rho^2 == 1 is excluded")
        rho1 = Fraction(rho_val + root)
        rho2 = Fraction(rho_val - root)
        return rho1 / rho2, rho1 - rho2
    rho_c = complex(rho)
    if abs(rho_c * rho_c - 1.0) <= 1e-12:
        raise ValueError("rho^2 == 1 is excluded")
    root_c = cmath.sqrt(rho_c * rho_c - 1.0)
    return (rho_c + root_c) / (rho_c - root_c), 2.0 * root_c


def build_quadratic(
    rho, sign: str = "plus", h: Optional[Expr] = None
) -> SolutionFamily:
    """Pair solving f^2 +/- 2 rho f g + g^2 = 1 via f + rho_i g = h^(+-1),
    rho_1,2 = rho +/- sqrt(rho^2 - 1) (so rho_1 rho_2 = 1), h nonvanishing.

    ``sign`` selects the equation being tested: "plus" for +2 rho f g,
    "minus" for -2 rho f g.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    check_range("rho", rho, MAX_RHO)
    exact = _exact_rho_parts(rho)
    ratio, diff = _quadratic_ratio_diff(rho, exact)
    if exact is not None:
        rho_val, _ = exact
    h_expr = Exp(W) if h is None else h
    one = Const(1)
    f = (h_expr**2 - Const(ratio)) / (Const(1 - ratio) * h_expr)
    g = (h_expr**2 - one) / (Const(diff) * h_expr)
    recipe = None
    if exact is not None:
        sgn = 1 if sign == "plus" else -1
        two_rho = 2 * Fraction(rho_val)

        def build(order: int, ratio=ratio, diff=diff, sgn=sgn, two_rho=two_rho):
            e = exp_series(1, order + 4)
            e2 = e * e
            c_ratio = LaurentSeries.constant(ratio, order + 4)
            unit = LaurentSeries.constant(1, order + 4)
            fs = (e2 - c_ratio) * (e.scale(1 - ratio)).invert()
            gs = (e2 - unit) * (e.scale(diff)).invert()
            return fs * fs + (fs * gs).scale(sgn * two_rho) + gs * gs - unit

        recipe = SeriesResidual(
            build,
            "f^2 %s 2 rho f g + g^2 - 1 as an exact series with h = e^w"
            % ("+" if sign == "plus" else "-"),
        )
    return SolutionFamily(
        family_id="quadratic",
        kind="quadratic",
        m=2,
        n=2,
        f=f,
        g=g,
        params=FamilyParams(rho=rho, sign=sign, slot=_slot_label(h_expr)),
        exact_residual=recipe,
    )


def build_cubic(tau, beta: Optional[Expr] = None) -> SolutionFamily:
    """Pair solving f^3 - 3 tau f g + g^3 = 1:
    f, g = (-3 tau 4^(1/3) P + 36 + 9 tau^3 +/- X) / (6 (4^(1/3) P + 9 tau^2))
    on the tau-family invariants."""
    if tau_is_degenerate(tau):
        raise DegenerateLatticeError(f"tau={tau!r} has tau^3 == -1")
    beta = W if beta is None else beta
    inv = invariants_from_tau(tau)
    eng = engine_for(inv)
    p = Wp(eng, beta)
    x = WpPrime(eng, beta)
    tc = complex(tau)
    num_even = Const(-3.0 * tc * CBRT4) * p + Const(36.0 + 9.0 * tc**3)
    den = Const(6.0) * (Const(CBRT4) * p + Const(9.0 * tc**2))
    f = (num_even + x) / den
    g = (num_even - x) / den
    recipe = None
    if is_exact_scalar(tau):
        t = RationalComplex.coerce(tau)
        if t.is_zero:
            # in the original variable: X^2 -> 4P^3 - 432
            _, one, P, X = _ring([-432, 0, 0, 4])
            elem = one.scale(93312) + (X * X).scale(216) - (P * P * P).scale(864)
            recipe = RingResidual(
                elem, "93312 + 216 X^2 - 864 P^3 with X^2 -> 4P^3 - 432"
            )
        else:
            # variable U = 4^(1/3) P absorbs the cube root: X^2 -> U^3 + k U + l
            k, l = tau_cubic_coefficients(t)
            cubic = RationalPoly.make([l, k, 0, RationalComplex(1)])
            one = QuotientElement.from_scalar(1, cubic)
            U = QuotientElement.p_power(1, cubic)
            X = QuotientElement.x_times(RationalPoly.constant(1), cubic)
            s = 36 + 9 * t**3
            a = U.scale(-3 * t) + one.scale(s)
            d = U.scale(6) + one.scale(54 * t * t)
            x2 = X * X
            elem = (
                (a * a * a).scale(2)
                + (a * x2).scale(6)
                - ((a * a - x2) * d).scale(3 * t)
                - d * d * d
            )
            recipe = RingResidual(
                elem,
                "2a^3 + 6a X^2 - 3 tau (a^2 - X^2) d - d^3 in U = 4^(1/3) P, "
                "a = -3 tau U + 36 + 9 tau^3, d = 6U + 54 tau^2, "
                "X^2 -> U^3 + 27 tau (8 - tau^3) U + 54 (tau^6 + 20 tau^3 - 8)",
            )
    return SolutionFamily(
        family_id="cubic",
        kind="cubic",
        m=3,
        n=3,
        f=f,
        g=g,
        params=FamilyParams(tau=tau, slot=_slot_label(beta)),
        exact_residual=recipe,
    )


# ---------------------------------------------------------------------------
# Numeric diagnostics of the cubic family on its engine.
# ---------------------------------------------------------------------------

#: radius and node count of the near-origin circle of the limit diagnostics
_LIMIT_RADIUS = 1e-2
_LIMIT_POINTS = 64
_UNIT_CIRCLE = np.exp(1j * (2.0 * math.pi * np.arange(_LIMIT_POINTS) / _LIMIT_POINTS))
#: sample count, finite-difference step, sampling seed and edge margin of
#: the second-derivative offset scan
_OFFSET_POINTS = 50
_OFFSET_FD_STEP = 4e-3
_OFFSET_SEED = 20260825
_OFFSET_MARGIN = 0.2


@dataclass(frozen=True)
class LimitReport:
    label: str
    target_re: float
    target_im: float
    max_dev: float
    radius: float
    n_points: int

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "target_re": self.target_re,
            "target_im": self.target_im,
            "max_dev": self.max_dev,
            "radius": self.radius,
            "points": self.n_points,
        }


def _h1(tau, eng, p):
    """H1 = 4 wp^3 + k wp + l - 9(-tau 4^(1/3) wp + 12 + 3 tau^3)^2 at wp
    values p, where 4 wp^3 + k wp + l = wp'^2 gives k = -g2 and l = -g3."""
    tc = complex(tau)
    k, l = -eng.invariants.g2c, -eng.invariants.g3c
    return 4.0 * p**3 + k * p + l - 9.0 * (-tc * CBRT4 * p + 12.0 + 3.0 * tc**3) ** 2


def diagnostic_h1(tau, radius: float = _LIMIT_RADIUS) -> LimitReport:
    """Near-origin ratio of H1 (see ``_h1``) to wp^3; approaches 4."""
    eng = engine_for(invariants_from_tau(tau))
    p, _, _, _ = eng.eval(radius * _UNIT_CIRCLE)
    h1 = _h1(tau, eng, p)
    return LimitReport(
        "h1/wp^3", 4.0, 0.0, float(np.max(np.abs(h1 / p**3 - 4.0))), radius,
        _LIMIT_POINTS,
    )


def diagnostic_h2(tau) -> LimitReport:
    """Near-origin ratio of
    [{c wp'^2 - (c wp + 9 tau^2) wp''}^2 - {36 c (tau^3 + 1) wp'}^2] to wp^6,
    c = 4^(1/3); approaches 4 c^2."""
    tc = complex(tau)
    eng = engine_for(invariants_from_tau(tau))
    p, pp, ppp, _ = eng.eval(_LIMIT_RADIUS * _UNIT_CIRCLE)
    c = CBRT4
    bracket = c * pp**2 - (c * p + 9.0 * tc**2) * ppp
    h2 = bracket**2 - (36.0 * c * (tc**3 + 1.0) * pp) ** 2
    target = 4.0 * c * c
    return LimitReport(
        "h2/wp^6", target, 0.0, float(np.max(np.abs(h2 / p**6 - target))),
        _LIMIT_RADIUS, _LIMIT_POINTS,
    )


@dataclass(frozen=True)
class OffsetReport:
    expected_re: float
    expected_im: float
    max_dev: float
    n_points: int

    def to_dict(self) -> dict:
        return {
            "expected_re": self.expected_re,
            "expected_im": self.expected_im,
            "max_dev": self.max_dev,
            "points": self.n_points,
        }


def second_derivative_offset_scan(tau) -> OffsetReport:
    """Check that wp'' - 6 wp^2 is the constant (27/2) tau 4^(1/3) (8 - tau^3).

    wp'' comes from a two-level Richardson extrapolation of central
    differences of wp', so constancy is measured against the engine's first
    derivative rather than the algebraic second-derivative formula.  The
    sample points keep ``_OFFSET_MARGIN`` away from the cell edges: closer to
    the poles, derivative growth pushes the finite-difference error above 1e-8.
    """
    expected = second_derivative_constant(tau)
    eng = engine_for(invariants_from_tau(tau))
    rng = np.random.default_rng(_OFFSET_SEED)
    x = rng.uniform(_OFFSET_MARGIN, 1.0 - _OFFSET_MARGIN, _OFFSET_POINTS)
    y = rng.uniform(_OFFSET_MARGIN, 1.0 - _OFFSET_MARGIN, _OFFSET_POINTS)
    z = eng.cell_point(x, y)

    def dpp(step):
        _, pp_plus, _, _ = eng.eval(z + step)
        _, pp_minus, _, _ = eng.eval(z - step)
        return (pp_plus - pp_minus) / (2.0 * step)

    def richardson(step):
        return (4.0 * dpp(step / 2.0) - dpp(step)) / 3.0

    h = _OFFSET_FD_STEP
    second = (16.0 * richardson(h / 2.0) - richardson(h)) / 15.0
    p, _, _, _ = eng.eval(z)
    offset = second - 6.0 * p**2
    return OffsetReport(
        expected_re=float(np.real(expected)),
        expected_im=float(np.imag(expected)),
        max_dev=float(np.max(np.abs(offset - expected))),
        n_points=_OFFSET_POINTS,
    )


def build_unit_unit(beta: Optional[Expr] = None) -> SolutionFamily:
    """f = 1/(1 + e^w), g = e^w/(1 + e^w) solving f + g = 1."""
    beta = W if beta is None else beta
    u = Exp(beta)
    one = Const(1)
    f = one / (one + u)
    g = u / (one + u)

    def build(order: int) -> LaurentSeries:
        e = exp_series(1, order + 2)
        unit = LaurentSeries.constant(1, order + 2)
        inv = (unit + e).invert()
        return inv + e * inv - unit

    return SolutionFamily(
        family_id="unit-unit",
        kind="fermat",
        m=1,
        n=1,
        f=f,
        g=g,
        params=FamilyParams(slot=_slot_label(beta)),
        exact_residual=SeriesResidual(
            build, "1/(1+e^w) + e^w/(1+e^w) - 1 as an exact series"
        ),
    )


def build_m_one(m: int = 3, beta: Optional[Expr] = None) -> SolutionFamily:
    """f = e^w, g = 1 - e^(m w) solving f^m + g = 1."""
    if not 1 <= m <= MAX_M_ONE_EXPONENT:
        raise ValueError(
            f"m={m} is out of range: it must be at least 1 and must not "
            f"exceed {MAX_M_ONE_EXPONENT}"
        )
    beta = W if beta is None else beta
    f = Exp(beta)
    g = Const(1) - Exp(Const(m) * beta)

    def build(order: int, m=m) -> LaurentSeries:
        e = exp_series(1, order)
        em = exp_series(m, order)
        unit = LaurentSeries.constant(1, order)
        return e**m + (unit - em) - unit

    return SolutionFamily(
        family_id="m-one",
        kind="fermat",
        m=m,
        n=1,
        f=f,
        g=g,
        params=FamilyParams(exponent=m, slot=_slot_label(beta)),
        exact_residual=SeriesResidual(
            build, "(e^w)^m + (1 - e^(mw)) - 1 as an exact series"
        ),
    )


def build_picard_pair(m: int, n: int, gamma, delta) -> SolutionFamily:
    """Constant pair f = e^(gamma/m), g = e^(delta/n); requires
    e^gamma + e^delta = 1 (checked within float tolerance)."""
    if m < 1 or n < 1:
        raise ValueError("exponents must be >= 1")
    check_range("gamma", gamma, MAX_PAIR_EXPONENT)
    check_range("delta", delta, MAX_PAIR_EXPONENT)
    gc, dc = complex(gamma), complex(delta)
    if abs(cmath.exp(gc) + cmath.exp(dc) - 1.0) > 1e-9:
        raise ValueError("picard-pair constants must satisfy e^gamma + e^delta = 1")
    f = Const(cmath.exp(gc / m))
    g = Const(cmath.exp(dc / n))
    return SolutionFamily(
        family_id="picard-pair",
        kind="fermat",
        m=m,
        n=n,
        f=f,
        g=g,
        params=FamilyParams(gamma=gc, delta=dc, slot="constant"),
        degenerate=True,
    )


def build_corollary_witness(ell: int = 1, beta: Optional[Expr] = None) -> SolutionFamily:
    """Witness for the derivative-coupled equation f^2 + h^2 (f')^2 = 1:
    f = (1 - e^(2w))/(1 + e^(2w)), h = (1 + e^(2w))/(2 e^w).

    No witness with ell >= 2 is part of the catalog; such requests are
    rejected rather than silently substituted.
    """
    if ell != 1:
        raise ValueError("the catalog only contains the ell = 1 witness")
    beta = W if beta is None else beta
    u = Exp(Const(2) * beta)
    one = Const(1)
    f = (one - u) / (one + u)
    h = (one + u) / (Const(2) * Exp(beta))
    if beta is not W:
        # keep h * (d/dw f) matched to the identity after reparametrization
        h = h / differentiate(beta)
    g = h * differentiate(f) ** ell

    def build(order: int) -> LaurentSeries:
        e2 = exp_series(2, order + 4)
        em = exp_series(-1, order + 4)
        unit = LaurentSeries.constant(1, order + 4)
        fs = (unit - e2) * (unit + e2).invert()
        hs = (unit + e2) * em.scale(Fraction(1, 2))
        fps = fs.differentiate()
        return fs * fs + (hs * fps) * (hs * fps) - unit

    return SolutionFamily(
        family_id="corollary",
        kind="corollary",
        m=2,
        n=2,
        f=f,
        g=g,
        params=FamilyParams(ell=ell, slot=_slot_label(beta)),
        exact_residual=SeriesResidual(
            build, "f^2 + (h f')^2 - 1 as an exact series, h f' = -2e^w/(1+e^(2w))"
        ),
        h=h,
        ell=ell,
    )


# ---------------------------------------------------------------------------
# Registry for the command-line surface.
# ---------------------------------------------------------------------------

FAMILY_IDS = (
    "case1",
    "case2",
    "case3",
    "case4",
    "case5",
    "case6",
    "quadratic",
    "cubic",
    "unit-unit",
    "m-one",
    "picard-pair",
    "corollary",
)


def _slot_expr(name: str) -> Optional[Expr]:
    if name in (None, "w"):
        return None
    if name in ("exp", "e^w"):
        return Exp(W)
    raise ValueError(f"unknown composition slot {name!r}; use 'w' or 'exp'")


def build_family(
    family_id: str,
    *,
    eta_index: int = 0,
    zeta_index: int = 0,
    variant: int = 1,
    rho=Fraction(5, 4),
    sign: str = "plus",
    tau=0,
    m: int = 3,
    n: int = 2,
    ell: int = 1,
    gamma=None,
    delta=None,
    slot: str = None,
) -> SolutionFamily:
    """Build a registry family from scalar parameters (the CLI entry path)."""
    if family_id == "case1":
        alpha = _slot_expr(slot) if slot else Exp(W)
        return build_case_i(alpha if alpha is not None else W)
    beta = _slot_expr(slot)
    if family_id == "case2":
        return build_case_ii(eta_index, beta)
    if family_id == "case3":
        return build_case_iii(eta_index, beta)
    if family_id == "case4":
        return build_case_iv(variant, zeta_index, beta)
    if family_id == "case5":
        return build_case_v(eta_index, beta)
    if family_id == "case6":
        return build_case_vi(variant, zeta_index, beta)
    if family_id == "quadratic":
        h = None if beta is None else Exp(beta)
        return build_quadratic(rho, sign, h)
    if family_id == "cubic":
        return build_cubic(tau, beta)
    if family_id == "unit-unit":
        return build_unit_unit(beta)
    if family_id == "m-one":
        return build_m_one(m, beta)
    if family_id == "picard-pair":
        if gamma is None and delta is None:
            gamma = delta = cmath.log(0.5)  # e^gamma + e^delta = 1
        if gamma is None or delta is None:
            raise ValueError("picard-pair requires both gamma and delta")
        return build_picard_pair(m, n, gamma, delta)
    if family_id == "corollary":
        return build_corollary_witness(ell, beta)
    raise ValueError(f"unknown family {family_id!r}; known: {', '.join(FAMILY_IDS)}")
