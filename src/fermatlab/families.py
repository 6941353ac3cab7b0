"""The catalog of explicit solution families.

Each builder returns a SolutionFamily carrying numeric expression trees
(f, g, and for the derivative-coupled kind also h) and the slot subtree beta
they are composed with.  The elliptic families also carry an exact ring
residual; the others are adjudicated by lowering their own trees to exact
Laurent series in the slot variable t = beta.  Since composition with an
entire reparametrization preserves pointwise identities, one exact
adjudication covers every choice of the composition slot.

Irrational constants (sqrt(3), the real cube root of 4, cube roots of unity)
never reach the exact layer: the stored ring residuals are hand-rationalized
by parity pairing -- (a+b)^k + (a-b)^k keeps only even powers of b -- and by
the exact cubes/fourth powers of the roots of unity, so adjudication happens
in Q(i) alone.  A tree holding a float constant has no exact series.

The module holds the catalog and its adjudicator only: the cubic family's
near-pole limits and second-derivative constant are checked by acceptance
criteria 9 and 7.
"""

from __future__ import annotations

import cmath
import dataclasses
import inspect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Optional

from .exprs import (
    Add,
    BinOp,
    Const,
    Div,
    Exp,
    Expr,
    Mul,
    Pow,
    W,
    Wp,
    WpPrime,
    as_fraction,
    differentiate,
    distinct_nodes,
)
from .quotient import QuotientElement, quotient_adjudicate, ring
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
    Invariants,
    check_range,
    engine_for,
    invariants_from_case,
    invariants_from_tau,
    tau_cubic_coefficients,
)


@dataclass(frozen=True)
class RingResidual:
    """Cleared-denominator residual as a quotient-ring element."""

    element: QuotientElement
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
    if isinstance(v, complex):
        return format_complex(v)
    if isinstance(v, float):
        return v
    return str(v)


@dataclass(frozen=True)
class SolutionFamily:
    """One catalog entry: expressions, exponents, kind, the slot subtree
    ``beta`` the members are composed with, and an exact ring residual
    where the family has one."""

    family_id: str
    kind: str  # fermat | quadratic | cubic | corollary
    m: int
    n: int
    f: Expr
    g: Expr
    params: FamilyParams
    exact_residual: Optional[RingResidual] = None
    h: Optional[Expr] = None
    beta: Optional[Expr] = None

    def residual_expr(self) -> Expr:
        """The defining equation's left side minus one."""
        if self.kind in ("fermat", "corollary"):
            return self.f**self.m + self.g**self.n - Const(1)
        if self.kind == "quadratic":
            rho = self.params.rho
            two_rho = 2 * rho if is_exact_scalar(rho) else 2.0 * complex(rho)
            coeff = two_rho if self.params.sign == "plus" else -two_rho
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
    route: str  # ring | series | none
    description: str
    even_coeffs_desc: Optional[list] = None
    odd_coeffs_desc: Optional[list] = None
    series_leading: Optional[list] = None

    @property
    def is_zero(self) -> bool:
        return self.verdict == "ZERO"


#: highest series order ``adjudicate`` accepts: where the residual has no
#: degree bound below the order (see _degree_bound), the series is lowered
#: at the order itself and adjudication time grows about as order**4, so a
#: larger order would keep it busy for minutes
MAX_SERIES_ORDER = 400


def adjudicate(family: SolutionFamily, order: int = 40) -> FamilyVerdict:
    """Exact verdict for the family's defining identity.

    Ring residuals are reported sign-normalized (leading coefficient with
    positive real part) so that algebraically equivalent write-ups of the
    same failure produce identical reports.  Every other family takes the
    series route: its ZERO is certified through t**order, and where the
    residual has a degree bound K below the order, through t**K, which by
    _degree_bound proves it identically zero.  ``order`` must be an int in
    10..MAX_SERIES_ORDER whichever route is taken; the verdict and its
    leading terms do not depend on it once it exceeds K.
    """
    if not isinstance(order, int):
        raise TypeError("series order must be an int")
    if not 10 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must be between 10 and {MAX_SERIES_ORDER}")
    res = family.exact_residual
    if res is not None:
        parts = quotient_adjudicate(res.element)
        if parts is None:
            return FamilyVerdict(family.family_id, "ZERO", "ring", res.description)
        return FamilyVerdict(
            family.family_id,
            "NONZERO",
            "ring",
            res.description,
            even_coeffs_desc=parts[0],
            odd_coeffs_desc=parts[1],
        )
    s, through = _residual_series(family, order)
    if s is None:
        return FamilyVerdict(
            family.family_id,
            "UNAVAILABLE",
            "none",
            "no exact residual recipe for these parameters (numeric scans only)",
        )
    members = "f and h, with g = h beta' df/dt" if family.kind == "corollary" else "f and g"
    desc = "the equation's residual on %s, lowered from their trees to exact series in t = %s" % (
        members,
        _slot_label(family.beta),
    )
    if s.is_zero_through(through):
        return FamilyVerdict(family.family_id, "ZERO", "series", desc)
    leading = [[k, str(c)] for k, c in s.leading_terms(4)]
    return FamilyVerdict(
        family.family_id, "NONZERO", "series", desc, series_leading=leading
    )


def _residual_series(family: SolutionFamily, order: int):
    """(the residual's series or None, the exponent its verdict is read
    through).  Lowered at the degree bound K < ``order``, the series
    decides if it is valid through t**K and vanishes there, a proof, or
    holds four nonzero terms up to t**K, the leading terms at any order;
    else the trees are lowered at ``order``."""
    if family.beta is None:
        return None, order
    residual = family.residual_expr()
    bound = _degree_bound(residual, family.beta)
    if bound is not None and bound < order:
        try:
            lowered = _lowered_series(family, bound, residual)
        except (ZeroDivisionError, ValueError):
            lowered = None  # e.g. a denominator zero through t**K: use the order
        if lowered is not None and lowered[2].high >= bound:
            s = lowered[2]
            leading = s.leading_terms(4)
            if s.is_zero_through(bound) or (len(leading) == 4 and leading[3][0] <= bound):
                return s, bound
    lowered = _lowered_series(family, order, residual)
    return (None if lowered is None else lowered[2]), order


def _degree_bound(residual: Expr, slot: Expr) -> Optional[int]:
    """K such that the residual is identically zero when its series in
    t = slot vanishes through t**K; None when the numerator N of
    exprs.as_fraction(residual) = (N, D) holds a float constant, a wp / wp'
    atom, a w outside the slot, or exp of anything but c t.

    N has no quotient, and one walk over its distinct nodes keeps a span
    per node: the box of the exponents its terms p(t) e^(c t) can carry,
    real and imaginary parts of sums of rates c in units of 1/q, q the lcm
    of the denominators of N's rates, and its degree in t.  A sum takes
    the hull of the boxes and the larger degree, a product adds boxes and
    degrees, and a constant whose exact value is 0 is the zero function,
    which keeps the 0 w terms of ``differentiate`` from adding a degree.

    Proof.  Every exponent of N lies on (1/q) Z[i], so N lies in the span
    of t^j e^(c t) for the count = (re width + 1)(im width + 1) lattice
    points c of its box and j <= deg.  Each of those solves L y = 0 with
    L = prod_c (d/dt - c)^(deg + 1), a linear ODE with constant
    coefficients of order count (deg + 1) = K + 1, and the only solution
    with y(0) = y'(0) = ... = y^(K)(0) = 0 is y = 0 (uniqueness;
    Coddington & Levinson, Theory of ODEs, Ch. 3).
    D is entire and, as the lowering inverted each of its factors, not the
    zero function; so if the residual's series vanishes through t**K,
    N = residual D does too, N = 0, and the residual is 0.  The
    corollary's g is bounded from its tree h (f')^ell, the function the
    lowering forms by the chain rule.
    """
    num = as_fraction(residual)[0]
    try:
        rates = {node: RationalComplex.coerce(_rate(node.arg, slot))
                 for node in distinct_nodes(num)
                 if isinstance(node, Exp) and node is not slot}
    except _NotLowerable:
        return None
    q = lcm(1, *(x.denominator for c in rates.values() for x in (c.re, c.im)))
    spans = {}  # node -> its span, None for the zero function

    def span(node: Expr):
        if node in spans:
            return spans[node]
        if node is slot:
            out = (0, 0, 0, 0, 1)
        elif isinstance(node, Const):
            if node.exact is None:
                raise _NotLowerable
            out = None if RationalComplex.coerce(node.exact).is_zero else (0, 0, 0, 0, 0)
        elif isinstance(node, Exp):
            re, im = int(rates[node].re * q), int(rates[node].im * q)
            out = (re, re, im, im, 0)
        elif isinstance(node, Pow):
            b = span(node.base)
            out = None if b is None else tuple(node.k * v for v in b)
        elif isinstance(node, BinOp):
            a, b = span(node.lhs), span(node.rhs)
            if isinstance(node, Mul):
                out = None if a is None or b is None else tuple(map(add, a, b))
            elif a is None or b is None:
                out = b if a is None else a
            else:
                out = (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]),
                       max(a[4], b[4]))
        else:  # wp, wp', or w outside the slot
            raise _NotLowerable
        spans[node] = out
        return out

    try:
        box = span(num)
    except _NotLowerable:
        return None
    finally:
        spans.clear()  # span refers to itself, a cycle: free the nodes now
    if box is None:
        return 0
    return (box[1] - box[0] + 1) * (box[3] - box[2] + 1) * (box[4] + 1) - 1


#: extra truncation order of the lowered series, spent by quotients by
#: series that vanish at t = 0 and by the corollary's derivative
_SERIES_SLACK = 4


class _NotLowerable(Exception):
    """The trees hold a node the exact series route cannot represent."""


def _times(a, b):
    """Product of two lowered values (exact scalars or series); a scalar
    factor is a ``scale``, so only series pairs are series products."""
    if isinstance(a, LaurentSeries):
        return a * b if isinstance(b, LaurentSeries) else a.scale(b)
    return b.scale(a) if isinstance(b, LaurentSeries) else a * b


def _plus(a, b):
    """Sum of two lowered values."""
    if not isinstance(a, LaurentSeries):
        a, b = b, a
    if not isinstance(a, LaurentSeries):
        return a + b
    if not isinstance(b, LaurentSeries):
        b = LaurentSeries.constant(b, a.high)
    return a + b


def _rate(arg: Expr, slot: Expr):
    """c for an exponent arg = c t, t being the slot."""
    if arg is slot:
        return 1
    if isinstance(arg, Mul):
        for c, x in ((arg.lhs, arg.rhs), (arg.rhs, arg.lhs)):
            if x is slot and isinstance(c, Const) and c.exact is not None:
                return c.exact
    raise _NotLowerable


def _lowered_series(family: SolutionFamily, order: int, residual: Expr):
    """(f, g, residual of the family's equation) as exact Laurent series in
    t = beta (not None), valid through t**order; None when the trees hold a
    float constant, a wp / wp' atom, a w outside beta, or exp of anything
    but c t.  ``residual`` is the family's residual_expr().

    Equal subtrees are one node, and one cache lowers each distinct
    subtree once.  Constant subtrees stay exact scalars, and a
    quotient multiplies by a cached inverse of its denominator:
    1/(c x) = (1/x)/c, 1/e^(c t) = e^(-c t) and 1/b^k = (1/b)^k.  The
    corollary's g = h (f')^ell is not lowered from its expanded tree but
    formed on the series by the chain rule through the slot,
    g = h (beta' df/dt)^ell, where beta' is 1 at slot w and t at slot e^w.
    """
    high = order + _SERIES_SLACK
    slot, f, g = family.beta, family.f, family.g
    values = {slot: LaurentSeries.make(1, [1] + [0] * (high - 1), high)}  # node -> its value
    inverses = {}

    def lower(node: Expr):
        out = values.get(node)
        if out is not None:
            return out
        if isinstance(node, Const):
            if node.exact is None:
                raise _NotLowerable
            out = node.exact
        elif isinstance(node, Div):
            out = _times(lower(node.lhs), inverse(node.rhs))
        elif isinstance(node, Mul):
            out = _times(lower(node.lhs), lower(node.rhs))
        elif isinstance(node, BinOp):
            b = lower(node.rhs)
            out = _plus(lower(node.lhs), b if isinstance(node, Add) else _times(-1, b))
        elif isinstance(node, Pow):
            out = lower(node.base) ** node.k
        elif isinstance(node, Exp):
            out = exp_series(_rate(node.arg, slot), high)
        else:  # wp, wp', or w outside the slot
            raise _NotLowerable
        values[node] = out
        return out

    def inverse(node: Expr):
        out = inverses.get(node)
        if out is not None:
            return out
        if isinstance(node, Exp) and node is not slot:
            out = exp_series(-_rate(node.arg, slot), high)
        elif isinstance(node, Pow):
            out = inverse(node.base) ** node.k
        elif isinstance(node, Mul) and Const in (type(node.lhs), type(node.rhs)):
            out = _times(inverse(node.lhs), inverse(node.rhs))
        else:
            x = lower(node)
            out = x.invert() if isinstance(x, LaurentSeries) else Fraction(1) / x
        inverses[node] = out
        return out

    try:
        fs = lower(f)
        if family.kind == "corollary":
            dbeta = differentiate(slot)
            df = fs.differentiate()
            values[g] = _times(lower(family.h), _times(lower(dbeta), df) ** family.params.ell)
        return fs, lower(g), lower(residual)
    except _NotLowerable:
        return None
    finally:
        # lower and inverse refer to each other, a cycle that only the
        # cyclic collector frees: drop the intermediate series now
        values.clear()
        inverses.clear()


def _slot_label(expr: Optional[Expr]) -> str:
    if expr is None:
        return "constant"
    if expr is W:
        return "w"
    if isinstance(expr, Exp) and expr.arg is W:
        return "e^w"
    return "custom"


def _slot_expr(name: str) -> Expr:
    """The slot subtree beta for a ``--slot`` name."""
    if name == "w":
        return W
    if name in ("exp", "e^w"):
        return Exp(W)
    raise ValueError(f"unknown composition slot {name!r}; use 'w' or 'exp'")


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------

#: largest real or imaginary part of the quadratic family's rho: the float
#: route's rho_2 = rho - sqrt(rho^2 - 1), about 1/(2 rho), cancels and
#: rounds to zero from about 1e8 on, and f then divides by it
MAX_RHO = 1e7
#: largest m of the m-one family: its exact series takes m - 1 products.
#: Its residual's degree bound is m, so it is lowered at order m, about
#: 2 ms at m = 16; lowered at order 400 it took 6 s on one core of a
#: 2-core Xeon VM with CPython 3.11
MAX_M_ONE_EXPONENT = 16
#: largest real or imaginary part of the picard-pair exponents gamma and
#: delta: e^gamma overflows a double beyond Re(gamma) = 709.78, and e^gamma
#: is periodic in Im(gamma), so a larger imaginary part adds nothing
MAX_PAIR_EXPONENT = 700


def _family(family_id, kind, m, n, f, g, beta, exact_residual=None, h=None, **params):
    """The SolutionFamily of a builder's formulas: ``params`` and the slot
    label read off ``beta`` make its FamilyParams."""
    return SolutionFamily(
        family_id, kind, m, n, f, g, FamilyParams(slot=_slot_label(beta), **params),
        exact_residual, h, beta,
    )


def _elliptic(inv: Invariants, slot: str):
    """(beta, wp(beta), wp'(beta)) on the engine of ``inv`` for the slot
    named ``slot``, and the ring (1, P, X) of that engine's cubic,
    X^2 -> 4P^3 - g2 P - g3; the ring is None for float invariants."""
    beta = _slot_expr(slot)
    eng = engine_for(inv)
    cubic = [-inv.g3, -inv.g2, 0, 4]
    exact = all(map(is_exact_scalar, cubic))
    return beta, Wp(eng, beta), WpPrime(eng, beta), ring(cubic) if exact else None


def build_case_i(slot: str = "exp") -> SolutionFamily:
    """Degree-(2,2) pair f = (1-a^2)/(1+a^2), g = 2a/(1+a^2) for a
    meromorphic parameter a, the slot: the identity is rational in a."""
    alpha = _slot_expr(slot)
    one = Const(1)
    f = (one - alpha**2) / (one + alpha**2)
    g = (Const(2) * alpha) / (one + alpha**2)
    return _family("case1", "fermat", 2, 2, f, g, alpha)


def build_case_ii(eta_index: int = 0, slot: str = "w") -> SolutionFamily:
    """Degree-(3,3) elliptic pair on invariants (0, 1):
    f = (3 + sqrt(3) X)/(6 P), g = eta (3 - sqrt(3) X)/(6 P)."""
    if eta_index not in (0, 1, 2):
        raise ValueError("eta_index must be 0, 1 or 2")
    beta, p, x, (one, P, X) = _elliptic(invariants_from_case("II"), slot)  # X^2 -> 4P^3 - 1
    eta = ETA[eta_index]
    f = (Const(3) + Const(SQRT3) * x) / (Const(6) * p)
    g = Const(eta) * (Const(3) - Const(SQRT3) * x) / (Const(6) * p)
    elem = (
        one.scale(54) + (X * X).scale(54) - (P * P * P).scale(216)
    )  # parity pairing of (3 + s X)^3 + (3 - s X)^3 with s^2 = 3, eta^3 = 1
    residual = RingResidual(elem, "54 + 54 X^2 - 216 P^3 with X^2 -> 4P^3 - 1")
    return _family("case2", "fermat", 3, 3, f, g, beta, residual, eta_index=eta_index)


def build_case_iii(eta_index: int = 0, slot: str = "w") -> SolutionFamily:
    """Degree-(2,3) elliptic pair on invariants (0, 1):
    f = i X, g = eta 4^(1/3) P."""
    if eta_index not in (0, 1, 2):
        raise ValueError("eta_index must be 0, 1 or 2")
    beta, p, x, (one, P, X) = _elliptic(invariants_from_case("III"), slot)
    eta = ETA[eta_index]
    f = Const(1j) * x
    g = Const(eta * CBRT4) * p
    xi = X.scale(RationalComplex(0, 1))
    elem = (xi * xi) + (P * P * P).scale(4) - one  # (iX)^2 + 4P^3 - 1
    residual = RingResidual(
        elem, "(iX)^2 + 4P^3 - 1 with X^2 -> 4P^3 - 1 (cube of eta and of 4^(1/3) rationalized)"
    )
    return _family("case3", "fermat", 2, 3, f, g, beta, residual, eta_index=eta_index)


def build_case_iv(variant: int = 1, zeta_index: int = 0, slot: str = "w") -> SolutionFamily:
    """Degree-(2,4) elliptic pair on invariants (-1/12, -1/6), as printed.

    variant 1: f = (-4P^3 + P/12 + 1/3)/(4P^3 + P/12 + 1/6), g = 2 zeta P / X
    variant 2: f = i(4P^3 - P/12 - 1/3)/(4P^2),            g = zeta i X / (2P)
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if zeta_index not in (0, 1, 2, 3):
        raise ValueError("zeta_index must be 0..3")
    beta, p, x, (one, P, X) = _elliptic(invariants_from_case("IV"), slot)
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
    d = X * X  # D is the cubic itself; zeta^4 = 1 leaves 16 P^4
    p3 = P * P * P
    p4 = (p3 * P).scale(16)
    if variant == 1:
        n = p3.scale(-4) + P.scale(twelfth) + one.scale(third)
        elem = n * n + p4 - d * d
        desc = "N^2 + 16 P^4 - D^2, N = -4P^3 + P/12 + 1/3, D = 4P^3 + P/12 + 1/6"
    else:
        m = p3.scale(4) - P.scale(twelfth) - one.scale(third)
        elem = d * d - m * m - p4
        desc = "D^2 - M^2 - 16 P^4, M = 4P^3 - P/12 - 1/3, D = 4P^3 + P/12 + 1/6"
    return _family("case4", "fermat", 2, 4, f, g, beta, RingResidual(elem, desc),
                   zeta_index=zeta_index, variant=variant)


def swapped(fam: SolutionFamily, new_id: str) -> SolutionFamily:
    """Exchange the two members (and exponents); verdicts are unchanged."""
    return dataclasses.replace(fam, family_id=new_id, m=fam.n, n=fam.m, f=fam.g, g=fam.f)


def build_case_v(eta_index: int = 0, slot: str = "w") -> SolutionFamily:
    return swapped(build_case_iii(eta_index, slot), "case5")


def build_case_vi(variant: int = 1, zeta_index: int = 0, slot: str = "w") -> SolutionFamily:
    return swapped(build_case_iv(variant, zeta_index, slot), "case6")


def _quadratic_ratio_diff(rho):
    """(rho1/rho2, rho1 - rho2) for rho_1,2 = rho +/- sqrt(rho^2 - 1): exact
    when rho and sqrt(rho^2 - 1) lie in Q(i), complex floats otherwise."""
    if is_exact_scalar(rho):
        rc = RationalComplex.coerce(rho)
        rho = rc.re if rc.is_real else rc
        root = rational_sqrt(rho * rho - 1)
        if root is not None:
            if root == 0:
                raise ValueError("rho^2 == 1 is excluded")
            rho1, rho2 = rho + root, rho - root
            return rho1 / rho2, rho1 - rho2
    rho_c = complex(rho)
    if abs(rho_c * rho_c - 1.0) <= 1e-12:
        raise ValueError("rho^2 == 1 is excluded")
    root_c = cmath.sqrt(rho_c * rho_c - 1.0)
    return (rho_c + root_c) / (rho_c - root_c), 2.0 * root_c


def build_quadratic(
    rho=Fraction(5, 4), sign: str = "plus", slot: str = "w"
) -> SolutionFamily:
    """Pair solving f^2 +/- 2 rho f g + g^2 = 1 via f + rho_i g = h^(+-1),
    rho_1,2 = rho +/- sqrt(rho^2 - 1) (so rho_1 rho_2 = 1), h = e^beta.

    ``sign`` selects the equation being tested: "plus" for +2 rho f g,
    "minus" for -2 rho f g.  The constants are exact when rho and
    sqrt(rho^2 - 1) lie in Q(i), which is when the series route applies.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    check_range("rho", rho, MAX_RHO)
    ratio, diff = _quadratic_ratio_diff(rho)
    beta = _slot_expr(slot)
    h = Exp(beta)
    f = (h**2 - Const(ratio)) / (Const(1 - ratio) * h)
    g = (h**2 - Const(1)) / (Const(diff) * h)
    return _family("quadratic", "quadratic", 2, 2, f, g, beta, rho=rho, sign=sign)


def build_cubic(tau=0, slot: str = "w") -> SolutionFamily:
    """Pair solving f^3 - 3 tau f g + g^3 = 1:
    f, g = (-3 tau 4^(1/3) P + 36 + 9 tau^3 +/- X) / (6 (4^(1/3) P + 9 tau^2))
    on the tau-family invariants."""
    beta, p, x, _ = _elliptic(invariants_from_tau(tau), slot)
    tc = complex(tau)
    num_even = Const(-3.0 * tc * CBRT4) * p + Const(36.0 + 9.0 * tc**3)
    den = Const(6.0) * (Const(CBRT4) * p + Const(9.0 * tc**2))
    f = (num_even + x) / den
    g = (num_even - x) / den
    recipe = None
    if is_exact_scalar(tau):
        # variable U = 4^(1/3) P absorbs the cube root: X^2 -> U^3 + k U + l
        t = RationalComplex.coerce(tau)
        k, l = tau_cubic_coefficients(t)
        one, U, X = ring([l, k, 0, 1])
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
    return _family("cubic", "cubic", 3, 3, f, g, beta, recipe, tau=tau)


def build_unit_unit(slot: str = "w") -> SolutionFamily:
    """f = 1/(1 + e^w), g = e^w/(1 + e^w) solving f + g = 1."""
    beta = _slot_expr(slot)
    u = Exp(beta)
    one = Const(1)
    f = one / (one + u)
    g = u / (one + u)
    return _family("unit-unit", "fermat", 1, 1, f, g, beta)


def build_m_one(m: int = 3, slot: str = "w") -> SolutionFamily:
    """f = e^w, g = 1 - e^(m w) solving f^m + g = 1."""
    if not 1 <= m <= MAX_M_ONE_EXPONENT:
        raise ValueError(
            f"m={m} is out of range: it must be at least 1 and must not "
            f"exceed {MAX_M_ONE_EXPONENT}"
        )
    beta = _slot_expr(slot)
    f = Exp(beta)
    g = Const(1) - Exp(Const(m) * beta)
    return _family("m-one", "fermat", m, 1, f, g, beta, exponent=m)


def build_picard_pair(m: int = 3, n: int = 2, gamma=None, delta=None) -> SolutionFamily:
    """Constant pair f = e^(gamma/m), g = e^(delta/n); requires
    e^gamma + e^delta = 1 (checked within float tolerance).  With neither
    constant given, gamma = delta = log(1/2)."""
    if gamma is None and delta is None:
        gamma = delta = cmath.log(0.5)
    if gamma is None or delta is None:
        raise ValueError("picard-pair requires both gamma and delta")
    if m < 1 or n < 1:
        raise ValueError("exponents must be >= 1")
    check_range("gamma", gamma, MAX_PAIR_EXPONENT)
    check_range("delta", delta, MAX_PAIR_EXPONENT)
    gc, dc = complex(gamma), complex(delta)
    if abs(cmath.exp(gc) + cmath.exp(dc) - 1.0) > 1e-9:
        raise ValueError("picard-pair constants must satisfy e^gamma + e^delta = 1")
    f = Const(cmath.exp(gc / m))
    g = Const(cmath.exp(dc / n))
    return _family("picard-pair", "fermat", m, n, f, g, None, gamma=gc, delta=dc)


def build_corollary_witness(ell: int = 1, slot: str = "w") -> SolutionFamily:
    """Witness for the derivative-coupled equation f^2 + h^2 (f')^2 = 1:
    f = (1 - e^(2w))/(1 + e^(2w)), h = (1 + e^(2w))/(2 e^w).

    No witness with ell >= 2 is part of the catalog; such requests are
    rejected rather than silently substituted.
    """
    if ell != 1:
        raise ValueError("the catalog only contains the ell = 1 witness")
    beta = _slot_expr(slot)
    u = Exp(Const(2) * beta)
    one = Const(1)
    f = (one - u) / (one + u)
    h = (one + u) / (Const(2) * Exp(beta))
    if beta is not W:
        # keep h * (d/dw f) matched to the identity after reparametrization
        h = h / differentiate(beta)
    g = h * differentiate(f) ** ell
    return _family("corollary", "corollary", 2, 2, f, g, beta, h=h, ell=ell)


# ---------------------------------------------------------------------------
# Registry for the command-line surface.
# ---------------------------------------------------------------------------

_BUILDERS = {
    "case1": build_case_i,
    "case2": build_case_ii,
    "case3": build_case_iii,
    "case4": build_case_iv,
    "case5": build_case_v,
    "case6": build_case_vi,
    "quadratic": build_quadratic,
    "cubic": build_cubic,
    "unit-unit": build_unit_unit,
    "m-one": build_m_one,
    "picard-pair": build_picard_pair,
    "corollary": build_corollary_witness,
}

FAMILY_IDS = tuple(_BUILDERS)

#: (label, family id, build_family parameters, expected exact verdict) of
#: every catalog entry, in report order.  The refuted case-IV/VI variants and
#: the printed-minus-sign quadratic are rows on purpose: the catalog shows
#: which printed identities certify and which do not.  Plain data, so the
#: import builds nothing.
CATALOG = (
    ("case1", "case1", {}, "ZERO"),
    ("case2", "case2", {"eta_index": 0}, "ZERO"),
    ("case2 eta=1", "case2", {"eta_index": 1}, "ZERO"),
    ("case2 eta=2", "case2", {"eta_index": 2}, "ZERO"),
    ("case3", "case3", {"eta_index": 0}, "ZERO"),
    ("case3 eta=1", "case3", {"eta_index": 1}, "ZERO"),
    ("case3 eta=2", "case3", {"eta_index": 2}, "ZERO"),
    ("case4 v1", "case4", {"variant": 1}, "NONZERO"),
    ("case4 v2", "case4", {"variant": 2}, "NONZERO"),
    ("case5", "case5", {}, "ZERO"),
    ("case6 v1", "case6", {"variant": 1}, "NONZERO"),
    ("case6 v2", "case6", {"variant": 2}, "NONZERO"),
    ("quadratic +2rho", "quadratic", {}, "ZERO"),
    ("quadratic -2rho", "quadratic", {"sign": "minus"}, "NONZERO"),
    ("cubic tau=0", "cubic", {}, "ZERO"),
    ("cubic tau=1", "cubic", {"tau": 1}, "ZERO"),
    ("unit-unit", "unit-unit", {}, "ZERO"),
    ("m-one m=3", "m-one", {}, "ZERO"),
    ("picard-pair", "picard-pair", {}, "UNAVAILABLE"),
    ("corollary", "corollary", {}, "ZERO"),
)


def build_family(family_id: str, **params) -> SolutionFamily:
    """Build a registry family from scalar parameters (the CLI entry path).

    The parameters and their defaults are those of the family's builder; a
    parameter the builder does not take is refused, not ignored.
    """
    builder = _BUILDERS.get(family_id)
    if builder is None:
        raise ValueError(f"unknown family {family_id!r}; known: {', '.join(FAMILY_IDS)}")
    taken = inspect.signature(builder).parameters
    for name in params:
        if name not in taken:
            raise ValueError(f"family {family_id!r} does not take the parameter {name!r}")
    return builder(**params)
