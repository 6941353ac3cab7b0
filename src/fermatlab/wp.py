"""Numeric Weierstrass engine.

Given invariants (g2, g3) with nonzero discriminant, this module computes a
period lattice by the complex AGM, validates it against the function itself
(differential-equation residual plus symmetry of an unreduced evaluation
about the half periods), and evaluates the function by lattice reduction,
argument halving, truncated Laurent series and the duplication formula.

The elliptic function wp satisfies (wp')^2 = 4 wp^3 - g2 wp - g3 and
wp'' = 6 wp^2 - g2/2 throughout this package.  Catalog sources that write
the cubic as 4 wp^3 + A wp + B are stored as g2 = -A, g3 = -B.
"""

from __future__ import annotations

import cmath
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateLatticeError,
    LatticeReductionError,
    PoleProximityError,
)
from .scalars import (
    CBRT4,
    RationalComplex,
    complex_agm,
    cubic_roots,
    is_exact_scalar,
)


#: order of the Laurent series the engine evaluates near the origin
_SERIES_ORDER = 40
#: points closer than this to a lattice point evaluate as poles
_POLE_RADIUS = 1e-8
#: most duplication steps a reduced point may need
_MAX_LADDER = 8
#: most duplication steps of an unreduced (validation) evaluation
_MAX_UNREDUCED_DEPTH = 40
#: largest lattice coordinate ``reduce`` accepts: the reduced point loses
#: digits in proportion to the coordinate (on case II, wp is off by up to
#: 8e-10 relative at coordinates near 4e5, against an exact reduction)
_MAX_LATTICE_COORDINATE = 2.0**20
#: largest real or imaginary part an invariant may have: the discriminant
#: g2^3 - 27 g3^2 must stay a finite double
MAX_INVARIANT = 1e100
#: largest real or imaginary part tau may have: the cubic family's
#: g3 = -54 (tau^6 + 20 tau^3 - 8) must stay within MAX_INVARIANT
MAX_TAU = 1e16


def check_range(name: str, value, limit: float) -> None:
    """Refuse a parameter whose real or imaginary part is not finite or
    exceeds ``limit``.  Exact parts are compared exactly, since ``complex()``
    of one beyond the float range overflows."""
    parts = (value.re, value.im) if isinstance(value, RationalComplex) else (value.real, value.imag)
    if not all(abs(p) <= limit for p in parts):
        raise ValueError(
            f"{name}={value} is out of range: its real and imaginary parts "
            f"must not exceed {limit:g} in magnitude"
        )


@dataclass(frozen=True)
class Invariants:
    """Invariant pair (g2, g3); parts may be exact scalars or floats."""

    g2: object
    g3: object

    def __post_init__(self):
        check_range("g2", self.g2, MAX_INVARIANT)
        check_range("g3", self.g3, MAX_INVARIANT)
        g2c, g3c = self.g2c, self.g3c
        disc = self.discriminant
        scale = max(1.0, abs(g2c) ** 3, 27.0 * abs(g3c) ** 2)
        if abs(disc) <= 1e-12 * scale:
            raise DegenerateLatticeError(
                f"degenerate discriminant for g2={g2c}, g3={g3c}"
            )

    @property
    def g2c(self) -> complex:
        return complex(self.g2)

    @property
    def g3c(self) -> complex:
        return complex(self.g3)

    @property
    def discriminant(self) -> complex:
        g2c, g3c = self.g2c, self.g3c
        return g2c**3 - 27.0 * g3c**2

    @property
    def key(self) -> tuple:
        return (self.g2c, self.g3c)


#: named invariant pairs for the catalog's elliptic families
_CASE_INVARIANTS = {
    "II": (0, 1),
    "III": (0, 1),
    "IV": ("-1/12", "-1/6"),
}


def invariants_from_case(case: str) -> Invariants:
    """Exact invariants for the named catalog cases II, III and IV."""
    name = case.upper()
    if name not in _CASE_INVARIANTS:
        raise ValueError(f"unknown case {case!r}; expected II, III or IV")
    g2_raw, g3_raw = _CASE_INVARIANTS[name]
    g2 = Fraction(g2_raw) if isinstance(g2_raw, str) else g2_raw
    g3 = Fraction(g3_raw) if isinstance(g3_raw, str) else g3_raw
    return Invariants(g2, g3)


def _tau_exact(tau):
    if is_exact_scalar(tau):
        return RationalComplex.coerce(tau)
    return None


def tau_is_degenerate(tau) -> bool:
    """True when tau^3 == -1, where the one-parameter family degenerates.
    Raises ValueError when a part of tau exceeds MAX_TAU in magnitude."""
    check_range("tau", tau, MAX_TAU)
    te = _tau_exact(tau)
    if te is not None:
        return (te**3 + 1).is_zero
    t = complex(tau)
    return abs(t**3 + 1) <= 1e-12 * max(1.0, abs(t) ** 3)


def invariants_from_tau(tau) -> Invariants:
    """Invariants of the one-parameter cubic-equation family:
    g2 = -27 tau 4^(1/3) (8 - tau^3), g3 = -54 (tau^6 + 20 tau^3 - 8).

    Exact for tau == 0 (giving (0, 432)); otherwise float, since g2 carries
    the real cube root of 4.  Raises DegenerateLatticeError when tau^3 == -1.
    """
    if tau_is_degenerate(tau):
        raise DegenerateLatticeError(f"tau={tau} has tau^3 == -1")
    te = _tau_exact(tau)
    if te is not None and te.is_zero:
        return Invariants(0, 432)
    t = complex(tau)
    g2 = -27.0 * t * CBRT4 * (8.0 - t**3)
    g3 = -54.0 * (t**6 + 20.0 * t**3 - 8.0)
    return Invariants(g2, g3)


def tau_cubic_coefficients(tau):
    """Exact coefficients (k, l) with X^2 = U^3 + k U + l in the variable
    U = 4^(1/3) wp; the cube root is absorbed so k, l are Gaussian rational
    for Gaussian-rational tau."""
    te = _tau_exact(tau)
    if te is None:
        raise ValueError("exact cubic coefficients require exact tau")
    k = 27 * te * (8 - te**3)
    l = 54 * (te**6 + 20 * te**3 - 8)
    return k, l


@dataclass(frozen=True)
class DiscriminantResult:
    brace_form: object
    factored_form: object
    difference: object
    exact: bool


def discriminant_of_tau(tau) -> DiscriminantResult:
    """Discriminant of the tau-family invariants, computed two ways:

    * brace form  {-27 tau 4^(1/3) (8-tau^3)}^3 - 27 {54 (tau^6+20tau^3-8)}^2
      (the cube kills the cube root, so this is exact for rational tau);
    * factored form  -5038848 (tau^3 + 1)^3.
    """
    te = _tau_exact(tau)
    if te is not None:
        t3 = te**3
        brace = ((t3 * ((8 - t3) ** 3)) + ((t3 * t3 + 20 * t3 - 8) ** 2)) * (-78732)
        factored = ((t3 + 1) ** 3) * (-5038848)
        return DiscriminantResult(brace, factored, brace - factored, True)
    t = complex(tau)
    check_range("tau", t, MAX_TAU)
    brace = (-27.0 * t * CBRT4 * (8.0 - t**3)) ** 3 - 27.0 * (
        54.0 * (t**6 + 20.0 * t**3 - 8.0)
    ) ** 2
    factored = -5038848.0 * (t**3 + 1.0) ** 3
    return DiscriminantResult(brace, factored, brace - factored, False)


# ---------------------------------------------------------------------------
# Periods.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfPeriods:
    omega1: complex
    omega3: complex


def _series_pair(u, coeffs):
    """Vectorized series evaluation: wp = 1/w + w * S(w), wp' = -2/u^3 + 2u * S'(w)
    with w = u^2 and S built from the tail coefficients c_2..c_K."""
    w = u * u
    acc = np.zeros_like(u)
    accd = np.zeros_like(u)
    # coeffs[k] holds c_k; iterate k = K .. 2
    for k in range(len(coeffs) - 1, 1, -1):
        acc *= w
        acc += coeffs[k]
        accd *= w
        accd += (k - 1) * coeffs[k]
    p = 1.0 / w + w * acc
    pp = -2.0 / (u * w) + 2.0 * u * accd
    return p, pp


def _duplicate(p, pp, g2):
    """One duplication step: values at u -> values at 2u."""
    ppp = 6.0 * p * p - g2 / 2.0
    a = ppp / pp
    p2 = 0.25 * a * a - 2.0 * p
    pp2 = 0.25 * a * (12.0 * p * pp * pp - ppp * ppp) / (pp * pp) - pp
    return p2, pp2


def _coeff_array(g2, g3, order: int) -> np.ndarray:
    """Float Taylor tail coefficients c_0 .. c_K of wp (c_0 = c_1 = 0) through
    exponent ``order``, by the recurrence that ``series._wp_tail`` runs
    exactly.  The sum runs in plain Python in this order because scan reports
    depend on every bit of these coefficients."""
    kmax = max(3, (order + 2) // 2)
    c = [0j, 0j, complex(g2) / 20.0, complex(g3) / 28.0]
    for k in range(4, kmax + 1):
        s = 0j
        for j in range(2, k - 1):
            s += c[j] * c[k - j]
        c.append(3.0 * s / ((2 * k + 1) * (k - 3)))
    return np.array(c, dtype=complex)


def _ladder(z: np.ndarray, depth: np.ndarray, coeffs: np.ndarray, g2: complex):
    """(wp, wp') at the points z by the series at z / 2**depth, then
    ``depth`` duplication steps per point (points needing fewer steps are
    masked out of the later ones).  No lattice reduction happens here."""
    u = z / np.exp2(depth)
    p, pp = _series_pair(u, coeffs)
    for j in range(int(depth.max()) if depth.size else 0):
        mask = depth > j
        if mask.all():
            p, pp = _duplicate(p, pp, g2)
            continue
        pj, ppj = _duplicate(p[mask], pp[mask], g2)
        p[mask] = pj
        pp[mask] = ppj
    return p, pp


def _validate_periods(g2, g3, w1, w3, coeffs) -> bool:
    """Genuine post-contract: at two sample points z near the origin, the
    unreduced evaluation at z + w and z - w (w = w1, w3) must satisfy the
    cubic differential equation and agree, to 1e-6 relative to |wp| + 1 and
    |wp'| + 1.  That holds when 2 w1 and 2 w3 are periods (at these generic
    points, only then), and the points stay within about one half period of
    the origin, so the duplication ladder stays short."""
    s = min(abs(2 * w1), abs(2 * w3), abs(2 * w1 + 2 * w3), abs(2 * w1 - 2 * w3))
    if s == 0:
        return False
    z = np.array([c + sign * w
                  for c in (0.1233 * w1 + 0.2177 * w3, -0.1812 * w1 + 0.3791 * w3)
                  for w in (w1, w3) for sign in (1, -1)])
    depth = np.ceil(np.log2(np.maximum(np.abs(z) / (0.3 * s), 1.0))).astype(int)
    if depth.max() > _MAX_UNREDUCED_DEPTH:
        return False
    p, pp = _ladder(z, depth, coeffs, g2)
    if not (np.isfinite(p).all() and np.isfinite(pp).all()):
        return False
    ode = pp * pp - (4.0 * p**3 - g2 * p - g3)
    if (np.abs(ode) > 1e-6 * (1.0 + np.abs(p)) ** 3).any():
        return False
    for v in (p, pp):
        if (np.abs(v[0::2] - v[1::2]) > 1e-6 * (1.0 + np.abs(v[1::2]))).any():
            return False
    return True


def periods_from_invariants(inv: Invariants) -> HalfPeriods:
    """Half periods (omega1, omega3) with Im(omega3/omega1) > 0.

    The periods come from one AGM pair over the differences of the cubic's
    roots, taken in ``cubic_roots``' order, and their Gauss-reduced basis
    must pass ``_validate_periods``.  When it fails, the same route runs once
    more on invariants scaled by homogeneity,
    wp(lam z; lam^-4 g2, lam^-6 g3) = lam^-2 wp(z; g2, g3) with
    lam = max(|g2|^(1/4), |g3|^(1/6)), and the periods it finds are divided
    by lam.  They are checked in that frame only: homogeneity carries the
    check over exactly.  Raises ConvergenceError, naming the invariants,
    when both frames fail.
    """
    g2, g3 = inv.g2c, inv.g3c
    found, reason = _agm_periods(g2, g3)
    if found is None:  # lam > 0: Invariants refuses g2 = g3 = 0
        lam = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
        scaled, scaled_reason = _agm_periods(g2 / lam**4, g3 / lam**6)
        if scaled is None:
            raise ConvergenceError(
                f"period computation failed for g2={g2}, g3={g3}: {reason}; "
                f"the invariants rescaled by homogeneity failed too: {scaled_reason}"
            )
        found = (scaled[0] / lam, scaled[1] / lam)
    return _normalize_periods(*found)


def _agm_periods(g2: complex, g3: complex):
    """((w1, w3), "") from one AGM pair, or (None, reason).

    ``_validate_periods`` checks the Gauss-reduced basis of the pair, the
    one the engine evaluates with, so its verdict belongs to the lattice
    and not to the order of the roots."""
    e1, e2, e3 = cubic_roots(4.0, -g2, -g3)
    try:
        a = cmath.sqrt(e1 - e3)
        b = cmath.sqrt(e1 - e2)
        c = cmath.sqrt(e2 - e3)
        if abs(a - b) > abs(a + b):
            b = -b
        if abs(a - c) > abs(a + c):
            c = -c
        w1 = cmath.pi / (2.0 * complex_agm(a, b))
        w3 = 1j * cmath.pi / (2.0 * complex_agm(a, c))
    except (ValueError, ConvergenceError) as exc:
        return None, str(exc)
    ratio = w3 / w1
    if abs(ratio.imag) < 1e-9:
        return None, "the AGM periods are collinear"
    if ratio.imag < 0:
        w3 = -w3
    v1, v3 = _gauss_reduce(2 * w1, 2 * w3)
    if not _validate_periods(g2, g3, v1 / 2, v3 / 2, _coeff_array(g2, g3, _SERIES_ORDER)):
        return None, "the AGM periods fail validation"
    return (w1, w3), ""


def _normalize_periods(w1: complex, w3: complex) -> HalfPeriods:
    """Deterministic representative of the validated lattice: omega1 is half
    of a shortest lattice vector with lexicographically maximal (Re, Im); for
    real rectangular/hexagonal lattices this recovers the classical positive
    real half period."""
    v1, v2 = _gauss_reduce(2 * w1, 2 * w3)
    shortest = abs(v1)
    candidates = []
    for vec, mate in ((v1, v2), (v2, v1), (v1 + v2, v2), (v1 - v2, v2)):
        for s in (1, -1):
            v = s * vec
            if abs(v) <= shortest * (1 + 1e-9):
                candidates.append((round(v.real, 9), round(v.imag, 9), v, mate))
    candidates.sort(key=lambda t: (t[0], t[1]))
    _, _, best, mate = candidates[-1]
    if (mate / best).imag < 0:
        mate = -mate
    return HalfPeriods(best / 2.0, mate / 2.0)


def _gauss_reduce(v1: complex, v2: complex):
    """Lagrange/Gauss lattice-basis reduction in the plane.

    On a lattice with two shortest vectors (hexagonal) a projection of
    +-1/2 rounded in floating point can flip the basis back and forth; a
    repeated basis is reduced, so the loop stops there."""
    seen = set()
    for _ in range(64):
        if abs(v2) < abs(v1):
            v1, v2 = v2, v1
        mu = round((v2 * v1.conjugate()).real / abs(v1) ** 2)
        if mu == 0 or (v1, v2) in seen:
            break
        seen.add((v1, v2))
        v2 = v2 - mu * v1
    else:
        raise LatticeReductionError("basis reduction did not terminate")
    if abs(v2) < abs(v1):
        v1, v2 = v2, v1
    if (v2 / v1).imag < 0:
        v2 = -v2
    return v1, v2


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class WeierstrassEngine:
    """Evaluator for one invariant pair; immutable after construction."""

    def __init__(self, inv: Invariants):
        self.invariants = inv
        self._g2 = inv.g2c
        self._g3 = inv.g3c
        self._coeffs = _coeff_array(self._g2, self._g3, _SERIES_ORDER)
        self.periods = periods_from_invariants(inv)
        v1, v2 = _gauss_reduce(2 * self.periods.omega1, 2 * self.periods.omega3)
        self.basis = (v1, v2)
        m = np.array([[v1.real, v2.real], [v1.imag, v2.imag]], dtype=float)
        self._basis_inv = np.linalg.inv(m)
        self._halving_radius = 0.3 * abs(v1)

    # -- lattice ------------------------------------------------------------
    def lattice_coordinates(self, z) -> np.ndarray:
        """Coordinates (x, y) of z = x v1 + y v2 in the reduced basis, as a
        (2, z.size) array over the flattened z."""
        flat = np.asarray(z, dtype=complex).ravel()
        return self._basis_inv @ np.vstack([flat.real, flat.imag])

    def reduce(self, z: np.ndarray) -> np.ndarray:
        """Translate z by lattice vectors into the centered fundamental cell.

        Raises LatticeReductionError where a lattice coordinate of z is not
        finite or exceeds ``_MAX_LATTICE_COORDINATE`` in magnitude."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        xy = self.lattice_coordinates(flat)
        if flat.size and not np.abs(xy).max() <= _MAX_LATTICE_COORDINATE:
            far = int(np.argmin(np.all(np.abs(xy) <= _MAX_LATTICE_COORDINATE, axis=0)))
            raise LatticeReductionError(
                f"z={complex(flat[far])} has lattice coordinates "
                f"({xy[0, far]:.6g}, {xy[1, far]:.6g}); the reduction resolves "
                f"only coordinates up to 2^20 in magnitude"
            )
        fx = xy[0] - np.round(xy[0])
        fy = xy[1] - np.round(xy[1])
        v1, v2 = self.basis
        return (fx * v1 + fy * v2).reshape(z.shape)

    def cell_point(self, x: float, y: float) -> complex:
        """Point x*v1 + y*v2 of the fundamental cell (x, y in [-1/2, 1/2))."""
        v1, v2 = self.basis
        return x * v1 + y * v2

    # -- evaluation ---------------------------------------------------------
    def eval(self, z):
        """Vectorized evaluation.

        Returns (wp, wp', wp'', pole_mask) as arrays shaped like z; entries
        within _POLE_RADIUS of a lattice point are NaN with pole_mask True.
        """
        z = np.asarray(z, dtype=complex)
        shape = z.shape
        zr = self.reduce(z).ravel()
        r = np.abs(zr)
        pole = r < _POLE_RADIUS
        any_pole = bool(pole.any())
        if any_pole:
            zr = np.where(pole, self._halving_radius, zr)
            r = np.abs(zr)
        depth = np.ceil(
            np.log2(np.maximum(r / self._halving_radius, 1.0)) - 1e-12
        ).astype(int)
        depth = np.maximum(depth, 0)
        dmax = int(depth.max()) if depth.size else 0
        if dmax > _MAX_LADDER:
            raise LatticeReductionError(
                f"duplication ladder depth {dmax} exceeds budget {_MAX_LADDER}"
            )
        p, pp = _ladder(zr, depth, self._coeffs, self._g2)
        ppp = 6.0 * p * p - self._g2 / 2.0
        if any_pole:
            nanc = complex(float("nan"), float("nan"))
            p[pole] = pp[pole] = ppp[pole] = nanc
        return (
            p.reshape(shape),
            pp.reshape(shape),
            ppp.reshape(shape),
            pole.reshape(shape),
        )

    def eval_scalar(self, z: complex):
        """(wp, wp', wp'') at one point; raises PoleProximityError at poles."""
        p, pp, ppp, pole = self.eval(np.asarray([z], dtype=complex))
        if bool(pole[0]) or not np.isfinite(p[0]):
            raise PoleProximityError(f"z={z} is within {_POLE_RADIUS} of a pole")
        return complex(p[0]), complex(pp[0]), complex(ppp[0])

    def ode_residual(self, z):
        """Scaled residual |wp'^2 - (4 wp^3 - g2 wp - g3)| / (1 + |wp|)^3."""
        p, pp, _, pole = self.eval(z)
        res = pp * pp - (4.0 * p**3 - self._g2 * p - self._g3)
        return np.abs(res) / (1.0 + np.abs(p)) ** 3


#: engines kept by ``engine_for``; the least recently used one is evicted
#: beyond this many
ENGINE_CACHE_CAPACITY = 64
_ENGINE_CACHE: OrderedDict = OrderedDict()


def engine_for(inv: Invariants) -> WeierstrassEngine:
    """Shared engine per invariant pair (engines are immutable), from a
    least-recently-used cache of ``ENGINE_CACHE_CAPACITY`` engines."""
    key = inv.key
    eng = _ENGINE_CACHE.get(key)
    if eng is None:
        eng = WeierstrassEngine(inv)
        _ENGINE_CACHE[key] = eng
        if len(_ENGINE_CACHE) > ENGINE_CACHE_CAPACITY:
            _ENGINE_CACHE.popitem(last=False)
    else:
        _ENGINE_CACHE.move_to_end(key)
    return eng
