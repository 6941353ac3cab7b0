"""Numeric verification: pole-aware residual scans and zero-set analysis.

Scans never let a near-pole sample masquerade as evidence: samples are
excluded (with a recorded reason) when any denominator magnitude drops below
the window's soft-exclusion level, when an elliptic atom exceeds a magnitude
ceiling, or when evaluation produced a non-finite value.  A scan whose
exclusion fraction exceeds the budget refuses to certify and reports
INCONCLUSIVE instead of PASS/FAIL.

The zero analyzer works on the cleared-denominator numerator of the target
expression, certifies every reported multiplicity by a small-circle winding
number, refines each location by the winding centroid, and reconciles the
interior count (zeros minus elliptic pole orders) against an independently
computed boundary winding.  Any ambiguity -- near-boundary zeros,
unresolvable phase tracking, count mismatch -- raises AnalyzerError rather
than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AnalyzerError
from .exprs import (
    Exp,
    Expr,
    W,
    Wp,
    WpPrime,
    as_fraction,
    denominators,
    differentiate,
    evaluate,
    evaluate_many,
    share,
    walk,
    wp_nodes,
)
from .families import SolutionFamily

# Below this separation, double precision cannot tell two zeros of a
# multiplicity >= 3 cluster apart from one zero: accepted Newton iterates
# scatter across the cancellation basin of radius ~ (eps * scale)^(1/k).
_CANCELLATION_MERGE_RADIUS = 2.5e-4

# Zero analyzer: Newton steps from every grid seed, the step size that
# accepts a root, the radius that merges duplicate iterates, the least
# allowed distance between certified zeros and poles, the radius and node
# count of the multiplicity circles, and the least distance of a zero or
# pole from the window boundary.
_NEWTON_STEPS = 50
_STEP_TOL = 1e-12
_DEDUPE_RADIUS = 1e-7
_MIN_SPACING = 5e-3
_MULT_RADIUS = 1e-3
_MULT_NODES = 256
_BOUNDARY_MARGIN = 1e-6

#: zeros of two reports closer than this are the same zero
_MATCH_RADIUS = 1e-6

#: most refinement passes of contour phase tracking
_PHASE_PASSES = 12

#: boundary contour nodes per unit length
_BOUNDARY_NODES_PER_UNIT = 32.0

#: most grid points a window may ask for (about 6x the 401 x 401 grid of a
#: dense scan); beyond it a scan would exhaust memory or time, so the window
#: is refused up front
MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# Windows and grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanWindow:
    """Axis-aligned rectangle with sampling density (points per unit length)
    and the soft-exclusion magnitude for denominators."""

    re_min: float = -2.0
    re_max: float = 2.0
    im_min: float = -2.0
    im_max: float = 2.0
    grid_density: float = 20.0
    soft_exclusion: float = 0.05

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max, self.grid_density)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("window bounds and grid density must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("window must have positive extent")
        if self.grid_density < 4:
            raise ValueError("grid density must be at least 4 points per unit")
        if self.soft_exclusion <= 0:
            raise ValueError("soft exclusion must be positive")
        n_re, n_im = self.axis_counts()
        if n_re * n_im > MAX_GRID_POINTS:
            raise ValueError(
                f"window needs {n_re} x {n_im} grid points, more than the "
                f"limit of {MAX_GRID_POINTS}"
            )

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    def axis_counts(self) -> tuple[int, int]:
        n_re = max(2, int(math.ceil(self.width * self.grid_density)) + 1)
        n_im = max(2, int(math.ceil(self.height * self.grid_density)) + 1)
        return n_re, n_im

    def grid(self) -> np.ndarray:
        """Row-major grid, imaginary axis slow, real axis fast."""
        n_re, n_im = self.axis_counts()
        re = np.linspace(self.re_min, self.re_max, n_re)
        im = np.linspace(self.im_min, self.im_max, n_im)
        return (re[None, :] + 1j * im[:, None]).ravel()

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z)
        return (
            (z.real >= self.re_min)
            & (z.real <= self.re_max)
            & (z.imag >= self.im_min)
            & (z.imag <= self.im_max)
        )

    def boundary_distance(self, z) -> np.ndarray:
        """Distance to the rectangle's boundary curve (inside or outside)."""
        z = np.asarray(z)
        x, y = z.real, z.imag
        dx_out = np.maximum(np.maximum(self.re_min - x, x - self.re_max), 0.0)
        dy_out = np.maximum(np.maximum(self.im_min - y, y - self.im_max), 0.0)
        outside = np.hypot(dx_out, dy_out)
        inside = np.minimum(
            np.minimum(x - self.re_min, self.re_max - x),
            np.minimum(y - self.im_min, self.im_max - y),
        )
        return np.where(outside > 0, outside, np.maximum(inside, 0.0))

    def boundary_nodes(self) -> np.ndarray:
        """Closed counterclockwise polyline (last node equals the first)."""
        corners = [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]
        pts = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            n = max(16, int(math.ceil(abs(b - a) * _BOUNDARY_NODES_PER_UNIT)))
            pts.append(a + (b - a) * np.arange(n) / n)
        return np.concatenate(pts + [np.array([corners[0]])])

    def to_dict(self) -> dict:
        return {
            "re_min": self.re_min,
            "re_max": self.re_max,
            "im_min": self.im_min,
            "im_max": self.im_max,
            "grid_density": self.grid_density,
            "soft_exclusion": self.soft_exclusion,
        }


# ---------------------------------------------------------------------------
# Residual scanning.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    check: str
    family_id: str
    params: dict
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    tolerance: float
    p95_residual: float
    max_residual: float
    points_total: int
    points_excluded: int
    exclusion_reasons: dict
    window: dict
    grid: dict
    failures: tuple = ()
    samples: Optional[np.ndarray] = None  # _SAMPLE_DTYPE rows, one per point

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @property
    def excluded_fraction(self) -> float:
        return self.points_excluded / self.points_total if self.points_total else 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "family": self.family_id,
            "params": dict(self.params),
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "p95_residual": self.p95_residual,
            "max_residual": self.max_residual,
            "points_total": self.points_total,
            "points_excluded": self.points_excluded,
            "exclusion_reasons": dict(self.exclusion_reasons),
            "window": dict(self.window),
            "grid": dict(self.grid),
            "failures": [dict(f) for f in self.failures],
        }


#: one row of ScanReport.samples; non-finite residuals are stored as nan
_SAMPLE_DTYPE = np.dtype([("z_re", "f8"), ("z_im", "f8"), ("residual_abs", "f8"),
                          ("residual_rel", "f8"), ("excluded", "i1")])


def _p95(sorted_vals: np.ndarray) -> float:
    n = sorted_vals.size
    if n == 0:
        return float("nan")
    k = min(n - 1, int(math.floor(0.95 * n)))
    return float(sorted_vals[k])


def _guarded_values(exprs: list, z, den_floor, wp_ceiling):
    """(values of exprs, excluded, counts) on z, excluding the samples where
    a value is not finite, a denominator of exprs[0] is small or one of its
    wp atoms is large; reasons are counted by priority:
    nonfinite > denominator > pole-magnitude."""
    denos = denominators(exprs[0])
    vals = evaluate_many(share(*exprs, *denos, *wp_nodes(exprs[0])), z)
    n, m = len(exprs), len(exprs) + len(denos)

    def flagged(arrs, test) -> np.ndarray:
        # nodes that share a subtree evaluate to one array: test it once
        out = np.zeros(z.shape, dtype=bool)
        for arr in {id(a): a for a in arrs}.values():
            out |= test(arr)
        return out

    nonfinite = flagged(vals[:n], lambda a: ~np.isfinite(a))
    den_small = flagged(vals[n:m], lambda a: ~np.isfinite(a) | (np.abs(a) < den_floor))
    wp_big = flagged(vals[m:], lambda a: ~np.isfinite(a) | (np.abs(a) > wp_ceiling))
    excluded = nonfinite | den_small | wp_big
    counts = {
        "nonfinite": int(np.count_nonzero(nonfinite)),
        "denominator": int(np.count_nonzero(den_small & ~nonfinite)),
        "pole-magnitude": int(np.count_nonzero(wp_big & ~nonfinite & ~den_small)),
    }
    return vals[:n], excluded, counts


def _family_params(family: SolutionFamily) -> dict:
    out = {"m": family.m, "n": family.n, "kind": family.kind}
    out.update(family.params.to_dict())
    return out


def _relative_scan(
    check: str,
    family: SolutionFamily,
    residual: Expr,
    scale_terms: Sequence[tuple[Expr, float]],
    window: ScanWindow,
    tol: float,
    pole_ceiling: float,
    exclusion_budget: float,
    keep_samples: bool,
) -> ScanReport:
    """Shared core: rel = |residual| / (1 + sum |term|^power) over the grid."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    z = window.grid()
    n_re, n_im = window.axis_counts()
    terms = [t for t, _ in scale_terms]
    vals, excluded, counts = _guarded_values(
        [residual] + terms, z, window.soft_exclusion, pole_ceiling
    )
    rv, term_vals = vals[0], vals[1:]
    scale = np.ones(z.shape, dtype=float)
    for tv, power in zip(term_vals, [p for _, p in scale_terms]):
        scale = scale + np.abs(tv) ** power
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(rv) / scale
    bad_rel = ~np.isfinite(rel) & ~excluded
    if np.any(bad_rel):
        counts["nonfinite"] += int(np.count_nonzero(bad_rel))
        excluded = excluded | bad_rel

    n = z.size
    n_exc = int(np.count_nonzero(excluded))
    valid_rel = rel[~excluded]
    p95 = _p95(np.sort(valid_rel))
    max_rel = float(np.max(valid_rel)) if valid_rel.size else float("nan")
    if n_exc / n > exclusion_budget or valid_rel.size == 0:
        verdict = "INCONCLUSIVE"
    elif p95 < tol:
        verdict = "PASS"
    else:
        verdict = "FAIL"

    valid_idx = np.flatnonzero(~excluded)
    k = valid_idx.size - 20
    if k > 0:
        # the stable order's first 20 lie among the points at or above the
        # 20th largest value; keeping every tie there keeps them exact
        valid_idx = valid_idx[rel[valid_idx] >= np.partition(rel[valid_idx], k)[k]]
    order = valid_idx[np.argsort(-rel[valid_idx], kind="stable")]
    failures = tuple(
        {"z_re": float(z[i].real), "z_im": float(z[i].imag), "residual_rel": float(rel[i])}
        for i in order[:20]
    )
    samples = None
    if keep_samples:
        samples = np.empty(n, dtype=_SAMPLE_DTYPE)
        samples["z_re"], samples["z_im"] = z.real, z.imag
        samples["residual_abs"] = np.where(np.isfinite(rv), np.abs(rv), np.nan)
        samples["residual_rel"] = np.where(np.isfinite(rel), rel, np.nan)
        samples["excluded"] = excluded
    return ScanReport(
        check=check,
        family_id=family.family_id,
        params=_family_params(family),
        verdict=verdict,
        tolerance=tol,
        p95_residual=p95,
        max_residual=max_rel,
        points_total=n,
        points_excluded=n_exc,
        exclusion_reasons=counts,
        window=window.to_dict(),
        grid={"n_re": n_re, "n_im": n_im, "density": window.grid_density},
        failures=failures,
        samples=samples,
    )


def residual_scan(
    family: SolutionFamily,
    window: ScanWindow = ScanWindow(),
    tol: float = 1e-8,
    pole_ceiling: float = 1e8,
    exclusion_budget: float = 0.20,
    keep_samples: bool = False,
) -> ScanReport:
    """Grid scan of the family's defining-equation residual, relative to
    1 + |f|^m + |g|^n."""
    return _relative_scan(
        "residual",
        family,
        family.residual_expr(),
        [(family.f, float(family.m)), (family.g, float(family.n))],
        window,
        tol,
        pole_ceiling,
        exclusion_budget,
        keep_samples,
    )


def derivative_identity_scan(
    family: SolutionFamily,
    window: ScanWindow = ScanWindow(),
    tol: float = 1e-8,
    pole_ceiling: float = 1e8,
    exclusion_budget: float = 0.20,
    keep_samples: bool = False,
) -> ScanReport:
    """Scan of m f^(m-1) f' + n g^(n-1) g', the derivative of the defining
    equation, relative to 1 + |f|^m + |g|^n.  Only meaningful for families
    whose equation is f^m + g^n = 1."""
    if family.kind not in ("fermat", "corollary"):
        raise ValueError(
            "derivative identity scan applies to f^m + g^n = 1 families only"
        )
    return _relative_scan(
        "derivative-identity",
        family,
        family.derivative_identity_expr(),
        [(family.f, float(family.m)), (family.g, float(family.n))],
        window,
        tol,
        pole_ceiling,
        exclusion_budget,
        keep_samples,
    )


# ---------------------------------------------------------------------------
# Zero analysis.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroRecord:
    re: float
    im: float
    multiplicity: int

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def to_dict(self) -> dict:
        return {"re": self.re, "im": self.im, "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class ZeroReport:
    window: dict
    zeros: tuple  # ZeroRecord, zeros of the expression itself
    cancelled: tuple  # numerator zeros coinciding with denominator zeros
    poles: tuple  # (re, im, order) of elliptic-atom poles inside the window
    interior_total: int  # numerator zeros minus pole orders, with multiplicity
    boundary_total: int  # boundary winding of the numerator
    n_seeds: int

    @property
    def reconciled(self) -> bool:
        return self.interior_total == self.boundary_total

    def to_dict(self) -> dict:
        return {
            "window": dict(self.window),
            "zeros": [r.to_dict() for r in self.zeros],
            "cancelled": [r.to_dict() for r in self.cancelled],
            "poles": [{"re": p[0], "im": p[1], "order": p[2]} for p in self.poles],
            "interior_total": self.interior_total,
            "boundary_total": self.boundary_total,
            "reconciled": self.reconciled,
            "seeds": self.n_seeds,
        }


def _phase_track(num: Expr, nodes: np.ndarray, floor: float):
    """Winding of num along a closed polyline by phase tracking with adaptive
    refinement; returns (winding_float, nodes, values)."""
    z = np.asarray(nodes, dtype=complex)
    v = evaluate(num, z)
    for _ in range(_PHASE_PASSES):
        if np.any(~np.isfinite(v)) or np.any(np.abs(v) <= floor):
            raise AnalyzerError(
                "numerator vanishes or is singular on the contour; "
                "a zero or pole sits too close to it"
            )
        step = np.angle(v[1:] / v[:-1])
        bad = np.abs(step) > 0.5 * math.pi
        if not np.any(bad):
            return float(np.sum(step) / (2.0 * math.pi)), z, v
        mids = 0.5 * (z[:-1][bad] + z[1:][bad])
        mv = evaluate(num, mids)
        idx = np.flatnonzero(bad) + 1
        z = np.insert(z, idx, mids)
        v = np.insert(v, idx, mv)
    raise AnalyzerError("phase tracking failed to stabilize on the contour")


def _circle_winding(num: Expr, dnum: Expr, center: complex) -> tuple[int, complex]:
    """(winding, centroid) about the circle of radius _MULT_RADIUS on
    _MULT_NODES uniform angle nodes: winding by phase tracking, centroid
    from (1/2 pi i) contour-integral of z num'/num divided by the winding.

    The centroid integral uses the parametrized trapezoid rule on the uniform
    angle nodes (dz = i (z - center) d theta), which is spectrally accurate
    for the circle; a chord-based rule would be ~1e-3 off at this radius."""
    theta = 2.0 * math.pi * np.arange(_MULT_NODES + 1) / _MULT_NODES
    circ = center + _MULT_RADIUS * np.exp(1j * theta)
    raw, _, _ = _phase_track(num, circ, 0.0)
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise AnalyzerError(
            f"winding about {complex(center):.6g} is not close to an integer ({raw:.4f})"
        )
    w = int(nearest)
    if w == 0:
        return 0, complex(center)
    zs = circ[:-1]
    vs, ds = evaluate_many([num, dnum], zs)
    integral = np.sum(zs * (ds / vs) * (zs - center)) / _MULT_NODES
    return w, complex(integral / w)


def _expr_pole_points(num: Expr, window: ScanWindow):
    """Pole candidates of the numerator inside the window: the lattice points
    of every elliptic atom, which ``_supported_atoms_or_raise`` has checked
    to be evaluated at the bare variable."""
    engines = []
    for node in wp_nodes(num):
        if all(node.engine is not e for e in engines):
            engines.append(node.engine)
    pts: list[complex] = []
    for eng in engines:
        v1, v2 = eng.basis
        corners = [
            complex(window.re_min, window.im_min),
            complex(window.re_max, window.im_min),
            complex(window.re_max, window.im_max),
            complex(window.re_min, window.im_max),
        ]
        det = v1.real * v2.imag - v1.imag * v2.real
        a_vals, b_vals = [], []
        for c in corners:
            a_vals.append((c.real * v2.imag - c.imag * v2.real) / det)
            b_vals.append((v1.real * c.imag - v1.imag * c.real) / det)
        a_lo, a_hi = int(math.floor(min(a_vals))) - 1, int(math.ceil(max(a_vals))) + 1
        b_lo, b_hi = int(math.floor(min(b_vals))) - 1, int(math.ceil(max(b_vals))) + 1
        for a in range(a_lo, a_hi + 1):
            for b in range(b_lo, b_hi + 1):
                p = a * v1 + b * v2
                if window.contains(p) and all(abs(p - q) > 1e-9 for q in pts):
                    pts.append(complex(p))
    pts.sort(key=lambda p: (round(p.real, 9), round(p.imag, 9)))
    return pts


def _supported_atoms_or_raise(num: Expr):
    """The analyzer needs the numerator meromorphic with an enumerable pole
    set: elliptic atoms at the bare variable, exponential atoms with
    division-free arguments."""
    for node in walk(num):
        if isinstance(node, Exp) and denominators(node.arg):
            raise AnalyzerError(
                "exponential atom with a rational argument has essential "
                "singularities; zero accounting is not supported"
            )
        if isinstance(node, (Wp, WpPrime)) and node.arg is not W:
            raise AnalyzerError(
                "cannot enumerate poles of an elliptic atom with a composed argument"
            )


def _cluster(points: np.ndarray, radius: float) -> list[complex]:
    """Means of the clusters of ``points``, in order of their heads.

    Points are visited in rounded (re, im) order; the first point no head
    claims becomes the next head and claims every unclaimed point within
    ``radius`` of it.  That is the cluster each point would join in a scan
    of the heads in creation order, with its members in visiting order."""
    order = np.lexsort((np.round(points.imag, 9), np.round(points.real, 9)))
    rest = points[order]
    means = []
    while rest.size:
        # np.hypot rounds like the scalar abs(); np.abs on a complex array
        # may differ in the last bit, which would move a boundary point
        d = rest - rest[0]
        near = np.hypot(d.real, d.imag) < radius
        near[0] = True
        means.append(complex(np.mean(rest[near])))
        rest = rest[~near]
    return means


def zero_scan(expr: Expr, window: ScanWindow = ScanWindow()) -> ZeroReport:
    """Locate and certify the zero set of ``expr`` inside ``window``.

    Newton iteration runs on the cleared-denominator numerator from every
    grid seed; a root is accepted when the step collapses below _STEP_TOL or
    the numerator drops below a floor tied to the grid magnitude (the floor
    is what makes high-multiplicity roots, with their slow linear Newton
    rate, detectable).  Duplicates merge at _DEDUPE_RADIUS and once more at
    the double-precision cancellation radius; each certified location is the
    winding centroid of its circle, accurate far beyond the raw iterates.
    """
    num, den = as_fraction(expr)
    _supported_atoms_or_raise(num)
    num, dnum, den = share(num, differentiate(num), den)

    seeds = window.grid()
    nv0 = evaluate(num, seeds)
    finite0 = np.abs(nv0[np.isfinite(nv0)])
    grid_scale = float(np.max(finite0)) if finite0.size else 1.0
    res_floor = 1e-24 * (1.0 + grid_scale)
    loose_floor = 1e-6 * (1.0 + grid_scale)

    z = seeds.astype(complex).copy()
    step_abs = np.full(z.shape, np.inf)
    for _ in range(_NEWTON_STEPS):
        nv, dv = evaluate_many([num, dnum], z)
        with np.errstate(all="ignore"):
            step = nv / dv
        ok = np.isfinite(step)
        step = np.where(ok, step, 0.0)
        z = z - step
        step_abs = np.where(ok, np.abs(step), np.inf)
    nv = evaluate(num, z)
    finite = np.isfinite(z) & np.isfinite(nv)
    by_step = (step_abs < _STEP_TOL) & (np.abs(nv) <= loose_floor)
    by_floor = np.abs(nv) <= res_floor
    converged = finite & (by_step | by_floor)

    roots_raw = z[converged]
    near = roots_raw[window.boundary_distance(roots_raw) < _BOUNDARY_MARGIN]
    if near.size:
        raise AnalyzerError(
            f"zero within {_BOUNDARY_MARGIN:g} of the window boundary at "
            f"{complex(near[0]):.9g}; shift the window"
        )
    roots_raw = roots_raw[window.contains(roots_raw)]

    fine = _cluster(roots_raw, _DEDUPE_RADIUS)
    roots = _cluster(np.asarray(fine, dtype=complex), _CANCELLATION_MERGE_RADIUS) if fine else []
    roots.sort(key=lambda r: (round(r.real, 9), round(r.imag, 9)))

    poles = _expr_pole_points(num, window)
    for p in poles:
        if window.boundary_distance(np.asarray(p)) < _BOUNDARY_MARGIN:
            raise AnalyzerError(
                f"elliptic pole within {_BOUNDARY_MARGIN:g} of the window "
                f"boundary at {complex(p):.9g}; shift the window"
            )

    special = roots + poles
    for i in range(len(special)):
        for j in range(i + 1, len(special)):
            if abs(special[i] - special[j]) < _MIN_SPACING:
                raise AnalyzerError(
                    f"zeros/poles closer than {_MIN_SPACING:g} near "
                    f"{complex(special[i]):.6g}; multiplicities cannot be isolated"
                )

    den_grid = evaluate(den, seeds)
    den_finite = np.abs(den_grid[np.isfinite(den_grid)])
    den_scale = float(np.max(den_finite)) if den_finite.size else 1.0
    den_floor = 1e-9 * (1.0 + den_scale)

    zero_records = []
    cancelled_records = []
    interior = 0
    for r in roots:
        mult, refined = _circle_winding(num, dnum, r)
        if mult < 1:
            raise AnalyzerError(f"winding {mult} at claimed zero {complex(r):.6g}")
        if abs(refined - r) > 0.5 * _MULT_RADIUS:
            raise AnalyzerError(
                f"centroid {refined:.6g} strayed from cluster {complex(r):.6g}"
            )
        interior += mult
        dv = evaluate(den, np.asarray([refined]))[0]
        den_zero = (not np.isfinite(dv)) or abs(dv) <= den_floor
        rec = ZeroRecord(float(refined.real), float(refined.imag), int(mult))
        (cancelled_records if den_zero else zero_records).append(rec)

    pole_records = []
    for p in poles:
        w, _ = _circle_winding(num, dnum, p)
        if w > 0:
            raise AnalyzerError(
                f"positive winding {w} at an expected pole {complex(p):.6g}"
            )
        interior += w
        if w < 0:
            pole_records.append((float(p.real), float(p.imag), int(-w)))

    b_floor = 1e-12 * (1.0 + grid_scale)
    raw, nodes_z, vv = _phase_track(num, window.boundary_nodes(), b_floor)
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise AnalyzerError(f"boundary winding {raw:.4f} is not close to an integer")
    # cross-check with a trapezoid quadrature of the logarithmic derivative
    dv = evaluate(dnum, nodes_z)
    w_ld = dv / vv
    integral = np.sum(0.5 * (w_ld[:-1] + w_ld[1:]) * np.diff(nodes_z)) / (2j * math.pi)
    if abs(integral.real - raw) > 0.1 or abs(integral.imag) > 0.1:
        raise AnalyzerError(
            f"boundary winding cross-check failed: phase {raw:.4f} vs "
            f"quadrature {integral:.4f}"
        )
    boundary_total = int(nearest)
    if interior != boundary_total:
        raise AnalyzerError(
            f"argument-principle mismatch: interior {interior} vs boundary "
            f"{boundary_total}; seeds likely missed a zero"
        )
    zero_records.sort(key=lambda r: (round(r.re, 9), round(r.im, 9)))
    cancelled_records.sort(key=lambda r: (round(r.re, 9), round(r.im, 9)))
    return ZeroReport(
        window=window.to_dict(),
        zeros=tuple(zero_records),
        cancelled=tuple(cancelled_records),
        poles=tuple(pole_records),
        interior_total=interior,
        boundary_total=boundary_total,
        n_seeds=int(seeds.size),
    )


@dataclass(frozen=True)
class ZeroComparison:
    relation: str  # subset | superset | equal
    mode: str  # counting | ignoring
    verdict: bool
    proper: Optional[bool]  # for subset/superset: proper inclusion?
    matched: tuple
    violations: tuple
    proper_witnesses: tuple

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "mode": self.mode,
            "verdict": self.verdict,
            "proper": self.proper,
            "matched": [dict(m) for m in self.matched],
            "violations": [dict(v) for v in self.violations],
            "proper_witnesses": [dict(w) for w in self.proper_witnesses],
        }


def _containment(za, zb, mode: str):
    """Is every zero of A also one of B (counting: with at least the same
    multiplicity)?  Returns (ok, violations, matched)."""
    violations = []
    matched = []
    for a in za:
        hits = [b for b in zb if abs(b.z - a.z) <= _MATCH_RADIUS]
        if len(hits) > 1:
            raise AnalyzerError(
                f"ambiguous match: zero {a.z:.9g} pairs with several zeros "
                f"within {_MATCH_RADIUS:g}"
            )
        if not hits:
            violations.append(
                {"re": a.re, "im": a.im, "multiplicity": a.multiplicity,
                 "reason": "no matching zero"}
            )
            continue
        b = hits[0]
        entry = {
            "re": a.re,
            "im": a.im,
            "multiplicity": a.multiplicity,
            "matched_multiplicity": b.multiplicity,
        }
        if mode == "counting" and b.multiplicity < a.multiplicity:
            entry["reason"] = "multiplicity drop"
            violations.append(entry)
        else:
            matched.append(entry)
    return not violations, violations, matched


def zero_set_compare(
    ra: ZeroReport,
    rb: ZeroReport,
    relation: str = "subset",
    mode: str = "counting",
) -> ZeroComparison:
    """Compare the zero sets of two ZeroReports under subset/superset/equal,
    counting or ignoring multiplicity.  For subset/superset the result also
    says whether the inclusion is proper, with the extra zeros as witnesses.
    """
    if relation not in ("subset", "superset", "equal"):
        raise ValueError("relation must be 'subset', 'superset' or 'equal'")
    if mode not in ("counting", "ignoring"):
        raise ValueError("mode must be 'counting' or 'ignoring'")
    ok_ab, viol_ab, match_ab = _containment(ra.zeros, rb.zeros, mode)
    ok_ba, viol_ba, match_ba = _containment(rb.zeros, ra.zeros, mode)
    if relation == "subset":
        verdict, proper = ok_ab, ok_ab and not ok_ba
        matched, violations, proper_wit = match_ab, viol_ab, viol_ba if ok_ab else []
    elif relation == "superset":
        verdict, proper = ok_ba, ok_ba and not ok_ab
        matched, violations, proper_wit = match_ba, viol_ba, viol_ab if ok_ba else []
    else:
        verdict, proper = ok_ab and ok_ba, None
        matched = match_ab
        violations = [dict(v, side="A") for v in viol_ab] + [
            dict(v, side="B") for v in viol_ba
        ]
        proper_wit = []
    return ZeroComparison(
        relation=relation,
        mode=mode,
        verdict=verdict,
        proper=proper,
        matched=tuple(matched),
        violations=tuple(violations),
        proper_witnesses=tuple(proper_wit),
    )
