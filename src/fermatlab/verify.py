"""Numeric verification: pole-aware residual scans and zero-set analysis.

Scans never let a near-pole sample masquerade as evidence: samples are
excluded (with a recorded reason) when any denominator magnitude drops below
the window's soft-exclusion level, when an elliptic atom exceeds a magnitude
ceiling, or when evaluation produced a non-finite value.  A scan whose
exclusion fraction exceeds the budget refuses to certify and reports
INCONCLUSIVE instead of PASS/FAIL.

The zero analyzer works on the cleared-denominator numerator of the target
expression.  It subdivides the window into cells, counts each cell's zeros
by its boundary winding and locates a lone zero by the contour moments of
the logarithmic derivative, certifies every reported multiplicity by a
small-circle winding number, refines each location by the winding
centroid, takes the denominator's order at the zero from its winding on
the same circle, and reconciles the interior count (zeros minus elliptic
pole orders), which the leaf cells and their circles give on their own
contours, against the winding of the window's boundary.  Any ambiguity --
near-boundary zeros, unresolvable phase tracking, zeros too close to
separate, count mismatch -- raises AnalyzerError rather than guessing.
The work that depends on the expression alone (clearing denominators, the
atom check, compiling N, D and their derivatives) is cached per expression,
so a repeat scan of an expression does only the work of its window.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AnalyzerError
from .exprs import (
    Exp,
    Expr,
    ONE,
    Schedule,
    W,
    Wp,
    WpPrime,
    as_fraction,
    denominators,
    differentiate,
    distinct_nodes,
    evaluate_many,
    wp_nodes,
)
from .families import SolutionFamily

# Zero analyzer: the least allowed distance between certified zeros and
# poles, the radius and node count of the certifying circles, and the least
# distance of a pole from the window boundary.
_MIN_SPACING = 5e-3
_MULT_RADIUS = 1e-3
_MULT_NODES = 256
_BOUNDARY_MARGIN = 1e-6

#: nodes of the Gauss-Legendre rule of each panel of a cell edge; an edge
#: has at least _EDGE_PANELS panels and _BOUNDARY_NODES_PER_UNIT rule nodes
#: per unit length, and phase tracking refines it from there
_GL_NODES = 8
_EDGE_PANELS = 4

#: fractions of a cell's longer side tried in turn for its split line
_SPLIT_FRACTIONS = (0.5, 0.4, 0.6, 0.3, 0.7)

#: moments (s0, s1, s2) about a centre show one distinct zero when
#: |s0 s2 - s1^2| <= _ONE_ZERO_TOL * |s0 * size|^2, size that of the cell or
#: of the certifying circle's radius
_ONE_ZERO_TOL = 1e-6

#: a split is taken when its children's moment counts s0 miss their winding
#: counts by at most this in sum; a zero on or near the split line spoils
#: the quadrature and so the match
_COUNT_TOL = 1e-3

#: zeros of two reports closer than this are the same zero
_MATCH_RADIUS = 1e-6

#: passes of contour phase tracking: each but the last halves every steep
#: step, and a polyline still steep in the last one fails
_PHASE_PASSES = 12

#: Gauss-Legendre nodes per unit length of a cell edge
_BOUNDARY_NODES_PER_UNIT = 32.0

#: points a scan evaluates at a time: each node of the scanned trees is then
#: one array of this size, not one the size of the grid
_SCAN_BLOCK = 8192

#: most grid points a scan may sample (about 6x the 401 x 401 grid of a
#: dense scan); beyond it a scan would exhaust memory or time, so the grid
#: is refused before it is built
MAX_GRID_POINTS = 1_000_000

#: most lattice points (its engines' rows near the window, summed) and boundary
#: rule nodes a zero scan may take; a window over either is refused up front.
#: 1.6e6 nodes is 32 per unit of 50,000, the longest perimeter of a grid
#: within the limit above at density 20
MAX_ZERO_LATTICE_POINTS = 20_000
MAX_ZERO_BOUNDARY_NODES = 1_600_000


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
        if not (math.isfinite(self.soft_exclusion) and self.soft_exclusion > 0):
            raise ValueError("soft exclusion must be positive and finite")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    def axis_counts(self) -> tuple[int, int]:
        # float counts, so that a width beyond the float range is refused
        # here instead of overflowing int()
        n_re, n_im = (max(2.0, np.ceil(span * self.grid_density) + 1.0)
                      for span in (self.width, self.height))
        if n_re * n_im > MAX_GRID_POINTS:
            raise ValueError(
                f"window needs {n_re:.3g} x {n_im:.3g} grid points, more than "
                f"the limit of {MAX_GRID_POINTS}"
            )
        return int(n_re), int(n_im)

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid's real (fast) and imaginary (slow) coordinates."""
        n_re, n_im = self.axis_counts()
        return (np.linspace(self.re_min, self.re_max, n_re),
                np.linspace(self.im_min, self.im_max, n_im))


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


def _guarded_values(nodes: Schedule, n: int, m: int, z, den_floor, wp_ceiling,
                    counts: dict):
    """(values of nodes[:n], excluded) on z, excluding the samples where a
    value is not finite, a denominator nodes[n:m] is small or a wp atom
    nodes[m:] is large; reasons are added to counts by priority:
    nonfinite > denominator > pole-magnitude."""
    vals = evaluate_many(nodes, z)

    def flagged(arrs, test) -> np.ndarray:
        out = np.zeros(z.shape, dtype=bool)
        for arr in arrs:
            out |= test(arr)
        return out

    nonfinite = flagged(vals[:n], lambda a: ~np.isfinite(a))
    den_small = flagged(vals[n:m], lambda a: ~np.isfinite(a) | (np.abs(a) < den_floor))
    wp_big = flagged(vals[m:], lambda a: ~np.isfinite(a) | (np.abs(a) > wp_ceiling))
    counts["nonfinite"] += int(np.count_nonzero(nonfinite))
    counts["denominator"] += int(np.count_nonzero(den_small & ~nonfinite))
    counts["pole-magnitude"] += int(np.count_nonzero(wp_big & ~nonfinite & ~den_small))
    return vals[:n], nonfinite | den_small | wp_big


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
    """Shared core: rel = |residual| / (1 + sum |term|^power) over the grid.

    The grid is scanned in blocks of _SCAN_BLOCK points, each built from the
    grid rows that hold it, so a scan keeps rel and excluded per point and
    never the complex grid.  A last block of one point joins the block
    before it: the engine rounds a one-element array apart from a longer
    one, so a lone point would get other bits than the same point in a
    block."""
    for name, x in (("tol", tol), ("pole_ceiling", pole_ceiling)):
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"{name} must be positive and finite")
    if not (0 < exclusion_budget <= 1):
        raise ValueError("exclusion_budget must be in (0, 1]")
    re, im = window._axes()
    n_re, n_im = re.size, im.size
    n = n_re * n_im
    exprs = [residual] + [t for t, _ in scale_terms]
    denos = denominators(residual)
    nodes = Schedule((*exprs, *denos, *wp_nodes(residual)))
    n_vals, n_guards = len(exprs), len(exprs) + len(denos)
    counts = {"nonfinite": 0, "denominator": 0, "pole-magnitude": 0}
    rel = np.empty(n)
    excluded = np.empty(n, dtype=bool)
    samples = np.empty(n, dtype=_SAMPLE_DTYPE) if keep_samples else None
    last = n - 1 if n > _SCAN_BLOCK and n % _SCAN_BLOCK == 1 else n
    for lo in range(0, last, _SCAN_BLOCK):
        hi = n if lo + _SCAN_BLOCK >= last else lo + _SCAN_BLOCK
        r0, r1 = lo // n_re, (hi - 1) // n_re + 1
        z = (re[None, :] + 1j * im[r0:r1, None]).ravel()[lo - r0 * n_re:hi - r0 * n_re]
        vals, exc = _guarded_values(nodes, n_vals, n_guards, z,
                                    window.soft_exclusion, pole_ceiling, counts)
        rv = vals[0]
        scale = np.ones(rv.shape, dtype=float)
        for tv, (_, power) in zip(vals[1:], scale_terms):
            scale = scale + np.abs(tv) ** power
        with np.errstate(invalid="ignore", over="ignore"):
            r = np.abs(rv) / scale
        bad_rel = ~np.isfinite(r) & ~exc
        counts["nonfinite"] += int(np.count_nonzero(bad_rel))
        rel[lo:hi] = r
        excluded[lo:hi] = exc | bad_rel
        if keep_samples:
            rows = samples[lo:hi]
            rows["z_re"], rows["z_im"] = z.real, z.imag
            rows["residual_abs"] = np.where(np.isfinite(rv), np.abs(rv), np.nan)

    n_exc = int(np.count_nonzero(excluded))
    # one in-place partition of the valid values places the p95 order
    # statistic and the 20th largest; the maximum lies above the latter
    valid = rel[~excluded]
    n_valid = valid.size
    p95 = max_rel = cut = float("nan")
    if n_valid:
        k95 = min(n_valid - 1, int(math.floor(0.95 * n_valid)))
        k20 = max(n_valid - 20, 0)
        valid.partition((k95, k20))
        p95, cut = float(valid[k95]), float(valid[k20])
        max_rel = float(np.max(valid[k20:]))
    if n_exc / n > exclusion_budget or n_valid == 0:
        verdict = "INCONCLUSIVE"
    elif p95 < tol:
        verdict = "PASS"
    else:
        verdict = "FAIL"

    # the stable order's first 20 lie among the points at or above the 20th
    # largest value; keeping every tie there keeps them exact
    cand = np.flatnonzero((rel >= cut) & ~excluded)
    worst = cand[np.argsort(-rel[cand], kind="stable")][:20]
    failures = tuple(
        {"z_re": float(at.real), "z_im": float(at.imag), "residual_rel": float(rel[i])}
        for i, at in zip(worst, re[worst % n_re] + 1j * im[worst // n_re])
    )
    if keep_samples:
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
        window=asdict(window),
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
    zeros: tuple  # ZeroRecord, zeros of the expression: multiplicity k_N - k_D > 0
    cancelled: tuple  # ZeroRecord, zeros of N where k_D >= k_N: multiplicity k_N
    poles: tuple  # (re, im, order) of elliptic-atom poles inside the window
    interior_total: int  # numerator zeros minus pole orders, with multiplicity
    boundary_total: int  # boundary winding of the numerator
    n_seeds: int  # 0: no points are sampled before the contours

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
        }


def _phase_changes(pair: Schedule, z: np.ndarray, v: np.ndarray, dv: np.ndarray,
                   starts: np.ndarray):
    """(turns, errors): the phase change of num, in turns, along each
    polyline ``z[starts[i]:starts[i + 1]]`` (its winding when the polyline
    is closed) from the values ``v`` and ``dv`` of num and num' there, nan
    where tracking fails, and the message of each failure in polyline order.
    ``pair`` is the Schedule of (num, num').

    Each pass fails a polyline at its first node where num is not finite or
    exactly 0, and halves every steep step of the others, all in one
    evaluation.  A step is steep when it exceeds a quarter turn, or when its
    segment's length times the larger |num'/num| at its ends does: a zero or
    pole near the segment could then hide a whole turn in a step that looks
    small.  A polyline still steep in the _PHASE_PASSES-th pass fails: a
    zero lies too near it."""
    failed = np.zeros(len(starts) - 1, dtype=bool)
    errors = {}  # polyline -> the message of its first failure
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(_PHASE_PASSES):
            line = np.repeat(np.arange(failed.size), np.diff(starts))  # polyline of each node
            for i in np.flatnonzero(~np.isfinite(v) | (v == 0)):
                what = "zero" if v[i] == 0 else "not finite"
                errors.setdefault(line[i], f"N is {what} at {complex(z[i]):.9g}")
            failed[list(errors)] = True
            step = np.angle(v[1:] / v[:-1])
            rate = np.abs(dv / v)
            reach = np.abs(z[1:] - z[:-1]) * np.maximum(rate[1:], rate[:-1])
            inner = ~failed[line[:-1]]
            inner[starts[1:-1] - 1] = False  # no step between polylines
            at = np.flatnonzero(inner & ((np.abs(step) > 0.5 * math.pi) | (reach > 0.5 * math.pi)))
            if not at.size:
                break
            mids = 0.5 * (z[at] + z[at + 1])
            if p == _PHASE_PASSES - 1:
                for i, m in zip(line[at], mids):
                    errors.setdefault(i, "phase tracking failed to stabilize on the contour "
                                         f"near {complex(m):.9g}")
                break
            mv, mdv = evaluate_many(pair, mids)
            z, v, dv = (np.insert(x, at + 1, y) for x, y in ((z, mids), (v, mv), (dv, mdv)))
            starts = starts + np.searchsorted(at, starts)
    step = np.append(np.where(inner, step, 0.0), 0.0)
    turns = np.add.reduceat(step, starts[:-1]) / (2.0 * math.pi)
    turns[list(errors)] = np.nan
    return turns, [errors[i] for i in sorted(errors)]


def _circle_windings(pair: Schedule, centers: list) -> list:
    """Certify each centre by the circle of radius _MULT_RADIUS about it on
    _MULT_NODES uniform angle nodes, all circles in one evaluation of the
    Schedule ``pair`` of (num, num').

    Per centre: None when the winding is not close to an integer, else
    (winding, centroid, several).  With s_k the moments (1/2 pi i)
    contour-integral (z - centre)^k num'/num dz, the centroid is
    centre + s_1 / winding, and ``several`` says that s_0 s_2 - s_1^2 shows
    more than one distinct zero or pole inside; at winding 0 (the centre
    itself is the centroid) it says that s_1 or s_2 is not close to 0, as
    when a zero and a pole inside cancel in the winding.

    The moments use the parametrized trapezoid rule on the uniform angle
    nodes (dz = i (z - centre) d theta), which is spectrally accurate for the
    circle; a chord-based rule would be ~1e-3 off at this radius."""
    n = _MULT_NODES
    c = np.asarray(centers, dtype=complex)
    z = (c[:, None] + _MULT_RADIUS * np.exp(2j * math.pi * np.arange(n) / n)).ravel()
    nv, dv = evaluate_many(pair, z)
    closed = (np.arange(c.size)[:, None] * n + np.arange(n + 1) % n).ravel()
    turns, _ = _phase_changes(pair, z[closed], nv[closed], dv[closed],
                              np.arange(c.size + 1) * (n + 1))
    d = z.reshape(c.size, n) - c[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ld = d * (dv / nv).reshape(c.size, n)
        s1 = np.mean(ld * d, axis=1)
        s2 = np.mean(ld * d * d, axis=1)
    out = []
    for i, raw in enumerate(turns):
        if not (math.isfinite(raw) and abs(raw - round(raw)) <= 0.1):
            out.append(None)
            continue
        w = int(round(raw))
        if w:
            several = abs(w * s2[i] - s1[i] ** 2) > _ONE_ZERO_TOL * (w * _MULT_RADIUS) ** 2
        else:
            several = (abs(s1[i]) > _ONE_ZERO_TOL * _MULT_RADIUS
                       or abs(s2[i]) > _ONE_ZERO_TOL * _MULT_RADIUS ** 2)
        out.append((w, complex(c[i] + s1[i] / w) if w else complex(c[i]), several))
    return out


@functools.lru_cache(maxsize=64)
def _edge_rule(panels: int):
    """(t, q) on [0, 1], read-only: the panel ends and Gauss-Legendre nodes
    of ``panels`` equal panels in order, and their quadrature weights (zero
    at the panel ends, which only phase tracking uses).  The rule comes from
    the eigenvalues of its Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1.0, _GL_NODES)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), "U")
    ends = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(ends)[:, None]
    t = np.hstack([ends[:-1, None], ends[:-1, None] + half * (1.0 + x)])
    q = np.hstack([np.zeros((panels, 1)), half * 2.0 * v[0] ** 2])
    t, q = np.append(t.ravel(), 1.0), np.append(q.ravel(), 0.0)
    t.flags.writeable = q.flags.writeable = False
    return t, q


def _edges(pair: Schedule, ends: list):
    """(turns, moments, errors): the phase change of num in turns (nan where
    tracking fails, with the failures' messages in ``errors``) and its
    moments along the straight edges a -> b of ``ends``, all in one
    evaluation of the Schedule ``pair`` of (num, num').

    moments[i] = (s0, s1, s2), the moments (1/2 pi i) integral (z - m)^k
    num'/num dz along edge i about its midpoint m, by the panels'
    Gauss-Legendre rule."""
    rules = [_edge_rule(max(_EDGE_PANELS, math.ceil(abs(b - a) * _BOUNDARY_NODES_PER_UNIT
                                                    / _GL_NODES))) for a, b in ends]
    sizes = [t.size for t, _ in rules]
    starts = np.cumsum([0] + sizes)
    # node k of edge i is a_i + (b_i - a_i) t_k, and its weight (b_i - a_i) q_k
    span = np.repeat([b - a for a, b in ends], sizes)
    z = np.repeat([a for a, _ in ends], sizes) + span * np.concatenate([t for t, _ in rules])
    z[starts[1:] - 1] = [b for _, b in ends]
    q = span * np.concatenate([q for _, q in rules])
    nv, dv = evaluate_many(pair, z)
    turns, errors = _phase_changes(pair, z, nv, dv, starts)
    d = z - np.repeat([0.5 * (a + b) for a, b in ends], sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(q != 0, q * dv / nv, 0.0) / (2j * math.pi)
    lo = starts[:-1]
    moments = np.stack([np.add.reduceat(f * d**k, lo) for k in range(3)], axis=1)
    return turns, moments, errors


def _spacing_error(near: complex) -> AnalyzerError:
    return AnalyzerError(
        f"zeros/poles closer than {_MIN_SPACING:g} near "
        f"{complex(near):.6g}; multiplicities cannot be isolated"
    )


def _pairs_within(points: list, radius: float):
    """Every pair (i, j), i < j, of points at most radius apart, by a sweep
    over the points sorted by real part: a point farther than radius in
    real part, and every one after it, is farther than radius."""
    order = sorted(range(len(points)), key=lambda i: points[i].real)
    for k, i in enumerate(order):
        for j in map(order.__getitem__, range(k + 1, len(order))):
            if points[j].real - points[i].real > radius:
                break
            if abs(points[i] - points[j]) <= radius:
                yield min(i, j), max(i, j)


def _find_zeros(pair: Schedule, root: tuple, poles: list):
    """(zeros, winding): [(location, multiplicity)] of the zeros of num
    inside the window ``root`` = (re_min, re_max, im_min, im_max), with
    ``pair`` the Schedule of (num, num'), by recursive subdivision of the
    window into cells (x0, x1, y0, y1), and the winding of num along the
    window's boundary, which is the root cell's edges.  Tracking that fails
    on one of those edges raises the AnalyzerError "window boundary: ...".

    A cell's zero count is its boundary winding plus the orders of the
    ``poles`` ((point, order) pairs) inside it; its moments s_k about its
    centre c come from its edges, with each pole's order (p - c)^k added
    back.  A cell with no zeros is dropped; one whose moments show a single
    distinct zero is certified at c + s1/s0 by _circle_windings, which must
    return the cell's count; every other cell is split in two across its
    longer side.  Each edge is evaluated once, for every cell that has it,
    and the new edges of one level go to one evaluation."""
    # (a, b) -> (sign, turns, midpoint, moments about it), sign -1.0 if tracked b -> a
    edges: dict = {}
    # the poles' indices by real and by imaginary part, for the split lines
    coords = [[p.real for p, _ in poles], [p.imag for p, _ in poles]]
    by_part = [sorted(range(len(poles)), key=xs.__getitem__) for xs in coords]
    keys = [[xs[i] for i in ids] for xs, ids in zip(coords, by_part)]

    def sides(cell) -> list:
        x0, x1, y0, y1 = cell
        c = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
        return list(zip(c, c[1:] + c[:1]))

    def add_edges(cells: list) -> list:
        """Track the sides of cells not tracked yet; returns the messages
        of those whose tracking failed."""
        new: dict = {}  # a split line is a side of both children: once
        for cell in cells:
            for s in sides(cell):
                if s not in edges and s[::-1] not in new:
                    new[s] = None
        if not new:
            return []
        turns, moments, errors = _edges(pair, list(new))
        for (a, b), t, m in zip(new, turns.tolist(), moments.tolist()):
            edges[a, b], edges[b, a] = (1.0, t, 0.5 * (a + b), m), (-1.0, t, 0.5 * (a + b), m)
        return errors

    def shifted(m, d: complex):
        """Moments about c of moments m taken about c + d."""
        return m[0], m[1] + d * m[0], m[2] + d * (2.0 * m[1] + d * m[0])

    def measure(cell, among):
        """(count, c, (s0, s1, s2), inside): the cell's zero count (nan when
        an edge failed to track), its zero moments about its centre c, and
        the indices of the poles of ``among`` (the poles of a cell that holds
        it, in order) inside it."""
        x0, x1, y0, y1 = cell
        c = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        turns, parts = 0.0, []
        for side in sides(cell):
            sign, t, mid, m = edges[side]
            turns += sign * t
            parts.append([sign * x for x in shifted(m, mid - c)])
        count = round(turns) if math.isfinite(turns) else math.nan
        inside = [i for i in among if x0 < poles[i][0].real < x1 and y0 < poles[i][0].imag < y1]
        for p, order in map(poles.__getitem__, inside):
            count += order
            parts.append(shifted((order, 0.0, 0.0), p - c))
        return count, c, tuple(sum(col) for col in zip(*parts)), inside

    def halves(cell, frac: float):
        """(children, split line from its lower left end) of cell."""
        x0, x1, y0, y1 = cell
        if x1 - x0 >= y1 - y0:
            xs = x0 + frac * (x1 - x0)
            return [(x0, xs, y0, y1), (xs, x1, y0, y1)], (complex(xs, y0), complex(xs, y1))
        ys = y0 + frac * (y1 - y0)
        return [(x0, x1, y0, ys), (x0, x1, ys, y1)], (complex(x0, ys), complex(x1, ys))

    def near_pole(a: complex, b: complex) -> bool:
        # a pole within _MULT_RADIUS of a vertical (horizontal) line is as
        # near in real (imaginary) part: look within twice that, for rounding
        axis = 0 if a.real == b.real else 1
        at, ids = (a.real, a.imag)[axis], by_part[axis]
        lo = bisect.bisect_left(keys[axis], at - 2.0 * _MULT_RADIUS)
        hi = bisect.bisect_right(keys[axis], at + 2.0 * _MULT_RADIUS)
        return any(
            abs(p - complex(min(max(p.real, a.real), b.real), min(max(p.imag, a.imag), b.imag)))
            < _MULT_RADIUS
            for p, _ in map(poles.__getitem__, ids[lo:hi])
        )

    def split(cells: list) -> list:
        """(child, its measure) of every (cell, its poles), split at the
        first fraction whose children's moment counts s0 match their winding
        counts; failing that, at the one that matches best.  A split line
        passing within _MULT_RADIUS of a known pole is never tried."""
        best = [(math.inf, None)] * len(cells)
        for frac in _SPLIT_FRACTIONS:
            todo = []
            for i, (cell, _) in enumerate(cells):
                kids, line = halves(cell, frac)
                if best[i][0] > _COUNT_TOL and not (poles and near_pole(*line)):
                    todo.append((i, kids))
            add_edges([kid for _, kids in todo for kid in kids])
            for i, kids in todo:
                measured = [(kid, measure(kid, cells[i][1])) for kid in kids]
                miss = sum(abs(s[0] - n) for _, (n, _, s, _) in measured)
                if miss < best[i][0]:  # False for nan: an edge failed to track
                    best[i] = (miss, measured)
        out = []
        for (cell, _), (_, measured) in zip(cells, best):
            if measured is None:
                raise AnalyzerError(
                    "no split line of the cell [%.6g, %.6g] x [%.6g, %.6g] avoids its "
                    "zeros and poles" % cell
                )
            out.extend(measured)
        return out

    errors = add_edges([root])
    if errors:
        raise AnalyzerError(f"window boundary: {errors[0]}; shift the window")
    winding = round(sum(edges[s][1] for s in sides(root)))
    cells, found = [(root, measure(root, range(len(poles))))], []
    while cells:
        certify, to_split = [], []
        for cell, (count, c, (s0, s1, s2), inside) in cells:
            if math.isnan(count):
                raise AnalyzerError(f"phase tracking failed on an edge of the cell about {c:.6g}")
            if count < 0:
                raise AnalyzerError(f"negative zero count {count} in the cell about {c:.6g}")
            if count == 0:
                continue
            size = max(cell[1] - cell[0], cell[3] - cell[2])
            if size < _MIN_SPACING:
                raise _spacing_error(c)
            guess = c + s1 / s0 if s0 else c
            if abs(s0 * s2 - s1 * s1) <= _ONE_ZERO_TOL * abs(s0 * size) ** 2 and _in(cell, guess):
                certify.append((cell, count, guess, inside))
            else:
                to_split.append((cell, inside))
        results = _circle_windings(pair, [g for _, _, g, _ in certify]) if certify else []
        for (cell, count, guess, inside), res in zip(certify, results):
            if res is not None and res[0] == count:
                if res[2]:
                    raise _spacing_error(guess)
                if abs(res[1] - guess) <= 0.5 * _MULT_RADIUS and _in(cell, res[1]):
                    found.append((res[1], count))
                    continue
            to_split.append((cell, inside))
        cells = split(to_split)
    return found, winding


def _in(cell, z: complex) -> bool:
    x0, x1, y0, y1 = cell
    return x0 <= z.real <= x1 and y0 <= z.imag <= y1


def _expr_pole_points(engines: tuple, root: tuple):
    """Pole candidates of the numerator inside the window ``root`` =
    (re_min, re_max, im_min, im_max): the lattice points of the engines of
    its elliptic atoms, which ``_supported_atoms_or_raise`` has checked to
    be evaluated at the bare variable.  Each row a of the box of lattice
    coordinates spanned by the window's corners is walked only over the b
    whose points can meet the window, with a margin of one on each side,
    so the work counted against MAX_ZERO_LATTICE_POINTS grows with the
    window's area, not its box's."""
    x0, x1, y0, y1 = root
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    rows = []
    for eng in engines:
        a_vals, b_vals = eng.lattice_coordinates(corners)
        v1, v2 = eng.basis
        b_min, b_max = math.floor(b_vals.min()) - 1, math.ceil(b_vals.max()) + 1
        for a in range(math.floor(a_vals.min()) - 1, math.ceil(a_vals.max()) + 2):
            lo, hi = _row_span(a * v1, v2, root)
            if lo <= hi:
                rows.append((a * v1, v2, range(max(b_min, math.floor(lo) - 1),
                                               min(b_max, math.ceil(hi) + 1) + 1)))
    count = sum(len(b_range) for _, _, b_range in rows)
    if count > MAX_ZERO_LATTICE_POINTS:
        raise ValueError(f"window spans {count} lattice points, more than the limit of "
                         f"{MAX_ZERO_LATTICE_POINTS}")
    pts: list[complex] = []
    for av1, v2, b_range in rows:
        for b in b_range:
            p = av1 + b * v2
            if _in(root, p):
                pts.append(complex(p))
    # a point within 1e-9 of one kept before it is that pole again
    seen_near: dict = {}
    for i, j in _pairs_within(pts, 1e-9):
        seen_near.setdefault(j, []).append(i)
    keep: list = []
    for j in range(len(pts)):
        keep.append(not any(keep[i] for i in seen_near.get(j, ())))
    pts = list(itertools.compress(pts, keep))
    pts.sort(key=lambda p: (round(p.real, 9), round(p.imag, 9)))
    return pts


def _row_span(p: complex, v: complex, root: tuple) -> tuple:
    """(lo, hi): the real s for which p + s v lies in the window ``root``;
    lo > hi when the line misses it.  v is not 0."""
    lo, hi = -math.inf, math.inf
    for q, u, q0, q1 in ((p.real, v.real, root[0], root[1]), (p.imag, v.imag, root[2], root[3])):
        if u:
            s0, s1 = (q0 - q) / u, (q1 - q) / u
            lo, hi = max(lo, min(s0, s1)), min(hi, max(s0, s1))
        elif not q0 <= q <= q1:
            return math.inf, -math.inf
    return lo, hi


def _supported_atoms_or_raise(num: Expr) -> tuple:
    """The engines of the numerator's elliptic atoms, in preorder of first
    occurrence.  The analyzer needs the numerator meromorphic with an
    enumerable pole set: elliptic atoms at the bare variable, exponential
    atoms with division-free arguments."""
    engines: dict = {}
    for node in distinct_nodes(num):
        if isinstance(node, Exp) and denominators(node.arg):
            raise AnalyzerError(
                "exponential atom with a rational argument has essential "
                "singularities; zero accounting is not supported"
            )
        if isinstance(node, (Wp, WpPrime)):
            if node.arg is not W:
                raise AnalyzerError(
                    "cannot enumerate poles of an elliptic atom with a composed argument"
                )
            engines.setdefault(id(node.engine), node.engine)
    return tuple(engines.values())


@functools.lru_cache(maxsize=64)
def _compiled(expr: Expr) -> tuple:
    """(pair, den_pair, engines): zero_scan's work that depends on the
    expression alone, done once per expression.  pair is the Schedule of
    (N, N') for expr = N / D, den_pair that of (D, D') or None when D is
    ONE, and engines those of N's elliptic atoms.  Interned nodes hash by
    identity, so the expression itself is the key; a refusal raises and is
    not cached."""
    num, den = as_fraction(expr)
    engines = _supported_atoms_or_raise(num)
    pair = Schedule((num, differentiate(num)))
    den_pair = None if den is ONE else Schedule((den, differentiate(den)))
    return pair, den_pair, engines


def zero_scan(expr: Expr, window: ScanWindow = ScanWindow()) -> ZeroReport:
    """Locate and certify the zero set of ``expr`` inside ``window``.

    Works on the cleared-denominator numerator N = expr * D; nothing is
    sampled before the contours.  The Schedules of (N, N') and (D, D') and
    N's elliptic engines come from ``_compiled``, once per expression; a
    call does only what depends on the window.  The window is subdivided
    recursively into cells; each cell's zero count comes from its boundary
    winding and the known elliptic poles inside it, and the moments of N'/N
    about its centre say when it holds one distinct zero and where (the
    Delves-Lyness method).  Each such zero is certified by a small circle
    whose winding must equal the cell's count, and its location is that
    circle's winding centroid.  D's order k_D at a zero of N of multiplicity
    k_N is D's winding on the same circle (negative at a pole of D): when
    k_N - k_D > 0 the zero is reported as a zero of that multiplicity, else
    as cancelled with multiplicity k_N.  The window is the root cell, and
    its edges' winding is ``boundary_total``; the interior total, which the
    leaf cells count on their own edges and the circles certify, is
    reconciled against it.  A window is refused where N is exactly 0 or not
    finite at a node of a contour, or where a zero lies too near a contour
    for _PHASE_PASSES passes of phase tracking to resolve; and where D's
    winding on a zero's circle is not close to an integer, or D has a zero
    or pole inside that circle anywhere but at the zero.  Only the window's
    bounds are read, and a window over MAX_ZERO_BOUNDARY_NODES or
    MAX_ZERO_LATTICE_POINTS is refused before any contour work.
    """
    pair, den_pair, engines = _compiled(expr)
    x0, x1, y0, y1 = root = (window.re_min, window.re_max, window.im_min, window.im_max)
    nodes = 2.0 * (window.width + window.height) * _BOUNDARY_NODES_PER_UNIT
    if nodes > MAX_ZERO_BOUNDARY_NODES:
        raise ValueError(f"window boundary needs {nodes:.3g} rule nodes, more than the limit "
                         f"of {MAX_ZERO_BOUNDARY_NODES}")
    poles = _expr_pole_points(engines, root)
    for p in poles:
        if min(p.real - x0, x1 - p.real, p.imag - y0, y1 - p.imag) < _BOUNDARY_MARGIN:
            raise AnalyzerError(
                f"elliptic pole within {_BOUNDARY_MARGIN:g} of the window "
                f"boundary at {complex(p):.9g}; shift the window"
            )

    pole_orders = []
    for p, res in zip(poles, _circle_windings(pair, poles) if poles else []):
        if res is None:
            raise AnalyzerError(f"winding about {p:.6g} is not close to an integer")
        w, _, several = res
        if w > 0:
            raise AnalyzerError(f"positive winding {w} at an expected pole {p:.6g}")
        if several:
            raise _spacing_error(p)
        pole_orders.append((p, -w))

    roots, boundary_total = _find_zeros(pair, root, pole_orders)
    special = [r for r, _ in roots] + poles
    close = [i for i, j in _pairs_within(special, _MIN_SPACING)
             if abs(special[i] - special[j]) < _MIN_SPACING]
    if close:
        raise _spacing_error(special[min(close)])

    # D's order at each zero, from its winding on the zero's own circle
    den_windings = (_circle_windings(den_pair, [r for r, _ in roots])
                    if den_pair is not None and roots else [(0, None, False)] * len(roots))
    zero_records = []
    cancelled_records = []
    for (r, mult), res in zip(roots, den_windings):
        if res is None or res[2] or (res[0] and abs(res[1] - r) > _MATCH_RADIUS):
            raise _spacing_error(r)
        net = mult - res[0]
        if net > 0:
            zero_records.append(ZeroRecord(float(r.real), float(r.imag), int(net)))
        else:
            cancelled_records.append(ZeroRecord(float(r.real), float(r.imag), int(mult)))
    interior = sum(m for _, m in roots) - sum(k for _, k in pole_orders)

    if interior != boundary_total:
        raise AnalyzerError(
            f"argument-principle mismatch: interior {interior} vs boundary "
            f"{boundary_total}"
        )
    zero_records.sort(key=lambda r: (round(r.re, 9), round(r.im, 9)))
    cancelled_records.sort(key=lambda r: (round(r.re, 9), round(r.im, 9)))
    return ZeroReport(
        window=dict(zip(("re_min", "re_max", "im_min", "im_max"), root)),
        zeros=tuple(zero_records),
        cancelled=tuple(cancelled_records),
        poles=tuple((float(p.real), float(p.imag), k) for p, k in pole_orders if k),
        interior_total=interior,
        boundary_total=boundary_total,
        n_seeds=0,
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
