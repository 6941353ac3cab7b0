"""Pole-aware numeric scanners: residual grids, zero-set analysis with
argument-principle reconciliation, omitted values certified by zero counts,
and the second-derivative offset of criterion 7."""

import math
import tracemalloc

import numpy as np
import pytest

from fermatlab import verify
from fermatlab.acceptance import _c7_second_derivative_offset
from fermatlab.errors import AnalyzerError
from fermatlab.exprs import (
    ONE,
    Add,
    Const,
    Div,
    Exp,
    Expr,
    Mul,
    Pow,
    Schedule,
    Sub,
    W,
    Wp,
    WpPrime,
    as_fraction,
    differentiate,
    evaluate,
)
from fermatlab.families import build_family
from fermatlab.verify import (
    ScanWindow,
    ZeroRecord,
    ZeroReport,
    derivative_identity_scan,
    residual_scan,
    zero_scan,
    zero_set_compare,
)
from fermatlab.wp import (
    Invariants,
    engine_for,
    invariants_from_case,
    invariants_from_tau,
    periods_from_invariants,
)


# -- windows -----------------------------------------------------------------


def _grid(w: ScanWindow) -> np.ndarray:
    """The window's grid built here, apart from the scans: row-major, the
    imaginary axis slow and the real axis fast."""
    n_re, n_im = w.axis_counts()
    re, im = np.linspace(w.re_min, w.re_max, n_re), np.linspace(w.im_min, w.im_max, n_im)
    return (re[None, :] + 1j * im[:, None]).ravel()


def test_default_window_grid():
    w = ScanWindow()
    assert w.axis_counts() == (81, 81)
    grid = _grid(w)
    assert grid.size == 81 * 81
    # row-major with the imaginary axis slow
    assert grid[0] == complex(-2, -2)
    assert grid[1].real > grid[0].real and grid[1].imag == grid[0].imag


def test_window_density_controls_grid():
    w = ScanWindow(0, 1, 0, 2, grid_density=10)
    assert w.axis_counts() == (11, 21)


# windows whose grid is refused for its point count, which the message
# names; the window itself is accepted, since a zero scan samples no grid
_OVER_BUDGET = (
    {"grid_density": 1e5},
    # a width beyond the float range, and a grid count of 301 digits
    {"re_min": -1e308, "re_max": 1e308, "im_min": -1, "im_max": 1},
    {"re_min": -1e300, "re_max": 1e300, "im_min": -1, "im_max": 1},
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"re_min": 1, "re_max": -1},
        {"im_min": 2, "im_max": 2},
        {"grid_density": 2},
        {"soft_exclusion": 0.0},
        _OVER_BUDGET[0],
        {"grid_density": float("inf")},
        *_OVER_BUDGET[1:],
    ],
)
def test_window_validation(kwargs):
    if kwargs in _OVER_BUDGET:
        window = ScanWindow(**kwargs)
        with pytest.raises(ValueError, match="grid points"):
            window._axes()
    else:
        with pytest.raises(ValueError):
            ScanWindow(**kwargs)


def test_window_point_budget_admits_dense_scans():
    # the 401 x 401 dense scan fits; 1001 x 1001 is over the budget
    assert ScanWindow(-2, 2, -2, 2, grid_density=100).axis_counts() == (401, 401)
    with pytest.raises(ValueError, match="grid points"):
        residual_scan(build_family("case2"), ScanWindow(-2, 2, -2, 2, grid_density=250))


# -- residual scans ----------------------------------------------------------


@pytest.mark.parametrize("family_id", ["case2", "case3", "case5", "m-one"])
def test_certified_families_pass_scan(family_id):
    rep = residual_scan(build_family(family_id))
    assert rep.verdict == "PASS"
    assert rep.p95_residual < 1e-12
    assert rep.points_total == 81 * 81


@pytest.mark.parametrize("slot", ["w", "exp"])
def test_scan_passes_in_both_slots(slot):
    rep = residual_scan(build_family("case2", slot=slot))
    assert rep.verdict == "PASS"


def test_refuted_family_fails_scan():
    rep = residual_scan(build_family("case4"))
    assert rep.verdict == "FAIL"
    assert rep.p95_residual > 0.1
    assert len(rep.failures) == 20  # top offenders, capped
    worst = rep.failures[0]
    assert worst["residual_rel"] == rep.max_residual


def test_scan_report_schema():
    rep = residual_scan(build_family("case2"))
    d = rep.to_dict()
    for key in (
        "check",
        "family",
        "params",
        "verdict",
        "tolerance",
        "p95_residual",
        "max_residual",
        "points_total",
        "points_excluded",
        "exclusion_reasons",
        "window",
        "grid",
    ):
        assert key in d, key
    assert d["check"] == "residual"
    assert d["grid"] == {"n_re": 81, "n_im": 81, "density": 20.0}
    assert set(d["exclusion_reasons"]) == {"nonfinite", "denominator", "pole-magnitude"}


def test_scan_keep_samples():
    w = ScanWindow(-1, 1, -1, 1, grid_density=5)
    rep = residual_scan(build_family("case2"), window=w, keep_samples=True)
    assert rep.samples is not None
    assert len(rep.samples) == rep.points_total
    assert rep.samples.dtype.names == (
        "z_re", "z_im", "residual_abs", "residual_rel", "excluded"
    )
    assert int(rep.samples["excluded"].sum()) == rep.points_excluded
    z_re, z_im, _, _, excluded = rep.samples[0]
    assert (z_re, z_im) == (-1.0, -1.0) and excluded in (0, 1)


def test_failures_are_the_stable_top_20():
    """The worst 20 points come in descending order, ties by grid index,
    exactly as a stable sort of every valid point gives them."""
    rep = residual_scan(build_family("case4"), keep_samples=True)
    s = rep.samples[rep.samples["excluded"] == 0]
    top = s[np.argsort(-s["residual_rel"], kind="stable")[:20]]
    assert [(f["z_re"], f["z_im"], f["residual_rel"]) for f in rep.failures] == [
        (r["z_re"], r["z_im"], r["residual_rel"]) for r in top
    ]


def test_scan_inconclusive_when_exclusions_dominate():
    # a soft-exclusion floor above every denominator magnitude wipes the grid
    w = ScanWindow(-1, 1, -1, 1, soft_exclusion=1000.0)
    rep = residual_scan(build_family("case2"), window=w)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.points_excluded / rep.points_total > 0.20


def test_scan_tolerance_validation():
    with pytest.raises(ValueError):
        residual_scan(build_family("case2"), tol=0.0)


def test_derivative_identity_scan_pass_and_kind_guard():
    rep = derivative_identity_scan(build_family("case2"))
    assert rep.verdict == "PASS"
    assert rep.check == "derivative-identity"
    rep_cor = derivative_identity_scan(build_family("corollary"))
    assert rep_cor.verdict == "PASS"
    with pytest.raises(ValueError, match="f\\^m \\+ g\\^n"):
        derivative_identity_scan(build_family("quadratic"))


def test_derivative_identity_scan_never_passes_refuted_families():
    # differentiation squares the denominators, so nearly half the grid is
    # soft-excluded and the budget pushes the verdict to INCONCLUSIVE rather
    # than FAIL; what matters is that it is not PASS and the residual is large
    rep = derivative_identity_scan(build_family("case6"))
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.p95_residual > 1.0
    assert rep.points_excluded / rep.points_total > 0.20


def _block_scans(w):
    return [
        residual_scan(build_family("case2"), w, keep_samples=True),
        derivative_identity_scan(build_family("case4", variant=1), w, keep_samples=True),
        derivative_identity_scan(build_family("corollary"), w, keep_samples=True),
        residual_scan(build_family("case2"), w, pole_ceiling=100.0, keep_samples=True),
    ]


def _summary_from_samples(rep):
    """p95, max and the 20 worst points recomputed from the samples by a
    full sort, as scans computed them before the partition."""
    s = rep.samples
    idx = np.flatnonzero(s["excluded"] == 0)
    srt = np.sort(s["residual_rel"][idx])
    p95 = float(srt[min(srt.size - 1, math.floor(0.95 * srt.size))]) if srt.size else math.nan
    top = float(srt[-1]) if srt.size else math.nan
    worst = idx[np.argsort(-s["residual_rel"][idx], kind="stable")][:20]
    return p95, top, [
        {"z_re": float(s["z_re"][i]), "z_im": float(s["z_im"][i]),
         "residual_rel": float(s["residual_rel"][i])} for i in worst
    ]


def _check_summary(rep, window):
    d = rep.to_dict()
    p95, top, failures = _summary_from_samples(rep)
    assert (d["p95_residual"], d["max_residual"], d["failures"]) == (p95, top, failures) \
        or (math.isnan(p95) and math.isnan(d["p95_residual"]) and math.isnan(d["max_residual"]))
    grid = _grid(window)
    assert rep.samples["z_re"].tobytes() == grid.real.tobytes()
    assert rep.samples["z_im"].tobytes() == grid.imag.tobytes()
    points = {(g.real, g.imag) for g in grid.tolist()}
    assert all((f["z_re"], f["z_im"]) in points for f in d["failures"])


def test_scan_block_size_keeps_every_bit(monkeypatch):
    """161 x 161 = 25,921 points: three full blocks of 8,192 and 1,345 more."""
    w = ScanWindow(grid_density=40.0)
    runs = []
    for block in (1000, 8192, 10**6):
        monkeypatch.setattr(verify, "_SCAN_BLOCK", block)
        runs.append([(r.to_dict(), r.samples.tobytes()) for r in _block_scans(w)])
    assert runs[0] == runs[1] == runs[2]
    verdicts = [d["verdict"] for d, _ in runs[0]]
    reasons = [d["exclusion_reasons"] for d, _ in runs[0]]
    assert verdicts == ["PASS", "INCONCLUSIVE", "PASS", "PASS"]
    assert reasons[1] == {"nonfinite": 1, "denominator": 11620, "pole-magnitude": 0}
    assert reasons[3] == {"nonfinite": 1, "denominator": 0, "pole-magnitude": 372}
    for rep in _block_scans(w):
        _check_summary(rep, w)


def test_scan_blocks_that_split_rows_keep_every_bit(monkeypatch):
    """On a 23 x 16 grid, blocks of 3, 22, 23 and 24 points start and end
    inside rows, on row ends and across them.  Blocks of one point are
    compared on the corollary alone: numpy and BLAS round a one-element
    array apart from a longer one in the engine's series and lattice
    reduction, so a lone point of an elliptic family has other bits than
    the same point in a batch."""
    w = ScanWindow(-2.75, 2.75, -2.0, 1.75, grid_density=4.0)
    assert w.axis_counts() == (23, 16)
    runs = []
    for block in (3, 22, 23, 24, 10**6):
        monkeypatch.setattr(verify, "_SCAN_BLOCK", block)
        reps = _block_scans(w)
        runs.append([(r.to_dict(), r.samples.tobytes()) for r in reps])
    assert all(run == runs[-1] for run in runs)
    for rep in reps:
        _check_summary(rep, w)
    fam = build_family("corollary")
    lone = []
    for block in (1, 10**6):
        monkeypatch.setattr(verify, "_SCAN_BLOCK", block)
        reps = [scan(fam, w, keep_samples=True)
                for scan in (residual_scan, derivative_identity_scan)]
        lone.append([(r.to_dict(), r.samples.tobytes()) for r in reps])
    assert lone[0] == lone[1]
    for rep in reps:
        _check_summary(rep, w)


def test_scan_last_point_alone_joins_the_block_before(monkeypatch):
    """113 x 145 = 16,385 = 2 * 8,192 + 1 points: the lone last point is
    evaluated in the block before it, so an elliptic family keeps the bits
    of one batch."""
    w = ScanWindow(-3.5, 3.5, -4.5, 4.5, grid_density=16)
    assert w.axis_counts() == (113, 145)
    for family_id in ("case2", "case4"):
        fam = build_family(family_id)
        runs = []
        for block in (8192, 10**6):
            monkeypatch.setattr(verify, "_SCAN_BLOCK", block)
            runs.append(residual_scan(fam, w, keep_samples=True).samples.tobytes())
        assert runs[0] == runs[1]


def test_scan_summary_of_few_and_no_valid_points():
    # 4 x 4 points, fewer than the 20 worst a report lists
    w = ScanWindow(0.25, 0.75, 0.25, 0.75, grid_density=6.0)
    rep = residual_scan(build_family("case2"), w, keep_samples=True)
    assert rep.points_total == 16 and rep.points_excluded == 0
    assert len(rep.failures) == 16
    _check_summary(rep, w)
    # every |wp| is above a ceiling of 1e-300: every point is excluded
    rep = residual_scan(build_family("case2"), w, pole_ceiling=1e-300, keep_samples=True)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.points_excluded == rep.points_total == 16
    assert math.isnan(rep.p95_residual) and math.isnan(rep.max_residual)
    assert rep.failures == ()
    _check_summary(rep, w)


def test_dense_scan_memory_is_bounded():
    """A 401 x 401 scan holds rel and excluded per point, and of its trees
    only the values of one block that are still to be read; not the complex
    grid, and not a grid-sized array for every node of its trees."""
    fam = build_family("corollary")
    w = ScanWindow(grid_density=100.0)
    derivative_identity_scan(fam, w)
    tracemalloc.start()
    try:
        derivative_identity_scan(fam, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- zero scans --------------------------------------------------------------


TALL = ScanWindow(-1.0, 1.0, -7.0, 7.0)


@pytest.fixture(scope="module")
def corollary_zero_reports():
    fam = build_family("corollary")
    rf = zero_scan(differentiate(fam.f), TALL)
    rg = zero_scan(differentiate(fam.g), TALL)
    return rf, rg


def test_zero_scan_locations_and_multiplicity(corollary_zero_reports):
    rf, rg = corollary_zero_reports
    assert rf.zeros == () and rf.reconciled
    got = sorted(
        ((z.re, z.im) for z in rg.zeros), key=lambda t: (round(t[0], 6), round(t[1], 6))
    )
    expected = sorted((0.0, k * math.pi) for k in (-2, -1, 0, 1, 2))
    assert len(got) == 5
    for (a, b), (c, d) in zip(got, expected):
        assert abs(a - c) < 1e-9 and abs(b - d) < 1e-9
    assert all(z.multiplicity == 1 for z in rg.zeros)
    assert rg.reconciled


def test_zero_scan_reports_cancelled_numerator_zeros(corollary_zero_reports):
    """g' carries (1 + e^{2w})^4 in its unreduced numerator; those four
    zeros cancel against the denominator and must be reported separately,
    not as zeros of the function."""
    _, rg = corollary_zero_reports
    assert len(rg.cancelled) == 4
    assert all(r.multiplicity == 4 for r in rg.cancelled)
    ims = sorted(round(r.im / math.pi, 3) for r in rg.cancelled)
    assert ims == [-1.5, -0.5, 0.5, 1.5]
    # cancelled roots still participate in the winding reconciliation
    assert rg.interior_total == rg.boundary_total == 21


def test_zero_scan_pins_corollary_zeros_to_closed_forms(corollary_zero_reports):
    """g' = sinh w / cosh^2 w on the tall window: simple zeros at i pi k,
    and the cleared numerator's four zeros of multiplicity 4 at
    i pi (k + 1/2), which the denominator cancels."""
    _, rg = corollary_zero_reports
    assert [z.multiplicity for z in rg.zeros] == [1] * 5
    for z, k in zip(rg.zeros, (-2, -1, 0, 1, 2)):
        assert abs(z.z - 1j * math.pi * k) < 1e-10
    assert [z.multiplicity for z in rg.cancelled] == [4] * 4
    for z, k in zip(rg.cancelled, (-2, -1, 0, 1)):
        assert abs(z.z - 1j * math.pi * (k + 0.5)) < 1e-10
    assert rg.poles == ()
    assert (rg.n_seeds, rg.interior_total, rg.boundary_total) == (0, 21, 21)


@pytest.mark.parametrize("box", [(-2, 2, -2, 2), (-3, 3, -2, 2), (-1.5, 2.5, -4, 4)])
def test_zero_scan_across_decades_of_the_numerator(box):
    """g' on windows where |N| grows like e^{2 re w} over more than 12
    decades, so a contour floor taken from the window's largest |N| would
    refuse each of them on its small side, and a cancellation floor taken
    from the window's largest |D| would mark the zero at 0 cancelled.
    Zeros sit at i pi k, and cancelled zeros of multiplicity 4 at
    i pi (k + 1/2)."""
    expr = differentiate(build_family("corollary").g)
    sides = np.abs(evaluate(as_fraction(expr)[0], np.array([box[0], box[1]], dtype=complex)))
    assert sides[1] > 1e12 * sides[0]
    rep = zero_scan(expr, ScanWindow(*box))
    sites = lambda off: [1j * math.pi * (k + off) for k in range(-3, 4)
                         if box[2] < math.pi * (k + off) < box[3]]
    for recs, want, mult in ((rep.zeros, sites(0.0), 1), (rep.cancelled, sites(0.5), 4)):
        assert [r.multiplicity for r in recs] == [mult] * len(want)
        assert all(abs(r.z - w) < 1e-12 for r, w in zip(recs, want))
    assert rep.poles == () and rep.reconciled


def test_zero_scan_judges_cancellation_on_the_zeros_own_circle():
    """case4 f' on the cell window: |D| is 0.028 at two simple zeros of f'
    and up to 6e7 elsewhere in the window, so a cancellation floor taken
    from the window's largest |D| would mark them cancelled.  f' itself
    vanishes there; at the one cancelled zero D vanishes to higher order
    than N, and f' has a pole."""
    expr = differentiate(build_family("case4").f)
    rep = zero_scan(expr, ScanWindow(0.2, 3.0, 0.2, 2.8))
    assert [r.multiplicity for r in rep.zeros] == [1, 1]
    assert np.all(np.abs(evaluate(expr, np.array([r.z for r in rep.zeros]))) < 1e-12)
    assert [r.multiplicity for r in rep.cancelled] == [1]
    assert abs(evaluate(expr, np.array([rep.cancelled[0].z]))[0]) > 1e12
    assert rep.poles == () and rep.reconciled


_E1 = Sub(Exp(W), ONE)


@pytest.mark.parametrize("expr, mult, n_mult", [
    (Div(Mul(W, W), W), 1, 2),
    (Div(Pow(W, 3), W), 2, 3),
    (Div(Pow(_E1, 2), _E1), 1, 2),
])
def test_zero_scan_nets_the_denominators_order(expr, mult, n_mult):
    """N and D both vanish at 0, N to the higher order: the expression has
    a zero there of multiplicity k_N - k_D, not a cancelled zero of N."""
    rep = zero_scan(expr, ScanWindow(-1, 1.3, -1, 1.2))
    assert [r.multiplicity for r in rep.zeros] == [mult] and rep.cancelled == ()
    assert abs(rep.zeros[0].z) < 1e-12
    assert rep.interior_total == rep.boundary_total == n_mult


@pytest.mark.parametrize("k", [1, 2])
def test_zero_scan_adds_the_order_of_a_pole_of_the_denominator(k):
    """w^k / wp(w): D has a double pole at the zero of N, so the expression
    has a zero of multiplicity k + 2 there."""
    eng = engine_for(Invariants(0, 1))
    rep = zero_scan(Div(Pow(W, k), Wp(eng, W)), ScanWindow(-0.7, 0.9, -0.6, 0.8))
    assert [r.multiplicity for r in rep.zeros] == [k + 2] and rep.cancelled == ()
    assert abs(rep.zeros[0].z) < 1e-12 and rep.poles == () and rep.reconciled


def test_zero_scan_refuses_a_zero_of_the_denominator_beside_the_zero():
    """D = w - 5e-4 vanishes inside the zero's circle but not at the zero."""
    with pytest.raises(AnalyzerError, match="closer than"):
        zero_scan(Div(W, Sub(W, Const(5e-4))), ScanWindow(-1, 1.3, -1, 1.2))


def test_zero_scan_refuses_a_denominator_whose_winding_cancels():
    """D = wp(w) - wp(r) has zeros at r and -r and a double pole at 0, all
    inside the circle about the zero r of N: D's winding there is 0."""
    eng = engine_for(Invariants(0, 1))
    r = 4e-4 + 1e-4j
    wp_r = complex(evaluate(Wp(eng, W), np.array([r]))[0])
    expr = Div(Sub(W, Const(r)), Sub(Wp(eng, W), Const(wp_r)))
    with pytest.raises(AnalyzerError, match="closer than"):
        zero_scan(expr, ScanWindow(-1, 1.3, -1, 1.2))


def test_zero_scan_is_deterministic():
    """Two runs give the same report, bit for bit."""
    expr = differentiate(build_family("corollary").g)
    hexed = lambda recs: [(r.re.hex(), r.im.hex(), r.multiplicity) for r in recs]
    a, b = zero_scan(expr, TALL), zero_scan(expr, TALL)
    assert hexed(a.zeros) == hexed(b.zeros) and hexed(a.cancelled) == hexed(b.cancelled)
    assert a == b


def test_zero_scan_evaluation_budget(monkeypatch):
    """Points evaluated by one g' scan of the tall window: 617,289 when every
    grid seed took 50 Newton steps, 20,021 for subdivision after a grid pass
    of 11,521 points, 10,804 in 9 evaluations with no grid pass and D
    evaluated apart at each zero and on its circle, and 10,795 in 9 now
    that D's winding on each zero's circle is one of them."""
    points = []

    def counting(e, z):
        points.append(np.asarray(z).size)
        return real(e, z)

    real = verify.evaluate_many
    monkeypatch.setattr(verify, "evaluate_many", counting)
    zero_scan(differentiate(build_family("corollary").g), TALL)
    assert (len(points), sum(points)) == (9, 10_795)


def _compile_log(monkeypatch) -> tuple:
    """(compiled, passed): the root count of every Schedule built, and the
    object each evaluate_many call of verify is given."""
    compiled, passed = [], []
    real_new, real_many = Schedule.__new__, verify.evaluate_many

    def counting_new(cls, roots):
        sched = real_new(cls, roots)
        compiled.append(len(sched))
        return sched

    def logging_many(trees, z):
        passed.append(trees)
        return real_many(trees, z)

    monkeypatch.setattr(Schedule, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(verify, "evaluate_many", logging_many)
    return compiled, passed


def test_zero_scan_compiles_its_pair_once(monkeypatch):
    """(N, N') and (D, D') are compiled once per expression, not per scan,
    contour pass, halving pass or circle batch: a second scan of the same
    expression, on another window, compiles nothing and replays the same
    two Schedules."""
    verify._compiled.cache_clear()
    expr = differentiate(build_family("corollary").g)
    compiled, passed = _compile_log(monkeypatch)
    zero_scan(expr, TALL)
    assert compiled == [2, 2]
    pair, den_pair = passed[0], passed[-1]
    assert den_pair is not pair and len(passed) > 5
    assert all(p is pair or p is den_pair for p in passed)
    assert all(isinstance(p, Schedule) and len(p) == 2 for p in (pair, den_pair))
    compiled.clear()
    passed.clear()
    zero_scan(expr, ScanWindow(-1.0, 1.0, -2.0, 2.0))
    assert compiled == [] and len(passed) > 5
    assert all(p is pair or p is den_pair for p in passed) and den_pair in passed


def test_zero_scan_cache_is_bounded(monkeypatch):
    """65 distinct expressions keep the last 64; the first compiles again."""
    verify._compiled.cache_clear()
    exprs = [Sub(W, Const(complex(k / 100, 0.3))) for k in range(65)]
    for e in exprs:
        zero_scan(e, ScanWindow(-1, 1, -1, 1))
    assert verify._compiled.cache_info().currsize == 64
    compiled, _ = _compile_log(monkeypatch)
    zero_scan(exprs[-1], ScanWindow(-1, 1, -1, 1))
    assert compiled == []
    zero_scan(exprs[0], ScanWindow(-1, 1, -1, 1))
    assert compiled == [2]


def test_zero_scan_caches_no_refusal():
    verify._compiled.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(AnalyzerError, match="essential singularit") as err:
            zero_scan(Exp(Div(ONE, W)))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    info = verify._compiled.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 2)


def test_residual_scan_compiles_its_trees_once(monkeypatch):
    window = ScanWindow(-2, 2, -2, 2, grid_density=35)  # 141^2 points: 3 blocks
    fam = build_family("case2")
    want = residual_scan(fam, window, keep_samples=True)
    compiled, passed = _compile_log(monkeypatch)
    got = residual_scan(fam, window, keep_samples=True)
    assert got.to_dict() == want.to_dict() and got.samples.tobytes() == want.samples.tobytes()
    assert len(passed) == 3 and all(p is passed[0] for p in passed)
    assert compiled == [len(passed[0])]


def test_zero_scan_multiplicity_three():
    """(e^w - 1)^3 on [-1, 1]^2: its triple zero sits on both midpoint
    lines, so every first split must shift."""
    expr = Pow(Sub(Exp(W), ONE), 3)
    rep = zero_scan(expr, ScanWindow(-1, 1, -1, 1))
    assert len(rep.zeros) == 1
    z = rep.zeros[0]
    assert abs(z.z) < 1e-9 and z.multiplicity == 3
    assert rep.reconciled and rep.interior_total == 3


def test_zero_scan_multiplicity_four_alone():
    rep = zero_scan(Pow(Sub(Exp(W), ONE), 4), ScanWindow(-0.7, 1.1, -0.9, 1.3))
    assert len(rep.zeros) == 1
    z = rep.zeros[0]
    assert abs(z.z) < 1e-12 and z.multiplicity == 4
    assert rep.reconciled and rep.interior_total == 4


def test_zero_scan_zero_on_first_split_line():
    """The window's first split line x = 0 passes through the zero i/2."""
    expr = Mul(Sub(W, Const(0.5j)), Add(W, Const(0.5)))
    rep = zero_scan(expr, ScanWindow(-1, 1, -1, 1))
    got = sorted((z.z for z in rep.zeros), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert len(got) == 2 and abs(got[0] + 0.5) < 1e-12 and abs(got[1] - 0.5j) < 1e-12
    assert all(z.multiplicity == 1 for z in rep.zeros) and rep.reconciled


def test_pair_sweep_matches_the_loop_over_all_pairs():
    """The sweep finds every pair at most a radius apart, as a loop over all
    pairs does, and so the spacing check names the same point: on random
    clusters, with points repeated, on short and long vertical lines and
    long horizontal ones, and at exactly the radius."""
    rng = np.random.default_rng(21)
    r = verify._MIN_SPACING
    for trial in range(300):
        n = int(rng.integers(0, 30))
        pts = list(rng.uniform(-0.03, 0.03, n) + 1j * rng.uniform(-0.03, 0.03, n))
        if n and trial % 3 == 0:
            pts += [pts[0], complex(pts[-1].real, pts[-1].imag + r), complex(0.0, trial * r / 7)]
        if trial % 5 == 0:
            pts += [complex(0.01, k * r * 0.9) for k in range(6)]
        if trial % 7 == 0:  # lines longer than the clusters: the sweep follows them
            pts += [complex(-0.02, k * r * 0.9) for k in range(-60, 60)]
        if trial % 11 == 0:
            pts += [complex(k * r * 1.1, 0.005) for k in range(-50, 50)]
        pts = [complex(p) for p in pts]
        rng.shuffle(pts)
        loop = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                if abs(pts[i] - pts[j]) <= r]
        assert sorted(verify._pairs_within(pts, r)) == loop
        first = next((i for i, j in loop if abs(pts[i] - pts[j]) < r), None)
        close = [i for i, j in verify._pairs_within(pts, r) if abs(pts[i] - pts[j]) < r]
        assert (min(close) if close else None) == first


def test_zero_scan_of_a_window_with_many_poles():
    """wp' on [-12, 12]^2: 67 triple poles and the 228 half periods, each
    pole found from the cell that holds it and each split line checked
    against the poles near it."""
    eng = engine_for(Invariants(0, 1))
    rep = zero_scan(WpPrime(eng, W), ScanWindow(-12, 12, -12, 12))
    assert (len(rep.zeros), len(rep.poles)) == (228, 67)
    assert all(z.multiplicity == 1 for z in rep.zeros) and all(p[2] == 3 for p in rep.poles)
    assert rep.reconciled and rep.interior_total == 228 - 3 * 67


def test_no_split_line_passes_near_a_pole(monkeypatch):
    """No tracked edge passes within _MULT_RADIUS of a pole: each window's
    first split line, vertical or horizontal, would pass 2e-4 from the pole
    at 0, on one side or the other."""
    eng = engine_for(Invariants(0, 1))
    ends, real_edges = [], verify._edges

    def logging(pair, new):
        ends.extend(new)
        return real_edges(pair, new)

    monkeypatch.setattr(verify, "_edges", logging)
    poles = set()
    for d in (2e-4, -2e-4):
        for window in ((-1 + d, 1 + d, -0.5, 1.5), (-0.9, 0.9, -1.5 + d, 1.5 + d)):
            rep = zero_scan(WpPrime(eng, W), ScanWindow(*window))
            assert rep.reconciled and (0.0, 0.0, 3) in rep.poles
            poles.update(complex(re, im) for re, im, _ in rep.poles)
    clamp = lambda x, lo, hi: min(max(x, min(lo, hi)), max(lo, hi))  # noqa: E731
    assert len(ends) > 20
    for a, b in ends:
        for p in poles:
            near = complex(clamp(p.real, a.real, b.real), clamp(p.imag, a.imag, b.imag))
            assert abs(p - near) >= verify._MULT_RADIUS


def test_zero_window_samples_no_grid():
    """A zero window is bounded by its contour work, not by a grid: at the
    default density 20 this window's grid would be 1209 x 1213 points."""
    window = ScanWindow(-30.1, 30.3, -30.2, 30.4)
    with pytest.raises(ValueError, match="grid points"):
        window._axes()
    rep = zero_scan(build_family("case3").f, window)
    assert rep.reconciled and rep.interior_total == -19
    assert rep.to_dict()["window"] == {
        "re_min": -30.1, "re_max": 30.3, "im_min": -30.2, "im_max": 30.4}


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((-500, 500, -500, 500),
         f"window spans 125151 lattice points, more than the limit of "
         f"{verify.MAX_ZERO_LATTICE_POINTS}"),
        ((-1e6, 1e6, -1e6, 1e6),
         f"window boundary needs 2.56e+08 rule nodes, more than the limit of "
         f"{verify.MAX_ZERO_BOUNDARY_NODES}"),
    ],
)
def test_zero_scan_refuses_a_window_over_its_limits(bounds, message, monkeypatch):
    """Refused up front: no contour is evaluated."""
    monkeypatch.setattr(verify, "_find_zeros", None)
    monkeypatch.setattr(verify, "_circle_windings", None)
    with pytest.raises(ValueError) as exc:
        zero_scan(build_family("case3").f, ScanWindow(*bounds))
    assert str(exc.value) == message


def _box_pole_points(engine, root):
    """Every lattice point of the engine's whole box of lattice coordinates
    that lies in the window, in the order _expr_pole_points returns."""
    x0, x1, y0, y1 = root
    a_vals, b_vals = engine.lattice_coordinates(
        [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)])
    v1, v2 = engine.basis
    pts = [complex(a * v1 + b * v2)
           for a in range(math.floor(a_vals.min()) - 1, math.ceil(a_vals.max()) + 2)
           for b in range(math.floor(b_vals.min()) - 1, math.ceil(b_vals.max()) + 2)
           if verify._in(root, a * v1 + b * v2)]
    return sorted(pts, key=lambda p: (round(p.real, 9), round(p.imag, 9)))


def test_pole_points_are_enumerated_row_by_row(monkeypatch):
    """A long thin window on the skewed cubic lattice holds about 100 poles,
    and only the points each row can put in the window count against the
    limit; on random windows the rows give the whole box's points."""
    cubic = engine_for(invariants_from_tau(0))
    thin = (-0.025, 0.025, 0.5, 200.0)
    pts = verify._expr_pole_points((cubic,), thin)
    assert 90 <= len(pts) <= 110
    monkeypatch.setattr(verify, "MAX_ZERO_LATTICE_POINTS", 10**9)
    assert pts == _box_pole_points(cubic, thin)
    rng = np.random.default_rng(29)
    for case in ("II", "IV", None):
        engine = cubic if case is None else engine_for(invariants_from_case(case))
        for _ in range(100):
            x0, y0 = rng.uniform(-30, 30, 2)
            width, height = rng.choice([0.05, 2.0, 40.0], 2) * rng.uniform(0.5, 1.0, 2)
            root = (x0, x0 + width, y0, y0 + height)
            assert verify._expr_pole_points((engine,), root) == _box_pole_points(engine, root)


def test_zero_scan_close_roots_rejected():
    # zeros at 0 and 0.002, below the 5e-3 minimum spacing
    expr = Mul(Sub(Exp(W), ONE), Sub(Exp(W), Const(math.exp(0.002))))
    with pytest.raises(AnalyzerError, match="spacing|close"):
        zero_scan(expr, ScanWindow(-1, 1, -1, 1))


def test_zero_scan_roots_inside_one_circle_rejected():
    """Zeros at 0 and 1e-4 fit in one certifying circle, whose winding 2
    matches the cell's count; its second moment must refuse them rather
    than report a double zero."""
    expr = Mul(Sub(Exp(W), ONE), Sub(Exp(W), Const(math.exp(1e-4))))
    with pytest.raises(AnalyzerError, match="closer than"):
        zero_scan(expr, ScanWindow(-1, 1, -1, 1))


def test_zero_scan_boundary_zero_rejected():
    expr = Sub(Exp(W), Const(math.exp(1.0)))  # zero exactly on re_max
    with pytest.raises(AnalyzerError, match="^window boundary: ") as err:
        zero_scan(expr, ScanWindow(-1, 1, -1, 1))
    assert str(err.value) == "window boundary: N is zero at 1+0j; shift the window"


def test_phase_track_names_a_value_that_is_not_finite():
    z = np.array([0.0, 0.5, 1.0], dtype=complex)
    v = np.array([1.0, complex("inf"), 1.0])
    turns, errors = verify._phase_changes(Schedule((W, ONE)), z, v,
                                          np.ones(3, dtype=complex), np.array([0, 3]))
    assert np.isnan(turns).tolist() == [True]
    assert errors == ["N is not finite at 0.5+0j"]


def test_phase_changes_track_every_polyline_in_one_loop():
    """Polylines of N = w: one whose halving lands on the zero at 0, so it
    fails in the second pass; a clean one; one with a node where N is not
    finite, so it fails in the first; and one whose steep step one halving
    resolves.  The messages come in polyline order, not in failure order."""
    lines = [[-1, 1], [1, 2], [0.5, 1], [2, -0.2 + 2j]]
    z = np.array([p for line in lines for p in line], dtype=complex)
    v = z.copy()
    v[5] = complex("inf")
    starts = np.cumsum([0] + [len(line) for line in lines])
    turns, errors = verify._phase_changes(Schedule((W, ONE)), z, v,
                                          np.ones(z.size, dtype=complex), starts)
    assert np.isnan(turns).tolist() == [True, False, True, False]
    assert turns[1] == 0.0
    assert turns[3] == pytest.approx(np.angle(-0.2 + 2j) / (2 * math.pi), abs=1e-15)
    assert errors == ["N is zero at 0+0j", "N is not finite at 1+0j"]


def test_zero_scan_refuses_a_pole_near_the_boundary():
    with pytest.raises(AnalyzerError) as err:
        zero_scan(WpPrime(engine_for(Invariants(0, 1)), W), ScanWindow(-1e-7, 1.3, -0.7, 1.2))
    assert str(err.value) == (
        "elliptic pole within 1e-06 of the window boundary at 0+0j; shift the window"
    )


def test_zero_scan_refuses_a_zero_that_tracking_cannot_resolve():
    """g' of the corollary vanishes at pi i, 1e-6 below the top edge: the
    steps there stay steep through every pass, and the midpoint named lies
    next to that zero."""
    expr = differentiate(build_family("corollary").g)
    with pytest.raises(AnalyzerError) as err:
        zero_scan(expr, ScanWindow(-1, 1, -1, math.pi + 1e-6))
    prefix = "window boundary: phase tracking failed to stabilize on the contour near "
    suffix = "; shift the window"
    msg = str(err.value)
    assert msg.startswith(prefix) and msg.endswith(suffix)
    assert abs(complex(msg[len(prefix):-len(suffix)]) - math.pi * 1j) < 1e-4


def test_zero_scan_unsupported_atoms():
    with pytest.raises(AnalyzerError, match="essential singularit"):
        zero_scan(Exp(Div(ONE, W)), ScanWindow(0.5, 1.5, -1, 1))
    eng = engine_for(Invariants(0, 1))
    with pytest.raises(AnalyzerError, match="composed"):
        zero_scan(WpPrime(eng, Mul(Const(2), W)), ScanWindow(-1, 1, -1, 1))


def test_zero_scan_raises_the_first_refusal_in_preorder():
    """The atoms are checked once per distinct node, in preorder of first
    occurrence: the refusal is the one a full walk meets first."""
    eng = engine_for(Invariants(0, 1))
    bad_exp, bad_wp = Exp(Div(ONE, W)), Wp(eng, Mul(Const(2), W))
    window = ScanWindow(0.5, 1.5, -1, 1)
    for first, second, match in ((bad_exp, bad_wp, "essential"), (bad_wp, bad_exp, "composed")):
        shared = Mul(first, second)
        with pytest.raises(AnalyzerError, match=match):
            zero_scan(Add(Mul(shared, shared), Sub(second, first)), window)


def test_zero_scan_elliptic_cell():
    """wp' on a window inside the fundamental domain: the three half-period
    zeros, with the lattice pole windings folded into the totals."""
    eng = engine_for(Invariants(0, 1))
    v1, v2 = eng.basis
    hp = periods_from_invariants(Invariants(0, 1))
    rep = zero_scan(
        WpPrime(eng, W), ScanWindow(0.2, 3.0, 0.2, 2.8)
    )
    assert rep.reconciled
    # wp' vanishes exactly on the half-lattice (a v1 + b v2)/2, a or b odd
    halves = sorted(
        {
            ((a * v1 + b * v2) / 2).real.__round__(10)
            + 1j * ((a * v1 + b * v2) / 2).imag.__round__(10)
            for a in range(-4, 5)
            for b in range(-4, 5)
            if (a % 2, b % 2) != (0, 0)
        },
        key=lambda z: (z.real, z.imag),
    )
    expected = [
        (z.real, z.imag)
        for z in halves
        if 0.2 < z.real < 3.0 and 0.2 < z.imag < 2.8
    ]
    got = sorted((z.re, z.im) for z in rep.zeros)
    assert len(got) == len(expected) == 2
    for (a, b), (c, d) in zip(got, expected):
        assert abs(a - c) < 1e-8 and abs(b - d) < 1e-8
    assert hp.omega1.real == pytest.approx(abs(v1) / 2, rel=1e-9)


def test_zero_scan_pole_hides_zeros_from_the_raw_winding():
    """wp' on a window around the lattice point 0 holding three half-period
    zeros: the order-3 pole cancels them in the raw boundary winding, so
    only the pole order keeps the subdivision from dropping the window."""
    eng = engine_for(Invariants(0, 1))
    v1, v2 = eng.basis
    rep = zero_scan(WpPrime(eng, W), ScanWindow(-1.0, 1.7, -0.3, 1.5))
    assert (rep.boundary_total, rep.interior_total) == (0, 0)
    assert [p[2] for p in rep.poles] == [3] and abs(complex(*rep.poles[0][:2])) < 1e-12
    expected = [(v1 - v2) / 2, v1 / 2, v2 / 2]
    got = [z.z for z in rep.zeros]
    assert len(got) == 3 and all(z.multiplicity == 1 for z in rep.zeros)
    for w in expected:
        assert min(abs(g - w) for g in got) < 1e-9


def _near_edge(k: int, p: complex) -> Expr:
    """(w - p)^k (w - 0.1 - 0.2i)."""
    return Mul(Pow(Sub(W, Const(p)), k), Sub(W, Const(0.1 + 0.2j)))


def _wp01_squared_minus_four() -> Expr:
    p = Wp(engine_for(Invariants(0, 1)), W)
    return Sub(Mul(p, p), Const(4))


#: the x in (0, 1) with wp(x) = 2 for (g2, g3) = (0, 1), the integral of
#: dt / sqrt(4 t^3 - 1) from 2 to infinity
_WP01_AT_TWO = 0.70870542626
_SQ = ScanWindow(-1, 1, -1, 1)
_NEAR_EDGE = [
    pytest.param(lambda p=p: _near_edge(1, p), _SQ, [(0.1 + 0.2j, 1), (p, 1)], [], 1e-12,
                 id=f"simple-inside-{1 - p.real:.0e}")
    for p in (complex(1 - d, 0.3) for d in (1e-5, 1e-4, 1e-3, 3e-3))
] + [
    pytest.param(lambda k=k, p=p: _near_edge(k, p), _SQ,
                 [(0.1 + 0.2j, 1)] + ([(p, k)] if p.real < 1 else []), [], 1e-12,
                 id=f"order-{k}-{'inside' if p.real < 1 else 'outside'}")
    for k in (2, 3) for p in (1 - 1e-3 + 0.3j, 1 + 1e-3 + 0.3j)
] + [
    pytest.param(_wp01_squared_minus_four, ScanWindow(x0, 1.3, -0.7, 1.2),
                 [(_WP01_AT_TWO, 1)], [], 1e-11, id=f"wp-squared-pole-{x0:g}-left")
    for x0 in (0.003, 0.01)
] + [
    pytest.param(lambda: WpPrime(engine_for(Invariants(0, 1)), W),
                 ScanWindow(-0.001, 1.3, -0.7, 1.2), [], [(0j, 3)], 0.0,
                 id="wp-prime-pole-inside"),
]


@pytest.mark.parametrize("build, window, zeros, poles, tol", _NEAR_EDGE)
def test_zero_scan_singularity_near_the_boundary(build, window, zeros, poles, tol):
    """A zero or pole just inside or outside the window.  The window's
    winding comes from the root cell's edges alone, and their phase tracking
    refines where |N'/N| is large, so that the singularity cannot alias a
    step: the order-4 pole of wp^2 just left of the window must not hide its
    one zero, and a zero beside re = 1 must be neither refused nor lost."""
    rep = zero_scan(build(), window)
    got = sorted(((z.z, z.multiplicity) for z in rep.zeros), key=lambda t: t[0].real)
    assert [m for _, m in got] == [m for _, m in zeros]
    assert all(abs(z - w) <= tol for (z, _), (w, _) in zip(got, zeros))
    assert [(complex(re, im), k) for re, im, k in rep.poles] == poles
    assert rep.cancelled == () and rep.reconciled
    assert rep.boundary_total == sum(m for _, m in zeros) - sum(k for _, k in poles)


# -- zero-set comparison -----------------------------------------------------


def test_zero_compare_subset_proper(corollary_zero_reports):
    rf, rg = corollary_zero_reports
    cmp = zero_set_compare(rf, rg, relation="subset", mode="counting")
    assert cmp.verdict is True and cmp.proper is True
    assert len(cmp.proper_witnesses) == 5
    witness_ims = sorted(round(w["im"], 6) for w in cmp.proper_witnesses)
    assert witness_ims == sorted(round(k * math.pi, 6) for k in (-2, -1, 0, 1, 2))


def test_zero_compare_superset_fails(corollary_zero_reports):
    rf, rg = corollary_zero_reports
    cmp = zero_set_compare(rf, rg, relation="superset", mode="counting")
    assert cmp.verdict is False
    assert len(cmp.violations) == 5


def test_zero_compare_equal(corollary_zero_reports):
    _, rg = corollary_zero_reports
    cmp = zero_set_compare(rg, rg, relation="equal", mode="counting")
    assert cmp.verdict is True
    assert cmp.proper is None or cmp.proper is False


def test_zero_compare_multiplicity_modes():
    w = ScanWindow(-1, 1, -1, 1)
    single = zero_scan(Sub(Exp(W), ONE), w)
    double = zero_scan(Pow(Sub(Exp(W), ONE), 2), w)
    counting = zero_set_compare(double, single, relation="subset", mode="counting")
    assert counting.verdict is False  # multiplicity 2 cannot fit inside 1
    ignoring = zero_set_compare(double, single, relation="subset", mode="ignoring")
    assert ignoring.verdict is True
    assert ignoring.proper is False  # same locations, so not proper


def _zero_report(points):
    """A ZeroReport holding only the zeros ``points``, (z, multiplicity)."""
    zeros = tuple(ZeroRecord(z.real, z.imag, k) for z, k in points)
    return ZeroReport({}, zeros, (), (), 0, 0, 0)


def _containment_by_loop(za, zb, mode):
    """_containment as a loop over B for each zero of A."""
    violations, matched = [], []
    for a in za:
        hits = [b for b in zb if abs(b.z - a.z) <= verify._MATCH_RADIUS]
        if len(hits) > 1:
            raise AnalyzerError(
                f"ambiguous match: zero {a.z:.9g} pairs with several zeros "
                f"within {verify._MATCH_RADIUS:g}"
            )
        if not hits:
            violations.append({"re": a.re, "im": a.im, "multiplicity": a.multiplicity,
                               "reason": "no matching zero"})
            continue
        entry = {"re": a.re, "im": a.im, "multiplicity": a.multiplicity,
                 "matched_multiplicity": hits[0].multiplicity}
        if mode == "counting" and hits[0].multiplicity < a.multiplicity:
            entry["reason"] = "multiplicity drop"
            violations.append(entry)
        else:
            matched.append(entry)
    return not violations, violations, matched


def _compare_outcomes(ra, rb):
    """Every relation and mode of zero_set_compare, or the error it raised."""
    out = []
    for relation in ("subset", "superset", "equal"):
        for mode in ("counting", "ignoring"):
            try:
                out.append(zero_set_compare(ra, rb, relation, mode))
            except AnalyzerError as exc:
                out.append(str(exc))
    return out


def _random_report_pair(rng, trial):
    """Zeros of A in a small box, on a vertical line or on a horizontal
    line; B keeps most of them, moved by up to the match radius and with
    multiplicities 1-3, drops the rest and adds zeros of its own."""
    r = verify._MATCH_RADIUS
    n = int(rng.integers(0, 25))
    step = r * float(rng.choice([2.5, 10.0, 1e3]))
    if trial % 3 == 0:
        za = [complex(0.25, k * step) for k in range(-n, n)]
    elif trial % 3 == 1:
        za = [complex(k * step, -0.5) for k in range(-n, n)]
    else:
        za = list(rng.uniform(-1e-4, 1e-4, n) + 1j * rng.uniform(-1e-4, 1e-4, n))
    zb = []
    for z in za:
        if rng.random() < 0.2:
            continue  # dropped
        move = rng.choice([0.0, 0.5 * r, r])  # r: exactly the radius apart, or just off it
        zb.append(complex(z) + move * complex(*rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1)])))
    zb += list(rng.uniform(-1e-4, 1e-4, 3) + 1j * rng.uniform(-1e-4, 1e-4, 3))
    ka, kb = rng.integers(1, 4, len(za)), rng.integers(1, 4, len(zb))
    return (_zero_report(list(zip(za, ka.tolist()))), _zero_report(list(zip(zb, kb.tolist()))))


def test_zero_set_compare_matches_the_loop_over_all_pairs(monkeypatch):
    """On 200 random report pairs, and on zeros exactly the match radius
    apart, every relation and mode gives what a loop over all pairs gives,
    down to the ambiguous match it refuses."""
    rng = np.random.default_rng(30)
    r = verify._MATCH_RADIUS
    pairs = [_random_report_pair(rng, trial) for trial in range(200)]
    pairs.append((_zero_report([(0j, 1), (0.5j, 2)]),
                  _zero_report([(complex(r, 0), 1), (complex(0, 0.5 + r), 3)])))
    ambiguous = (_zero_report([(0.1 + 0.2j, 1)]),
                 _zero_report([(complex(0.1, 0.2 + r / 2), 1), (complex(0.1, 0.2 - r / 2), 1)]))
    pairs.append(ambiguous)
    swept = [_compare_outcomes(ra, rb) for ra, rb in pairs]
    monkeypatch.setattr(verify, "_containment", _containment_by_loop)
    assert swept == [_compare_outcomes(ra, rb) for ra, rb in pairs]
    assert swept[-1][0].startswith("ambiguous match: zero 0.1+0.2j pairs")
    assert sum(isinstance(outcomes[0], str) for outcomes in swept) <= 5  # most pairs compare


def test_zero_set_compare_on_a_long_vertical_line():
    """4,000 zeros i pi k, each matched by a zero 1e-9 above it."""
    za = [(complex(0, math.pi * k), 1) for k in range(-2000, 2000)]
    zb = [(z + 1e-9j, 2) for z, _ in za]
    cmp = zero_set_compare(_zero_report(za), _zero_report(zb), "equal", "ignoring")
    assert cmp.verdict and len(cmp.matched) == 4000


def test_zero_compare_bad_relation():
    rep = zero_scan(Sub(Exp(W), ONE), ScanWindow(-1, 1, -1, 1))
    with pytest.raises(ValueError):
        zero_set_compare(rep, rep, relation="disjoint")


# -- omitted and attained values ---------------------------------------------

SQ = ScanWindow(-1.0, 1.0, -1.0, 1.0)


def _certified_simple_zeros(expr, window):
    """Zeros of ``expr`` in ``window``, each certified simple, with the
    interior count reconciled against the boundary winding."""
    rep = zero_scan(expr, window)
    assert rep.reconciled
    assert rep.cancelled == () and rep.poles == ()
    assert all(z.multiplicity == 1 for z in rep.zeros)
    return sorted((z.z for z in rep.zeros), key=_rounded)


def _rounded(z):
    # a last-bit difference between equal parts must not reorder the zeros
    return round(z.imag, 6), round(z.real, 6)


def _assert_at(got, expected):
    expected = sorted(expected, key=_rounded)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-9


@pytest.mark.parametrize("window", [SQ, TALL], ids=["sq", "tall"])
def test_exp_omits_zero(window):
    assert _certified_simple_zeros(Exp(W), window) == []


def test_exp_attains_two_at_its_logarithms():
    got = _certified_simple_zeros(Exp(W) - Const(2), TALL)
    _assert_at(got, [complex(math.log(2), 2 * math.pi * k) for k in (-1, 0, 1)])


def test_unit_unit_omits_zero_and_one():
    f = build_family("unit-unit").f
    assert _certified_simple_zeros(f, TALL) == []
    assert _certified_simple_zeros(f - ONE, TALL) == []
    got = _certified_simple_zeros(f - Const(0.5), TALL)
    _assert_at(got, [complex(0, 2 * math.pi * k) for k in (-1, 0, 1)])


def test_case1_omits_plus_and_minus_one():
    f = build_family("case1").f
    assert _certified_simple_zeros(f - ONE, TALL) == []
    assert _certified_simple_zeros(f + ONE, TALL) == []
    got = _certified_simple_zeros(f, TALL)
    _assert_at(got, [complex(0, math.pi * k) for k in range(-2, 3)])


# -- the zeros of H1 ------------------------------------------------------------


def test_h1_vanishes_at_three_torsion_points():
    """At tau = 0, H1 = 4 wp^3 - 1728 vanishes where wp^3 = 432: at the
    3-torsion points, four of which lie in this window of the cell."""
    eng = engine_for(invariants_from_tau(0))
    window = ScanWindow(0.05, 1.0, 0.05, 0.9)
    got = _certified_simple_zeros(Const(4) * Wp(eng, W) ** 3 - Const(1728), window)
    v1, v2 = eng.basis
    _assert_at(got, [v2 / 3, 2 * v2 / 3, (v1 + 2 * v2) / 3, (2 * v1 + v2) / 3])


# -- second-derivative offset (acceptance criterion 7) -------------------------


def _offset_rows():
    passed, details = _c7_second_derivative_offset()
    assert passed, details
    return {complex(row["tau"]): row["max_dev"] for row in details["cases"]}


@pytest.mark.parametrize("tau", [0.0, 0.3 + 0.2j, 1.0])
def test_second_derivative_offset(tau):
    assert _offset_rows()[tau] < 1e-8


def test_second_derivative_offset_is_deterministic():
    assert _offset_rows() == _offset_rows()
