"""``scripts/zero_sweep.py``: one digest over zero_scan's reports on a fixed
grid of targets and windows."""

import importlib.util
import math
from pathlib import Path

from fermatlab import verify
from fermatlab.exprs import Div, W, Wp
from fermatlab.verify import ScanWindow, zero_scan
from fermatlab.wp import Invariants, engine_for

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "zero_sweep.py"


def _script():
    spec = importlib.util.spec_from_file_location("zero_sweep", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_grid_holds_the_zero_sets_targets():
    script = _script()
    labels = [label for label, _ in script.targets()]
    assert len(labels) == len(set(labels)) == 35 and len(script.WINDOWS) == 18
    for want in ("corollary f'", "corollary g'", "quadratic rho=-17/15 f'",
                 "quadratic rho=-17/15 g'", "case1 f'", "case1 g'", "wp'(0,1)",
                 "w^2/w", "w^3/w", "(e^w-1)^2/(e^w-1)"):
        assert want in labels
    assert script.WINDOWS[:2] == [(-1.0, 1.0, -7.0, 7.0), (0.2, 3.0, 0.2, 2.8)]


def test_a_scan_is_one_line_of_its_report_or_its_refusal():
    script = _script()
    targets = dict(script.targets())
    cell = ScanWindow(0.2, 3.0, 0.2, 2.8)
    rep = zero_scan(targets["wp'(0,1)"], cell)
    zeros = ",".join(f"{z.re.hex()} {z.im.hex()} 1" for z in rep.zeros)
    poles = ",".join(f"{re.hex()} {im.hex()} 3" for re, im, _ in rep.poles)
    assert script.line(targets["wp'(0,1)"], cell) == (
        f"zeros {zeros}; cancelled ; poles {poles}; interior {rep.interior_total}; "
        f"boundary {rep.boundary_total}"
    )
    refused = script.line(targets["corollary g'"], ScanWindow(-1, 1, -1, math.pi + 1e-6))
    assert refused.startswith("refused AnalyzerError: window boundary: phase tracking failed")


def test_a_repeat_scan_reports_what_a_cold_scan_does():
    """The seven zero-sets targets, w/wp(w) and (e^w-1)^2/(e^w-1) on three
    windows: a scan that finds the expression compiled gives the same line
    as one that compiles it."""
    script = _script()
    targets = dict(script.targets())
    keys = ("corollary f'", "corollary g'", "quadratic rho=-17/15 f'",
            "quadratic rho=-17/15 g'", "case1 f'", "case1 g'", "wp'(0,1)",
            "(e^w-1)^2/(e^w-1)")
    exprs = [targets[k] for k in keys] + [Div(W, Wp(engine_for(Invariants(0, 1)), W))]
    for expr in exprs:
        for bounds in script.WINDOWS[:3]:
            window = ScanWindow(*bounds)
            verify._compiled.cache_clear()
            cold = script.line(expr, window)
            hits = verify._compiled.cache_info().hits
            assert script.line(expr, window) == cold
            assert verify._compiled.cache_info().hits == hits + 1
