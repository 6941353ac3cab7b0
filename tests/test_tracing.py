"""``perfbench/tracing.py`` sees the evaluator: its spans wrap the names
``verify`` calls, so the per-layer ``exprs.*`` figures and the Newton point
count keep counting every evaluation after a refactor of the evaluator."""

import importlib.util
from pathlib import Path

import pytest

from fermatlab import exprs, verify
from fermatlab.exprs import differentiate
from fermatlab.families import build_family

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    t = module.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_counts_every_evaluation(tracer, monkeypatch):
    runs = []  # (root count, points) of every evaluation
    real_run = exprs.Schedule.run

    def logged(self, z):
        runs.append((len(self), z.size))
        return real_run(self, z)

    monkeypatch.setattr(exprs.Schedule, "run", logged)
    tracer.op = 0
    verify.zero_scan(differentiate(build_family("corollary").g),
                     verify.ScanWindow(-1.0, 1.0, -7.0, 7.0))
    pair_points = sum(n for k, n in runs if k == 2)
    verify.residual_scan(build_family("case2"), verify.ScanWindow(-2, 2, -2, 2, grid_density=35))
    tracer.op = None

    spans = tracer.spans
    under_scan = [s for s in spans if s[0] == "exprs.evaluate_many" and s[5]["exprs"] == 2
                  and s[3] is not None and spans[s[3]][0] == "verify.zero_scan"]
    assert len(under_scan) > 5
    blocks = [s for s in spans if s[0] == "exprs.evaluate_many"
              and spans[s[3]][0] == "verify.residual_scan"]
    assert len(blocks) == 3
    metrics = tracer.layer_metrics(1)
    assert metrics["exprs.eval_calls"] == len(runs)
    assert metrics["exprs.eval_points"] == sum(n for _, n in runs) > 141 * 141
    assert metrics["verify.newton_point_steps"] == pair_points > 0
