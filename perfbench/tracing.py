"""Opt-in spans and counters around fermatlab's public functions and methods.

``Tracer.install()`` replaces each traced callable at the names its callers
look up: module globals that other modules imported by name (``verify``
calls ``evaluate`` through its own globals), the package namespace, and class
attributes for methods and operators.  ``uninstall()`` puts the originals
back.  The untraced benchmark never imports this module.

Spans are kept in memory as (name, start, end, parent, op) plus a few
attributes and are written out when the run ends.  Spans are recorded only
while an operation is running (``Tracer.op`` is set), so set-up and the
correctness checks leave no trace.  Self time is a span's duration minus the
durations of its direct children; spans nest properly in one thread, so the
children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import fermatlab
from fermatlab import exprs, families, quotient, reports, scalars, series, verify, wp

SMALL_EVAL_POINTS = 1024

# Arithmetic entry points of the Gaussian rationals; each call is one op.
_RC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__neg__", "__truediv__", "__rtruediv__", "__pow__")


def _points(z) -> int:
    return int(np.size(z))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = {"scalars.rc_ops": 0, "quotient.mul_calls": 0}
        self.op = None  # id of the running operation, None outside operations
        self._stack: list = []
        self._saved: list = []

    # -- recording ------------------------------------------------------------
    def _span(self, name, fn, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = [name, start, end, parent, tracer.op, {}]
            if attrs is not None:
                tracer.spans[index][5] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key, fn):
        tracer = self

        def counted(*args):
            if tracer.op is not None:
                tracer.counts[key] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, owners, name, replacement):
        for owner in owners:
            if hasattr(owner, name):
                self._patch(owner, name, replacement)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        span = self._span
        eng = wp.WeierstrassEngine
        self._patch(eng, "__init__", span("wp.construct", eng.__init__))
        self._patch(eng, "eval", span(
            "wp.eval", eng.eval, lambda a, k, out: {"points": _points(a[1])}))
        self._patch(eng, "reduce", span("wp.reduce", eng.reduce))
        self._patch_everywhere(
            (fermatlab, wp, families, verify), "engine_for",
            span("wp.engine_for", wp.engine_for))

        def eval_points(a, k, out):
            return {"points": _points(a[1])}

        self._patch_everywhere(
            (exprs, verify), "evaluate", span("exprs.evaluate", exprs.evaluate, eval_points))
        self._patch_everywhere(
            (exprs, verify), "evaluate_many",
            span("exprs.evaluate_many", exprs.evaluate_many,
                 lambda a, k, out: {"points": _points(a[1]), "exprs": len(a[0])}))

        for name in ("residual_scan", "derivative_identity_scan"):
            self._patch_everywhere(
                (fermatlab, verify), name, span("verify.residual_scan", getattr(verify, name)))
        self._patch_everywhere(
            (fermatlab, verify), "zero_scan",
            span("verify.zero_scan", verify.zero_scan, lambda a, k, out: {
                "seeds": out.n_seeds,
                "certified": len(out.zeros) + len(out.cancelled) + len(out.poles)}))
        self._patch_everywhere(
            (fermatlab, verify), "zero_set_compare",
            span("verify.compare", verify.zero_set_compare))

        self._patch_everywhere(
            (fermatlab, families), "build_family", span("families.build", families.build_family))

        def verdict_attrs(a, k, out):
            order = k.get("order", a[1] if len(a) > 1 else 40)
            return {"route": out.route, "order": order}

        self._patch_everywhere(
            (fermatlab, families), "adjudicate",
            span("families.adjudicate", families.adjudicate, verdict_attrs))
        self._patch_everywhere(
            (families, quotient), "quotient_adjudicate",
            span("quotient.adjudicate", quotient.quotient_adjudicate))
        self._patch(quotient.QuotientElement, "__mul__",
                    self._counter("quotient.mul_calls", quotient.QuotientElement.__mul__))

        lau = series.LaurentSeries
        self._patch(lau, "__mul__", span("series.mul", lau.__mul__))
        self._patch(lau, "invert", span("series.invert", lau.invert))
        rc = scalars.RationalComplex
        for name in _RC_OPS:
            self._patch(rc, name, self._counter("scalars.rc_ops", rc.__dict__[name]))

        def text_bytes(a, k, out):
            return {"bytes": len(out.encode("utf-8"))}

        self._patch(reports, "canonical_json",
                    span("reports.json", reports.canonical_json, text_bytes))
        self._patch(reports, "points_csv", span("reports.csv", reports.points_csv, text_bytes))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------------
    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": self.counts}, fh)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures per round (times in s), from the recorded spans."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        total = defaultdict(float)
        count = defaultdict(int)
        points = defaultdict(int)
        newton_points = 0
        seeds = certified = 0
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            dur = end - start
            self_time = dur - child_time[i]
            count[name] += 1
            if name == "wp.eval":
                total["wp.eval_s"] += dur
                points["wp"] += attrs["points"]
            elif name == "wp.reduce":
                total["wp.reduce_s"] += dur
            elif name == "wp.construct":
                total["wp.construct_s"] += dur
            elif name.startswith("exprs."):
                points["exprs"] += attrs["points"]
                size = "batch" if attrs["points"] >= SMALL_EVAL_POINTS else "small"
                total["exprs.eval_self_s." + size] += self_time
            elif name == "verify.residual_scan":
                total["verify.residual_scan_self_s"] += self_time
            elif name == "verify.zero_scan":
                total["verify.zero_scan_self_s"] += self_time
                seeds += attrs["seeds"]
                certified += attrs["certified"]
            elif name == "verify.compare":
                total["verify.compare_s"] += dur
            elif name == "series.mul":
                total["series.mul_s"] += dur
            elif name == "series.invert":
                total["series.invert_s"] += dur
            elif name == "families.build":
                total["families.build_s"] += dur
            elif name == "families.adjudicate":
                key = "families.adjudicate_s." + attrs["route"]
                if attrs["route"] == "series":
                    key += ".o%d" % attrs["order"]
                total[key] += dur
            elif name == "quotient.adjudicate":
                total["quotient.adjudicate_s"] += dur
            elif name == "reports.json":
                total["reports.json_s"] += dur
                points["bytes"] += attrs["bytes"]
            elif name == "reports.csv":
                total["reports.csv_s"] += dur
                points["bytes"] += attrs["bytes"]
        # Newton steps evaluate (num, num') together, whatever the number of
        # points still iterated; so do the 256-node centroid integrals, one
        # per certified point, a small fixed share of the count
        for name, _, _, parent, _, attrs in spans:
            if (name == "exprs.evaluate_many" and attrs["exprs"] == 2 and parent is not None
                    and spans[parent][0] == "verify.zero_scan"):
                newton_points += attrs["points"]

        per_round = {
            "wp.eval_s": total["wp.eval_s"],
            "wp.eval_points": points["wp"],
            "wp.reduce_s": total["wp.reduce_s"],
            "wp.construct_s": total["wp.construct_s"],
            "wp.engines_built": count["wp.construct"],
            "wp.engine_cache_hits": count["wp.engine_for"] - count["wp.construct"],
            "exprs.eval_calls": count["exprs.evaluate"] + count["exprs.evaluate_many"],
            "exprs.eval_points": points["exprs"],
            "exprs.eval_self_s.batch": total["exprs.eval_self_s.batch"],
            "exprs.eval_self_s.small": total["exprs.eval_self_s.small"],
            "verify.residual_scan_self_s": total["verify.residual_scan_self_s"],
            "verify.zero_scan_self_s": total["verify.zero_scan_self_s"],
            "verify.zero_seeds": seeds,
            "verify.newton_point_steps": newton_points,
            "verify.compare_s": total["verify.compare_s"],
            "series.mul_calls": count["series.mul"],
            "series.mul_s": total["series.mul_s"],
            "series.invert_calls": count["series.invert"],
            "series.invert_s": total["series.invert_s"],
            "scalars.rc_ops": self.counts["scalars.rc_ops"],
            "families.adjudicate_s.series.o40": total["families.adjudicate_s.series.o40"],
            "families.adjudicate_s.series.o80": total["families.adjudicate_s.series.o80"],
            "families.adjudicate_s.series.o120": total["families.adjudicate_s.series.o120"],
            "families.adjudicate_s.ring": total["families.adjudicate_s.ring"],
            "families.build_s": total["families.build_s"],
            "quotient.adjudicate_s": total["quotient.adjudicate_s"],
            "quotient.mul_calls": self.counts["quotient.mul_calls"],
            "reports.json_s": total["reports.json_s"],
            "reports.csv_s": total["reports.csv_s"],
            "reports.bytes": points["bytes"],
        }
        out = {k: v / rounds for k, v in per_round.items()}
        eval_s = total["wp.eval_s"]
        out["wp.eval_mpts_per_s"] = points["wp"] / eval_s / 1e6 if eval_s else 0.0
        out["verify.zero_yield"] = certified / seeds if seeds else 0.0
        return out
