"""fermatlab benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload scan-dense --seed 1 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each operation waits for the previous one.  The run attempts whole rounds of
the workload's operations until ``--seconds`` (by default ``run_seconds`` of
BENCHMARK.json) have passed and checks every output against the independent
oracles.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of nine
fresh interpreters that import fermatlab and build the workload's inputs),
``ops_per_s`` (operations per second of program time), ``op_p50_ms`` and
``peak_rss_mb``.  ``--trace 1`` runs untraced rounds for half the time, then
the same number of rounds traced, and prints the per-layer metrics per round
together with ``trace.overhead_s``; its spans go to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

# One thread: keep any numeric library from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
TRACE_DIR = ROOT / ".perfbench"


class SetupError(RuntimeError):
    pass


def import_program():
    """Import fermatlab from this checkout's src/ and the workloads with it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import fermatlab
    except ImportError as exc:
        raise SetupError(f"cannot import fermatlab from {src}: {exc}") from exc
    if Path(fermatlab.__file__).resolve().parent != src / "fermatlab":
        raise SetupError(f"fermatlab was imported from {fermatlab.__file__}, not {src}")
    import workloads

    return workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(args) -> list:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return [
        f"workload: {args.workload}",
        f"seed: {args.seed}",
        f"seconds: {args.seconds}",
        f"trace: {args.trace}",
        f"nproc: {os.cpu_count()}",
        f"cpu: {cpu_model()}",
        f"python: {platform.python_version()}",
        f"numpy: {version('numpy')}",
        f"mpmath: {version('mpmath')}",
        f"sympy: {version('sympy')}",
    ]


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import fermatlab and build
    the workload's fixed inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr.strip()}")
    return statistics.median(times)


class Loop:
    """Closed-loop runner: runs whole rounds and keeps latencies and problems."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.problems = []  # outputs that failed their check
        self.errors = []  # operations that raised

    def run(self, first_round: int, seconds=None, rounds=None) -> tuple:
        """Run rounds from ``first_round`` until ``seconds`` or ``rounds`` is
        reached; returns (rounds run, program time in s)."""
        tracer = self.tracer
        start = perf_counter()
        busy = 0.0
        k = first_round
        while True:
            for op in self.workload.round(k):
                self.attempted += 1
                if tracer is not None:
                    tracer.op = self.attempted
                t0 = perf_counter()
                try:
                    out = op.call()
                except Exception:  # a failing operation is counted, not fatal
                    busy += perf_counter() - t0
                    self.failed += 1
                    self.errors.append(f"{op.name} raised:\n{traceback.format_exc()}")
                    continue
                finally:
                    if tracer is not None:
                        tracer.op = None
                dt = perf_counter() - t0
                busy += dt
                self.latencies.append(dt)
                self.problems += [f"{op.name}: {p}" for p in op.check(out)]
            k += 1
            if rounds is not None and k - first_round >= rounds:
                break
            if seconds is not None and perf_counter() - start >= seconds:
                break
        return k - first_round, busy


def run(args) -> dict:
    workloads = import_program()
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.setup()
    w.prepare()
    if not args.trace:
        loop = Loop(w)
        loop.run(0, rounds=1)  # warm-up: first-touch allocations, fixed engines
        loop.latencies.clear()
        _, busy = loop.run(1, seconds=args.seconds)
        if "tracing" in sys.modules:
            raise RuntimeError("the untraced run imported the tracer")
        lat = loop.latencies
        metrics = {
            "setup_s": args.setup_s,
            "ops_per_s": len(lat) / busy if busy else 0.0,
            "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
    else:
        import tracing

        tracer = tracing.Tracer()
        loop = Loop(w, tracer)
        loop.run(0, rounds=1)
        rounds, plain = loop.run(1, seconds=args.seconds / 2)
        tracer.install()
        try:
            _, traced = loop.run(1 + rounds, rounds=rounds)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.overhead_s"] = (traced - plain) / rounds
        units = metric_units("per_layer")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    return {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "problems": loop.errors + loop.problems,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import fermatlab and build the inputs (timed by the parent)")
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            import_program().WORKLOADS[args.workload](args.seed).setup()
            return 0
        for line in header(args):
            print(line, flush=True)
        args.setup_s = measure_setup(args) if not args.trace else 0.0
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = result.pop("problems")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"attempted: {result['attempted']}")
    print(f"failed: {result['failed']}")
    print(f"correct: {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
