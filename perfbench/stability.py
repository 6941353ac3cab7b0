"""Run-to-run stability of the end-to-end metrics.

    python3 perfbench/stability.py

Runs every workload in BENCHMARK.json ten times in each of two sets of runs,
untraced and for ``run_seconds`` from BENCHMARK.json, each run with its own
seed (101-110 in the first set, 111-120 in the second).  For every workload
and end-to-end metric it prints each set's median and quartiles and the
spread (third minus first quartile, as a share of the median).  It then says
whether the two sets agree within the bounds in BENCHMARK.json:

- every spread within its bound, except that of ``setup_s``, which is
  printed but not gated: it times fresh interpreters of about 0.3 s, where
  the machine's noise alone reaches the bound;
- the second set's median within the bound of the first set's, in either
  direction, for every metric, ``setup_s`` too;
- the same share of failed operations in every run, and every run correct.

Raw results go to ``.perfbench/stability.json``.  Exit status 0 means the
sets agree.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 101


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = FIRST_SEED + s * RUNS + i
            for w in names:
                res = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(res)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    agree = True
    for w in names:
        print(f"\n== {w}")
        for s, runs in enumerate(results[w]):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            wrong = sum(not r["correct"] for r in runs)
            print(f"set {s + 1}: failed share {shares}, runs with wrong output {wrong}")
            agree &= wrong == 0
        agree &= len({r["failed"] / r["attempted"] for runs in results[w] for r in runs}) == 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(results[w]):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                verdict = "ok"
                if spread > bound:
                    verdict = "ok (spread not gated)" if name == "setup_s" else "SPREAD"
                if first is None:
                    first = med
                elif abs(med - first) / first > bound:
                    verdict = "DRIFT"
                agree &= verdict.startswith("ok")
                print(f"  {name:12s} set {s + 1}: median {med:.6g} {m['unit']} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3%} "
                      f"(bound {bound:.0%}, a third {bound / 3:.2%}) {verdict}")

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with open(out / "stability.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    print("\nsets agree within the bounds" if agree else "\nsets DO NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
