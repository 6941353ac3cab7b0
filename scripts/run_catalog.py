#!/usr/bin/env python3
"""Run every catalog family through exact adjudication and a numeric scan.

Prints one table row per catalog entry: the exact verdict (ZERO / NONZERO /
UNAVAILABLE, with the route that produced it) next to the numeric residual
scan verdict (PASS / FAIL / INCONCLUSIVE with the p95 relative residual).
For refuted entries the exact residual coefficients are printed underneath,
so the refutation is reproducible at a glance.

Usage:
    python3 scripts/run_catalog.py
    python3 scripts/run_catalog.py --density 10 --half-width 1.5
"""

from __future__ import annotations

import argparse
import sys
import time

from fermatlab.errors import FermatLabError
from fermatlab.families import CATALOG, adjudicate, build_family
from fermatlab.verify import ScanWindow, residual_scan


def residual_detail(verdict) -> str:
    if verdict.even_coeffs_desc is not None:
        parts = [f"even {verdict.even_coeffs_desc}"]
        if verdict.odd_coeffs_desc and verdict.odd_coeffs_desc != ["0"]:
            parts.append(f"odd {verdict.odd_coeffs_desc}")
        return "; ".join(parts)
    if verdict.series_leading is not None:
        return f"leading series {verdict.series_leading}"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--density", type=float,
                    help="scan grid points per unit length (default: ScanWindow's)")
    ap.add_argument("--half-width", type=float, default=2.0,
                    help="scan window is [-w, w] x [-w, w] (default 2)")
    ap.add_argument("--tol", type=float,
                    help="numeric scan tolerance (default: residual_scan's)")
    args = ap.parse_args(argv)
    try:
        return print_table(args)
    except (ValueError, OverflowError, FermatLabError) as exc:
        # a bad setting is refused as the fermatlab command refuses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


def print_table(args) -> int:
    # a setting left out keeps the default of the library call that takes it
    window = ScanWindow(
        re_min=-args.half_width, re_max=args.half_width,
        im_min=-args.half_width, im_max=args.half_width,
        **({} if args.density is None else {"grid_density": args.density}),
    )
    scan_kwargs = {} if args.tol is None else {"tol": args.tol}

    header = f"{'family':<17} {'exact':<13} {'route':<7} {'scan':<13} {'p95 residual':<13}"
    print(header)
    print("-" * len(header))

    details = []
    t0 = time.perf_counter()
    for label, family_id, params, _ in CATALOG:
        fam = build_family(family_id, **params)
        verdict = adjudicate(fam)
        report = residual_scan(fam, window, **scan_kwargs)
        print(
            f"{label:<17} {verdict.verdict:<13} {verdict.route:<7} "
            f"{report.verdict:<13} {report.p95_residual:<13.3e}"
        )
        if verdict.verdict == "NONZERO":
            details.append((label, residual_detail(verdict)))
    elapsed = time.perf_counter() - t0

    if details:
        print()
        print("exact residuals of the refuted entries:")
        for label, text in details:
            print(f"  {label}: {text}")

    print(f"\n{len(CATALOG)} families in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
