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
from fractions import Fraction

from fermatlab.families import adjudicate, build_family
from fermatlab.verify import ScanWindow, residual_scan

# (label, build_family kwargs) for every catalog entry worth a row.  The
# refuted case-IV/VI variants and the printed-minus-sign quadratic are
# included on purpose: the point of the table is to show which printed
# identities certify and which do not.
CATALOG = [
    ("case1", dict(family_id="case1")),
    ("case2", dict(family_id="case2")),
    ("case3", dict(family_id="case3")),
    ("case4 v1", dict(family_id="case4", variant=1)),
    ("case4 v2", dict(family_id="case4", variant=2)),
    ("case5", dict(family_id="case5")),
    ("case6 v1", dict(family_id="case6", variant=1)),
    ("case6 v2", dict(family_id="case6", variant=2)),
    ("quadratic +2rho", dict(family_id="quadratic", rho=Fraction(5, 4), sign="plus")),
    ("quadratic -2rho", dict(family_id="quadratic", rho=Fraction(5, 4), sign="minus")),
    ("cubic tau=0", dict(family_id="cubic", tau=0)),
    ("cubic tau=1", dict(family_id="cubic", tau=1)),
    ("unit-unit", dict(family_id="unit-unit")),
    ("m-one m=3", dict(family_id="m-one", m=3)),
    ("picard-pair", dict(family_id="picard-pair", m=3, n=2)),
    ("corollary", dict(family_id="corollary", ell=1)),
]


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
    for label, kwargs in CATALOG:
        fam = build_family(**kwargs)
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
