#!/usr/bin/env python3
"""Print one SHA-256 digest over zero_scan's output on a fixed grid.

The grid crosses the derivatives f' and g' of catalog families, a few
bare wp / wp' atoms, and three quotients whose numerator and denominator
vanish together at 0, with a fixed list of windows; it includes the seven
targets of the benchmark's zero-sets workload on their windows, with the
quadratic family at the rho that workload draws for seed 3.  Each scan
contributes one line: the float.hex of every reported zero, cancelled zero
and pole with its multiplicity or order, and the two winding totals, or
the message of the error that refused the window.  A change to the zero
analyzer that claims to keep every report bit must print the same digest
before and after.

Usage:
    python3 scripts/zero_sweep.py
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from fermatlab.errors import FermatLabError
from fermatlab.exprs import ONE, Div, Exp, Mul, Pow, Sub, W, Wp, WpPrime, differentiate
from fermatlab.families import build_family
from fermatlab.verify import ScanWindow, zero_scan
from fermatlab.wp import Invariants, engine_for

#: (label, build_family kwargs) of the families whose f' and g' are scanned
FAMILIES = [
    ("case1", dict(family_id="case1")),
    ("case2", dict(family_id="case2")),
    ("case3", dict(family_id="case3")),
    ("case4 v1", dict(family_id="case4", variant=1)),
    ("case5", dict(family_id="case5")),
    ("case6 v1", dict(family_id="case6", variant=1)),
    ("quadratic +2rho", dict(family_id="quadratic", rho=Fraction(5, 4), sign="plus")),
    ("quadratic -2rho", dict(family_id="quadratic", rho=Fraction(5, 4), sign="minus")),
    ("quadratic rho=-17/15", dict(family_id="quadratic", rho=Fraction(-17, 15))),
    ("cubic tau=0", dict(family_id="cubic", tau=0)),
    ("unit-unit", dict(family_id="unit-unit")),
    ("m-one m=3", dict(family_id="m-one", m=3)),
    ("picard-pair", dict(family_id="picard-pair", m=3, n=2)),
    ("corollary", dict(family_id="corollary", ell=1)),
]

#: (re_min, re_max, im_min, im_max); the first two are the zero-sets
#: workload's tall window and cell window
WINDOWS = [
    (-1.0, 1.0, -7.0, 7.0),
    (0.2, 3.0, 0.2, 2.8),
    (-2.0, 2.0, -2.0, 2.0),
    (-1.3, 1.1, -0.9, 1.7),
    (0.05, 1.45, 0.1, 1.2),
    (-3.1, -0.2, -2.6, 0.3),
    (-0.7, 0.9, 2.1, 4.3),
    (1.1, 2.9, -1.9, -0.1),
    (-0.45, 0.55, -0.35, 0.65),
    (-4.0, 4.0, -1.5, 1.5),
    (-6.0, 6.0, -6.0, 6.0),
    (0.3, 0.9, -5.0, 5.0),
    (-2.5, 3.5, 0.15, 0.85),
    (2.05, 2.95, 1.05, 1.95),
    (-1.7, -0.3, 0.4, 3.4),
    (-0.2, 0.2, -0.2, 0.2),
    (0.61, 0.62, 0.31, 0.33),
    (-9.0, 9.0, -2.0, 9.0),
]


def targets() -> list:
    """(label, expression) of every scanned target."""
    out = []
    for label, kwargs in FAMILIES:
        fam = build_family(**kwargs)
        out += [(label + " f'", differentiate(fam.f)), (label + " g'", differentiate(fam.g))]
    for g2, g3 in ((0, 1), (1, 0)):
        eng = engine_for(Invariants(g2, g3))
        out += [(f"wp'({g2},{g3})", WpPrime(eng, W)), (f"wp({g2},{g3})", Wp(eng, W))]
    e1 = Sub(Exp(W), ONE)
    out += [("w^2/w", Div(Mul(W, W), W)), ("w^3/w", Div(Pow(W, 3), W)),
            ("(e^w-1)^2/(e^w-1)", Div(Pow(e1, 2), e1))]
    return out


def records(rs) -> str:
    return ",".join(f"{r.re.hex()} {r.im.hex()} {r.multiplicity}" for r in rs)


def line(expr, window: ScanWindow) -> str:
    """One scan's report, or its refusal, as text."""
    try:
        rep = zero_scan(expr, window)
    except FermatLabError as exc:
        return f"refused {type(exc).__name__}: {exc}"
    poles = ",".join(f"{re.hex()} {im.hex()} {k}" for re, im, k in rep.poles)
    return (f"zeros {records(rep.zeros)}; cancelled {records(rep.cancelled)}; "
            f"poles {poles}; interior {rep.interior_total}; boundary {rep.boundary_total}")


def main() -> int:
    digest = hashlib.sha256()
    scans = refused = 0
    for label, expr in targets():
        for bounds in WINDOWS:
            text = line(expr, ScanWindow(*bounds))
            digest.update(f"{label} {bounds}: {text}\n".encode())
            scans += 1
            refused += text.startswith("refused")
    print(f"{scans} scans, {scans - refused} reports, {refused} refusals")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
