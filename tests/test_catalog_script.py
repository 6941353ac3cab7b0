"""``scripts/run_catalog.py``: the table of exact and numeric verdicts."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog.py"

#: (label, exact verdict, route) of every row, in order
ROWS = [
    ("case1", "ZERO", "series"),
    ("case2", "ZERO", "ring"),
    ("case3", "ZERO", "ring"),
    ("case4 v1", "NONZERO", "ring"),
    ("case4 v2", "NONZERO", "ring"),
    ("case5", "ZERO", "ring"),
    ("case6 v1", "NONZERO", "ring"),
    ("case6 v2", "NONZERO", "ring"),
    ("quadratic +2rho", "ZERO", "series"),
    ("quadratic -2rho", "NONZERO", "series"),
    ("cubic tau=0", "ZERO", "ring"),
    ("cubic tau=1", "ZERO", "ring"),
    ("unit-unit", "ZERO", "series"),
    ("m-one m=3", "ZERO", "series"),
    ("picard-pair", "UNAVAILABLE", "none"),
    ("corollary", "ZERO", "series"),
]

QUARTIC = "even ['44/3', '-4', '0', '1/36', '1/12']"

REFUTED = [
    "exact residuals of the refuted entries:",
    f"  case4 v1: {QUARTIC}",
    f"  case4 v2: {QUARTIC}",
    f"  case6 v1: {QUARTIC}",
    f"  case6 v2: {QUARTIC}",
    "  quadratic -2rho: leading series "
    "[[1, '-20/3'], [2, '100/9'], [3, '-40/9'], [4, '100/27']]",
]


def test_catalog_table(capsys):
    spec = importlib.util.spec_from_file_location("run_catalog", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--density", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line[:17].rstrip() for line in lines[2 : 2 + len(ROWS)]]
    assert rows == [label for label, _, _ in ROWS]
    cols = [line[17:].split()[:2] for line in lines[2 : 2 + len(ROWS)]]
    assert cols == [[verdict, route] for _, verdict, route in ROWS]
    assert lines[2 + len(ROWS)] == ""
    assert lines[3 + len(ROWS) : 3 + len(ROWS) + len(REFUTED)] == REFUTED
    # the last line is the timing line, which is not pinned
    assert lines[-1].startswith(f"{len(ROWS)} families in ")
