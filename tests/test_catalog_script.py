"""``scripts/run_catalog.py``: the table of exact and numeric verdicts."""

import importlib.util
from pathlib import Path

import pytest

from fermatlab.families import CATALOG

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog.py"

#: (label, exact verdict, route) of every row, in order
ROWS = [
    ("case1", "ZERO", "series"),
    ("case2", "ZERO", "ring"),
    ("case2 eta=1", "ZERO", "ring"),
    ("case2 eta=2", "ZERO", "ring"),
    ("case3", "ZERO", "ring"),
    ("case3 eta=1", "ZERO", "ring"),
    ("case3 eta=2", "ZERO", "ring"),
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


def _load_script():
    spec = importlib.util.spec_from_file_location("run_catalog", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_catalog_table(capsys):
    assert _load_script().main(["--density", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line[:17].rstrip() for line in lines[2 : 2 + len(ROWS)]]
    assert rows == [label for label, _, _ in ROWS]
    # the script prints every row of the catalog table, in its order
    assert rows == [label for label, _, _, _ in CATALOG]
    cols = [line[17:].split()[:2] for line in lines[2 : 2 + len(ROWS)]]
    assert cols == [[verdict, route] for _, verdict, route in ROWS]
    assert lines[2 + len(ROWS)] == ""
    assert lines[3 + len(ROWS) : 3 + len(ROWS) + len(REFUTED)] == REFUTED
    # the last line is the timing line, which is not pinned
    assert lines[-1].startswith(f"{len(ROWS)} families in ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--half-width", "0"], "error: window must have positive extent"),
        (["--density", "nan"], "error: window bounds and grid density must be finite"),
        (["--tol", "-1"], "error: tol must be positive and finite"),
    ],
)
def test_catalog_table_refuses_a_bad_setting(capsys, argv, message):
    assert _load_script().main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [message]
