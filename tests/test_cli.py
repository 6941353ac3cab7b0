"""Command-line interface: exit codes, output contracts, determinism, and a
mutation check that the acceptance suite actually fails when the code lies."""

import argparse
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fermatlab import cli
from fermatlab.cli import main
from fermatlab.families import FAMILY_IDS, MAX_M_ONE_EXPONENT, adjudicate, build_family
from fermatlab.reports import points_csv
from fermatlab.verify import ScanWindow, residual_scan

# exit-code contract:
#   0 success / PASS / ZERO
#   1 runtime refusal (pole hit, FAIL scan, NONZERO or UNAVAILABLE verdict)
#   2 invalid invocation or parameters, or a numeric failure they cause
#   3 INCONCLUSIVE scan


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse uses SystemExit for usage errors
        code = exc.code if isinstance(exc.code, int) else 0
    out, err = capsys.readouterr()
    return code, out, err


# -- global flags ------------------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert out.strip() == "0.1.0"


#: README quickstart commands whose output is exact on every machine
_README_EXACT = (
    "adjudicate --family quadratic --rho 5/4 --sign plus",
    "adjudicate --family case4 --variant 1",
    "discriminant --tau 1",
)


def _readme_transcripts() -> dict:
    """{command: the output lines shown} of README's CLI quickstart; a
    "..." line stands for lines left out."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```console\n", 1)[1].split("```", 1)[0]
    shown = {}
    for chunk in block.replace("\\\n", " ").split("$ fermatlab ")[1:]:
        head, *lines = chunk.splitlines()
        shown[" ".join(head.split())] = [x for x in lines if x and x != "..."]
    return shown


@pytest.mark.parametrize("command", _README_EXACT)
def test_readme_transcript_matches_the_cli(command, capsys):
    shown = _readme_transcripts()[command]
    _, out, _ = run_cli(command.split(), capsys)
    assert shown
    for line in shown:
        assert line in out.splitlines()


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2


def test_console_script_installed():
    """The ``fermatlab`` console script declared in ``pyproject.toml``.

    The declared ``module:attr`` target is run in a fresh interpreter the way
    the wrapper that pip generates runs it, from the ``src/`` tree this suite
    imported, so no install is needed; ``python -m fermatlab`` is run too.
    Where a ``fermatlab`` command is on PATH, that installed command is also
    run, in the unchanged environment.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "fermatlab" in scripts
    module_name, _, attr = scripts["fermatlab"].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    src = str(Path(cli.__file__).resolve().parents[2])
    child_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    checkout_env = dict(os.environ, PYTHONPATH=child_path)
    wrapper = (
        "import sys\n"
        f"from {module_name} import {attr}\n"
        "sys.argv[0] = 'fermatlab'\n"
        f"sys.exit({attr}())\n"
    )
    runs = [
        ([sys.executable, "-c", wrapper, "--version"], checkout_env),
        ([sys.executable, "-m", "fermatlab", "--version"], checkout_env),
    ]
    installed = shutil.which("fermatlab")
    if installed is not None:
        runs.append(([installed, "--version"], None))
    for argv, env in runs:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"


FAMILIES = sorted(FAMILY_IDS)

#: subcommand -> (option strings, dest, type, default, choices, help, required)
OPTIONS = {
    "wp-eval": [
        (["--g2"], "g2", None, None, None, "first invariant (with --g3)", False),
        (["--g3"], "g3", None, None, None, "second invariant (with --g2)", False),
        (["--tau"], "tau", None, None, None, "cubic-family parameter", False),
        (["--case"], "case", None, None, None, "catalog case II, III or IV", False),
        (["--z"], "z", None, None, None, "evaluation point a+bi", True),
    ],
    "adjudicate": [
        (["--family"], "family", None, None, FAMILIES, None, True),
        (["--eta"], "eta", "int", None, None, "cube-root-of-unity index 0..2", False),
        (["--zeta"], "zeta", "int", None, None, "fourth-root-of-unity index 0..3", False),
        (["--variant"], "variant", "int", None, None, "printed variant, 1 or 2", False),
        (["--rho"], "rho", None, None, None, "quadratic cross-term parameter", False),
        (["--tau"], "tau", None, None, None, "cubic cross-term parameter", False),
        (["--sign"], "sign", None, None, ["plus", "minus"], "cross-term sign", False),
        (["--exponent"], "exponent", "int", None, None, "exponent m for the m-one family", False),
        (["--ell"], "ell", "int", None, None, "derivative power for the coupled witness", False),
        (["--gamma"], "gamma", None, None, None, "first constant-pair exponent", False),
        (["--delta"], "delta", None, None, None, "second constant-pair exponent", False),
        (["--order"], "order", "int", None, None, "series order of the exact verdict", False),
    ],
    "verify": [
        (["--family"], "family", None, None, FAMILIES, None, True),
        (["--eta"], "eta", "int", None, None, "cube-root-of-unity index 0..2", False),
        (["--zeta"], "zeta", "int", None, None, "fourth-root-of-unity index 0..3", False),
        (["--variant"], "variant", "int", None, None, "printed variant, 1 or 2", False),
        (["--rho"], "rho", None, None, None, "quadratic cross-term parameter", False),
        (["--tau"], "tau", None, None, None, "cubic cross-term parameter", False),
        (["--sign"], "sign", None, None, ["plus", "minus"], "cross-term sign", False),
        (["--exponent"], "exponent", "int", None, None, "exponent m for the m-one family", False),
        (["--ell"], "ell", "int", None, None, "derivative power for the coupled witness", False),
        (["--gamma"], "gamma", None, None, None, "first constant-pair exponent", False),
        (["--delta"], "delta", None, None, None, "second constant-pair exponent", False),
        (["--slot"], "slot", None, None, ["w", "exp"], "composition slot", False),
        (["--check"], "check", None, "residual", ["residual", "derivative"], None, False),
        (["--window"], "window", None, "-2,2,-2,2", None, None, False),
        (["--tol"], "tol", "float", None, None, None, False),
        (["--density"], "density", "float", None, None, "grid points per unit length", False),
        (["--soft-exclusion"], "soft_exclusion", "float", None, None, None, False),
        (["--pole-ceiling"], "pole_ceiling", "float", None, None, None, False),
        (["--exclusion-budget"], "exclusion_budget", "float", None, None, None, False),
        (["--out"], "out", None, None, None, "write the canonical JSON report here", False),
        (["--csv"], "csv", None, None, None, "write the per-point CSV here", False),
    ],
    "zeros": [
        (["--expr"], "expr", None, None, None, "family.attr, e.g. corollary.gprime", True),
        (["--window"], "window", None, "-2,2,-2,2", None, None, False),
        (["--compare"], "compare", None, None, None,
         "second family.attr to compare against", False),
        (["--relation"], "relation", None, "subset", ["subset", "superset", "equal"], None, False),
        (["--mode"], "mode", None, "counting", ["counting", "ignoring"], None, False),
        (["--json"], "json", None, None, None, "write the zero report here", False),
    ],
    "discriminant": [
        (["--tau"], "tau", None, None, None, None, True),
    ],
    "suite": [
        (["--acceptance"], "acceptance", None, False, None, None, False),
        (["--json"], "json", None, None, None, "write the summary JSON here", False),
    ],
}


def test_every_option_is_pinned():
    """The options of every subcommand, as argparse holds them; the family
    flags come from one table, so this shows the table changes no flag."""
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    seen = {}
    for name, parser in sub.choices.items():
        seen[name] = [
            (
                a.option_strings,
                a.dest,
                a.type.__name__ if a.type else None,
                a.default,
                list(a.choices) if a.choices is not None else None,
                a.help,
                a.required,
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
    assert seen == OPTIONS


#: every settings flag: (subcommand, flag, library keyword, the value an
#: @file gives, the value a flag after it gives)
SETTINGS_FLAGS = [
    ("adjudicate", "--order", "order", 60, 80),
    ("verify", "--tol", "tol", 1e-6, 1e-5),
    ("verify", "--density", "grid_density", 8.0, 6.0),
    ("verify", "--soft-exclusion", "soft_exclusion", 0.01, 0.02),
    ("verify", "--pole-ceiling", "pole_ceiling", 1e7, 1e6),
    ("verify", "--exclusion-budget", "exclusion_budget", 0.5, 0.3),
]


@pytest.mark.parametrize("command, flag, keyword, in_file, after", SETTINGS_FLAGS)
def test_no_settings_flag_is_dead(command, flag, keyword, in_file, after, capsys,
                                  tmp_path, monkeypatch):
    """Each settings flag reaches the library call that owns it, under its
    keyword, from the command line and from an @file; a flag after the file
    overrides it."""
    calls = []

    def spy(real):
        def call(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)
        return call

    for name in ("adjudicate", "residual_scan", "derivative_identity_scan", "ScanWindow"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    settings = tmp_path / "lab.args"
    settings.write_text(f"# lab settings\n\n{flag} {in_file}\n")
    if command == "adjudicate":
        runs = [["adjudicate", "--family", "case2"]]
    else:
        runs = [["verify", "--family", "case2", "--window=-1,1,-1,1", "--check", check]
                for check in ("residual", "derivative")]
    for base in runs:
        for extra, want in (
            ([flag, str(after)], after),
            ([f"@{settings}"], in_file),
            ([f"@{settings}", flag, str(after)], after),
        ):
            calls.clear()
            code, _, err = run_cli(base + extra, capsys)
            assert code == 0, err
            assert [kwargs[keyword] for kwargs in calls if keyword in kwargs] == [want]


# -- wp-eval -----------------------------------------------------------------


def test_wp_eval_invariants(capsys):
    code, out, _ = run_cli(
        ["wp-eval", "--g2", "0", "--g3", "1", "--z", "0.3+0.1i"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"z", "wp", "wpPrime", "wpPrimePrime", "odeResidual"}
    assert abs(data["wp"]["re"] - 8.0001) < 1e-3
    assert abs(data["odeResidual"]) < 1e-8


def test_wp_eval_hexagonal_lattice(capsys):
    code, out, _ = run_cli(
        ["wp-eval", "--g2", "0", "--g3", "7", "--z", "0.3+0.1i"], capsys
    )
    assert code == 0
    assert abs(json.loads(out)["odeResidual"]) < 1e-8


def test_wp_eval_case_and_tau(capsys):
    code, out, _ = run_cli(["wp-eval", "--case", "IV", "--z", "0.4+0.2i"], capsys)
    assert code == 0
    code2, out2, _ = run_cli(["wp-eval", "--tau", "1", "--z", "0.4+0.2i"], capsys)
    assert code2 == 0
    assert json.loads(out)["wp"] != json.loads(out2)["wp"]


def test_wp_eval_requires_exactly_one_source(capsys):
    code, _, err = run_cli(
        ["wp-eval", "--case", "II", "--tau", "1", "--z", "0.4i"], capsys
    )
    assert code == 2
    code2, _, _ = run_cli(["wp-eval", "--z", "0.4i"], capsys)
    assert code2 == 2
    code3, _, _ = run_cli(["wp-eval", "--g2", "0", "--z", "0.4i"], capsys)
    assert code3 == 2


def test_wp_eval_pole_refusal(capsys):
    code, _, err = run_cli(["wp-eval", "--case", "II", "--z", "0"], capsys)
    assert code == 1


def test_wp_eval_degenerate_invariants(capsys):
    code, _, err = run_cli(["wp-eval", "--g2", "3", "--g3", "1", "--z", "0.4"], capsys)
    assert code == 2


def test_wp_eval_degenerate_tau(capsys):
    code, _, err = run_cli(["wp-eval", "--tau", "-1", "--z", "0.4"], capsys)
    assert code == 2
    assert "error: tau=-1 has tau^3 == -1" in err


def test_wp_eval_bad_complex(capsys):
    code, _, _ = run_cli(["wp-eval", "--case", "II", "--z", "zebra"], capsys)
    assert code == 2


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        # neither the invariants nor their homogeneous scaling give a valid
        # lattice (ConvergenceError)
        ["verify", "--family", "cubic", "--tau", "3e4"],
        ["adjudicate", "--family", "cubic", "--tau", "3e4"],
        # the discriminant would overflow: refused by name (ValueError)
        ["wp-eval", "--g2", "1e200", "--g3", "1", "--z", "0.1"],
        ["verify", "--family", "cubic", "--tau", "1e200"],
        # exact integers beyond the float range: refused before complex()
        ["wp-eval", "--g2", _HUGE, "--g3", "1", "--z", "0.1"],
        ["verify", "--family", "cubic", "--tau", _HUGE],
        ["verify", "--family", "quadratic", "--rho", _HUGE],
        ["adjudicate", "--family", "quadratic", "--rho", _HUGE],
        ["verify", "--family", "picard-pair", "--gamma", _HUGE, "--delta", "0"],
        ["verify", "--family", "picard-pair", "--gamma", "0", "--delta", _HUGE],
        # e^1000 overflows a double
        ["verify", "--family", "picard-pair", "--gamma", "1000", "--delta", "0"],
        # rho - sqrt(rho^2 - 1) rounds to zero in floats
        ["verify", "--family", "quadratic", "--rho", "1e8"],
        # lattice coordinates beyond 2^20, where the reduced point would be
        # wrong (LatticeReductionError)
        ["wp-eval", "--case", "II", "--z", "1e15"],
        ["wp-eval", "--case", "II", "--z", "1e17"],
        ["verify", "--family", "case2", "--window", "1000000000000,1000000000001,0,1"],
    ],
)
def test_numeric_failures_exit_2(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    for big in ("1e200", _HUGE, "1000", "1e8"):
        if big in argv:
            param = argv[argv.index(big) - 1].lstrip("-")
            assert err.startswith(f"error: {param}=") and "must not exceed" in err
    for far in ("1e15", "1e17", "1000000000000,1000000000001,0,1"):
        if far in argv:
            assert err.startswith("error: z=")
            assert "the reduction resolves only coordinates up to 2^20 in magnitude" in err
    if "3e4" in argv:
        assert err.startswith("error: period computation failed for g2=")
        assert "g3=" in err and "rescaled by homogeneity failed too" in err


@pytest.mark.parametrize("tau", ["10000", "-10000", "5000i"])
def test_wp_eval_builds_near_degenerate_lattices(tau, capsys):
    # the discriminant is 6e-11 (5e-10 at 5000i) of g2^3
    code, out, _ = run_cli(["wp-eval", "--tau", tau, "--z", "0.1"], capsys)
    assert code == 0
    assert json.loads(out)["odeResidual"] < 1e-12


def test_cubic_near_degenerate_lattice_builds_by_homogeneity(capsys):
    # at tau = 1000 the discriminant is 6e-8 of g2^3 and the periods of the
    # invariants themselves fail validation; those of their scaled copy pass
    code, out, err = run_cli(["verify", "--family", "cubic", "--tau", "1e3"], capsys)
    assert code in (0, 1, 3)
    assert out.split(":")[0] in ("PASS", "FAIL", "INCONCLUSIVE")
    assert "period computation failed" not in err


@pytest.mark.parametrize("flags, slot", [([], "w"), (["--slot", "exp"], "e^w")])
def test_quadratic_reports_its_slot(flags, slot, capsys, tmp_path):
    out_json = tmp_path / "report.json"
    argv = ["verify", "--family", "quadratic", "--window=-1,1,-1,1", "--density", "5",
            "--out", str(out_json)] + flags
    assert run_cli(argv, capsys)[0] == 0
    assert json.loads(out_json.read_text())["params"]["slot"] == slot


# -- adjudicate --------------------------------------------------------------


def test_adjudicate_certified(capsys):
    code, out, _ = run_cli(["adjudicate", "--family", "case2"], capsys)
    assert code == 0
    assert "ZERO" in out and "case2" in out


def test_adjudicate_refuted_prints_certificate(capsys):
    code, out, _ = run_cli(["adjudicate", "--family", "case4"], capsys)
    assert code == 1
    assert "NONZERO" in out
    assert "44/3" in out
    assert "degrees [4, 3, 2, 1, 0]" in out


def test_adjudicate_quadratic_minus_series(capsys):
    code, out, _ = run_cli(
        ["adjudicate", "--family", "quadratic", "--sign", "minus"], capsys
    )
    assert code == 1
    assert "NONZERO" in out and "-20/3" in out


def test_adjudicate_unavailable(capsys):
    code, out, _ = run_cli(["adjudicate", "--family", "picard-pair"], capsys)
    assert code == 1
    assert "UNAVAILABLE" in out


def test_adjudicate_unknown_family(capsys):
    code, _, err = run_cli(["adjudicate", "--family", "case9"], capsys)
    assert code == 2


def test_adjudicate_invalid_parameter(capsys):
    code, _, err = run_cli(
        ["adjudicate", "--family", "quadratic", "--rho", "1"], capsys
    )
    assert code == 2


def test_adjudicate_cubic_tau(capsys):
    code, out, _ = run_cli(
        ["adjudicate", "--family", "cubic", "--tau", "1/3+1/2i"], capsys
    )
    assert code == 0
    assert "ZERO" in out


def test_adjudicate_config_series_order(capsys, tmp_path, monkeypatch):
    orders = []

    def spy(fam, order=40):
        orders.append(order)
        return adjudicate(fam, order=order)

    monkeypatch.setattr(cli, "adjudicate", spy)
    cfg = tmp_path / "lab.args"
    cfg.write_text("--order 120\n")
    for settings in (["--order", "120"], [f"@{cfg}"]):
        code, out, _ = run_cli(
            ["adjudicate", "--family", "quadratic", "--sign", "minus", *settings], capsys
        )
        assert code == 1
        assert orders.pop() == 120
        assert "leading series terms: w^1: -20/3, w^2: 100/9, w^3: -40/9, w^4: 100/27" in out


def test_adjudicate_bad_series_order(capsys):
    code, _, err = run_cli(["adjudicate", "--family", "unit-unit", "--order", "5"], capsys)
    assert code == 2
    assert "series order" in err


def test_adjudicate_m_one_exponent_is_bounded(capsys):
    top = str(MAX_M_ONE_EXPONENT)
    code, out, _ = run_cli(["adjudicate", "--family", "m-one", "--exponent", top], capsys)
    assert code == 0 and "ZERO" in out
    code, _, err = run_cli(
        ["adjudicate", "--family", "m-one", "--exponent", "100000"], capsys
    )
    assert code == 2
    assert err.startswith("error: m=100000 is out of range") and top in err


# -- verify ------------------------------------------------------------------


def small_verify_args(*extra):
    # a window starting with a minus sign needs the --flag=value form, or
    # argparse mistakes it for an option
    return [
        "verify",
        "--family",
        "case2",
        "--window=-1,1,-1,1",
        "--density",
        "5",
        *extra,
    ]


def test_verify_pass(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "points.csv"
    code, out, _ = run_cli(
        small_verify_args("--out", str(out_json), "--csv", str(out_csv)), capsys
    )
    assert code == 0
    assert "PASS" in out
    report = json.loads(out_json.read_text())
    assert report["verdict"] == "PASS"
    assert report["command"].startswith("fermatlab verify")
    assert report["tool_version"] == "0.1.0"
    csv_text = out_csv.read_text()
    assert csv_text.splitlines()[0] == "z_re,z_im,residual_abs,residual_rel,excluded"


def test_verify_reports_are_byte_identical(capsys, tmp_path):
    # the report embeds the command line, so identical argv must give
    # identical bytes; rerun into the same paths and compare snapshots
    p, c = tmp_path / "report.json", tmp_path / "points.csv"
    argv = small_verify_args("--out", str(p), "--csv", str(c))
    assert run_cli(argv, capsys)[0] == 0
    first_json, first_csv = p.read_bytes(), c.read_bytes()
    assert run_cli(argv, capsys)[0] == 0
    assert p.read_bytes() == first_json
    assert c.read_bytes() == first_csv


def test_verify_csv_streams_the_pinned_bytes(capsys, tmp_path):
    """The 161 x 161 CSV of case2, written block by block, is points_csv's
    text and keeps its pinned digest."""
    path = tmp_path / "points.csv"
    code, _, _ = run_cli(["verify", "--family", "case2", "--density", "40", "--csv", str(path)],
                         capsys)
    assert code == 0
    rep = residual_scan(build_family("case2"), ScanWindow(grid_density=40.0), keep_samples=True)
    data = path.read_bytes()
    assert data == points_csv(rep.samples).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "66d50877495e1c7e2511bd6821cbd7d183d145cceeee9a306481783dad111187")


@pytest.mark.parametrize(
    "argv,param",
    [
        (["verify", "--family", "case2", "--rho", "3", "--gamma", "7"], "rho"),
        (["verify", "--family", "picard-pair", "--slot", "exp"], "slot"),
        (["adjudicate", "--family", "unit-unit", "--exponent", "4"], "m"),
    ],
)
def test_flag_the_family_does_not_use_is_refused(argv, param, capsys, tmp_path):
    out = tmp_path / "report.json"
    if argv[0] == "verify":
        argv = argv + ["--out", str(out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: family {argv[2]!r} does not take the parameter {param!r}")
    assert stdout == "" and not out.exists()


def test_verify_fail_exit_code(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "case4", "--window=-1,1,-1,1", "--density", "5"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        small_verify_args("--soft-exclusion", "1000"), capsys
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


def test_verify_derivative_check(capsys):
    code, out, _ = run_cli(small_verify_args("--check", "derivative"), capsys)
    assert code == 0
    assert "derivative-identity" in out or "PASS" in out


def test_verify_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "lab.args"
    cfg.write_text("--tol 1e-6\n--density=5\n")
    out_json = tmp_path / "report.json"
    code, _, _ = run_cli(
        [
            "verify",
            "--family",
            "case2",
            "--window=-1,1,-1,1",
            f"@{cfg}",
            "--tol",
            "1e-4",
            "--out",
            str(out_json),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    # the flag wins over the file; the file's density shapes the grid
    assert report["tolerance"] == 1e-4
    assert report["grid"]["density"] == 5.0
    # the report records the command as typed, not the file's contents
    assert report["command"].endswith(f"--window=-1,1,-1,1 @{cfg} --tol 1e-4 --out {out_json}")


def test_verify_bad_config(capsys, tmp_path):
    cfg = tmp_path / "lab.args"
    cfg.write_text("--speed 11\n")
    code, _, err = run_cli(small_verify_args(f"@{cfg}"), capsys)
    assert code == 2
    assert "unrecognized arguments: --speed 11" in err


def test_verify_bad_window(capsys):
    code, _, err = run_cli(
        ["verify", "--family", "case2", "--window", "1,2,3"], capsys
    )
    assert code == 2


def test_verify_refuses_grid_over_budget(capsys):
    code, _, err = run_cli(
        ["verify", "--family", "case2", "--window=-1,1,-1,1", "--density", "100000"],
        capsys,
    )
    assert code == 2
    assert "grid points" in err


@pytest.mark.parametrize(
    "extra, settings",
    [
        (["--family", "case4", "--tol", "inf"], None),
        (["--family", "case4", "--tol", "nan"], None),
        (["--family", "case2", "--soft-exclusion", "nan"], None),
        (["--family", "case2", "--pole-ceiling", "nan"], None),
        (["--family", "case2"], "--pole-ceiling nan\n"),
    ],
)
def test_verify_refuses_values_that_are_not_finite(extra, settings, capsys, tmp_path):
    if settings is not None:
        cfg = tmp_path / "lab.args"
        cfg.write_text(settings)
        extra = extra + [f"@{cfg}"]
    code, out, err = run_cli(["verify", *extra], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("must be positive and finite\n")
    assert err.count("\n") == 1


# -- zeros -------------------------------------------------------------------


def test_zeros_lists_and_compares(capsys):
    code, out, _ = run_cli(
        [
            "zeros",
            "--expr",
            "corollary.fprime",
            "--compare",
            "corollary.gprime",
            "--relation",
            "subset",
            "--mode",
            "counting",
            "--window=-1,1,-7,7",
        ],
        capsys,
    )
    assert code == 0
    assert "subset (counting): TRUE" in out
    assert "proper" in out


def test_zeros_single_expression(capsys, tmp_path):
    out_json = tmp_path / "zeros.json"
    code, out, _ = run_cli(
        [
            "zeros",
            "--expr",
            "corollary.gprime",
            "--window=-1,1,-7,7",
            "--json",
            str(out_json),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert len(data["zeros"]["zeros"]) == 5
    assert data["zeros"]["interior_total"] == data["zeros"]["boundary_total"]


def test_zeros_failed_relation_exit_code(capsys):
    code, out, _ = run_cli(
        [
            "zeros",
            "--expr",
            "corollary.gprime",
            "--compare",
            "corollary.fprime",
            "--relation",
            "subset",
            "--window=-1,1,-7,7",
        ],
        capsys,
    )
    assert code == 1
    assert "FALSE" in out


def test_zeros_analyzer_error_exit_code(capsys):
    # g' vanishes at the origin, which sits exactly on this window's corner;
    # the analyzer must refuse rather than report a half-counted zero
    code, _, err = run_cli(
        ["zeros", "--expr", "corollary.gprime", "--window", "0,1,0,1"], capsys
    )
    assert code == 1
    assert "analyzer error" in err


def test_zeros_help_example_finds_the_zero_at_the_origin(capsys, tmp_path):
    # the example of the zeros help on its default window -2,2,-2,2, where
    # g' grows like e^{2 re w}: |N| spans 15 decades, from 5.2e-3 at the
    # lower left corner up
    out_json = tmp_path / "zeros.json"
    code, out, _ = run_cli(["zeros", "--expr", "corollary.gprime", "--json", str(out_json)], capsys)
    assert code == 0
    assert out.startswith("zeros of corollary.gprime: 1\n")
    rep = json.loads(out_json.read_text())["zeros"]
    assert [z["multiplicity"] for z in rep["zeros"]] == [1]
    assert abs(complex(rep["zeros"][0]["re"], rep["zeros"][0]["im"])) < 1e-12
    assert "seeds" not in rep


def test_zeros_window_is_not_a_grid(capsys, tmp_path):
    out_json = tmp_path / "zeros.json"
    code, out, err = run_cli(
        ["zeros", "--expr", "case3.f", "--window=-30.1,30.3,-30.2,30.4", "--json", str(out_json)],
        capsys,
    )
    assert code == 0, err
    assert out.endswith("interior count -19 == boundary winding -19\n")
    assert set(json.loads(out_json.read_text())["zeros"]["window"]) == {
        "re_min", "re_max", "im_min", "im_max"}
    code, _, err = run_cli(["zeros", "--expr", "case3.f", "--window=-500,500,-500,500"], capsys)
    assert code == 2
    assert err.startswith("error: window spans 125151 lattice points")


def test_zeros_bad_expression_name(capsys):
    code, _, _ = run_cli(["zeros", "--expr", "case2.q"], capsys)
    assert code == 2


# -- discriminant ------------------------------------------------------------


def test_discriminant_exact(capsys):
    code, out, _ = run_cli(["discriminant", "--tau", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["delta_brace_form"] == "-40310784"
    assert data["delta_factored"] == "-40310784"
    assert data["difference"] == "0"
    assert data["exact"] is True


def test_discriminant_degenerate_tau_is_zero(capsys):
    code, out, _ = run_cli(["discriminant", "--tau", "-1"], capsys)
    assert code == 0
    assert json.loads(out)["delta_brace_form"] == "0"


def test_discriminant_decimal_vs_slash_exactness(capsys):
    # decimals are taken as floats; exactness requires slash notation
    code, out, _ = run_cli(["discriminant", "--tau", "0.3+0.2i"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is False
    assert abs(data["difference"]["re"]) < 1e-5
    assert abs(data["difference"]["im"]) < 1e-5

    code2, out2, _ = run_cli(["discriminant", "--tau", "3/10+1/5i"], capsys)
    assert code2 == 0
    data2 = json.loads(out2)
    assert data2["exact"] is True
    assert data2["difference"] == "0"


# -- suite -------------------------------------------------------------------


def test_suite_runs_all_criteria(capsys, tmp_path):
    out_json = tmp_path / "suite.json"
    code, out, _ = run_cli(
        ["suite", "--acceptance", "--json", str(out_json)], capsys
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert len(data["criteria"]) == 10
    assert all(c["passed"] for c in data["criteria"])
    assert "10" in out  # the table lists criterion ids


def test_suite_requires_acceptance_flag(capsys):
    code, _, _ = run_cli(["suite"], capsys)
    assert code == 2


def test_suite_detects_mutations(capsys, monkeypatch, tmp_path):
    """Sanity check on the gate itself: corrupt k or l of the cubic family
    and both the family's certificate (criterion 3) and its near-pole terms
    (criterion 9) must fail."""
    import fermatlab.acceptance as acceptance_mod
    import fermatlab.families as families_mod

    real = families_mod.tau_cubic_coefficients
    out_json = tmp_path / "suite.json"
    for shift in ((1, 0), (0, 1)):

        def corrupted(tau, shift=shift):
            k, l = real(tau)
            return k + shift[0], l + shift[1]

        for mod in (families_mod, acceptance_mod):
            monkeypatch.setattr(mod, "tau_cubic_coefficients", corrupted)
        code, out, _ = run_cli(["suite", "--acceptance", "--json", str(out_json)], capsys)
        assert code == 1
        assert "FAIL" in out
        failed = [c["criterion"] for c in json.loads(out_json.read_text())["criteria"]
                  if not c["passed"]]
        assert failed == [3, 9]
