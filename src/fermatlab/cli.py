"""Command-line interface.

Subcommands:

* ``wp-eval``       evaluate the elliptic engine at one point
* ``adjudicate``    exact ZERO/NONZERO certificate for a catalog family
* ``verify``        pole-aware residual scan with a deterministic report
* ``zeros``         certified zero sets and zero-set comparison
* ``discriminant``  the parameter-family discriminant, two exact ways
* ``suite``         the acceptance criteria

Exit codes: 0 success/PASS/ZERO; 1 runtime refusal (pole hit, scan FAIL,
NONZERO, analyzer error, refuted zero-set relation); 2 bad invocation,
invalid parameters or a numeric failure they cause (no valid period lattice,
overflow); 3 INCONCLUSIVE scan (exclusion budget exhausted).  ``main`` maps
exceptions to exit codes; the handlers only return verdict codes.

Complex arguments are written without spaces ("0.3+0.2i", "-1.5i", "2");
exact rationals use a slash ("5/4", "-1/3+2/5i").  Windows are
"re_min,re_max,im_min,im_max".

Settings come only from flags.  An argument ``@FILE`` is replaced by the
flags written in FILE, any number to a line, with ``#`` comments and blank
lines skipped; a flag given after it overrides the file's.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import AnalyzerError, FermatLabError, PoleProximityError
from .exprs import differentiate
from .families import FAMILY_IDS, adjudicate, build_family
from .reports import canonical_json, format_float, scan_payload, write_csv, write_json
from .scalars import parse_complex
from .verify import (
    ScanWindow,
    derivative_identity_scan,
    residual_scan,
    zero_scan,
    zero_set_compare,
)
from .wp import (
    Invariants,
    discriminant_of_tau,
    engine_for,
    invariants_from_case,
    invariants_from_tau,
)

def parse_window(text: str, **settings) -> ScanWindow:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("window must be re_min,re_max,im_min,im_max")
    vals = [float(p) for p in parts]
    return ScanWindow(vals[0], vals[1], vals[2], vals[3], **settings)


def _given(**settings) -> dict:
    """The settings whose flags were given (not None): the library call that
    takes a value owns its default and its range check."""
    return {k: v for k, v in settings.items() if v is not None}


def _complex_json(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _format_point(re_val: float, im_val: float) -> str:
    return f"{re_val:.12g}{im_val:+.12g}i"


#: family flags: (flag, build_family keyword, parser, help).  The parser is
#: argparse's ``type`` for int, a tuple of choices, or ``parse_complex``,
#: which runs after parsing so that its error text reaches ``main``.
_FAMILY_FLAGS = (
    ("--eta", "eta_index", int, "cube-root-of-unity index 0..2"),
    ("--zeta", "zeta_index", int, "fourth-root-of-unity index 0..3"),
    ("--variant", "variant", int, "printed variant, 1 or 2"),
    ("--rho", "rho", parse_complex, "quadratic cross-term parameter"),
    ("--tau", "tau", parse_complex, "cubic cross-term parameter"),
    ("--sign", "sign", ("plus", "minus"), "cross-term sign"),
    ("--exponent", "m", int, "exponent m for the m-one family"),
    ("--ell", "ell", int, "derivative power for the coupled witness"),
    ("--gamma", "gamma", parse_complex, "first constant-pair exponent"),
    ("--delta", "delta", parse_complex, "second constant-pair exponent"),
    ("--slot", "slot", ("w", "exp"), "composition slot"),
)


def _family_kwargs(args) -> dict:
    """CLI flags -> build_family keyword arguments (only the ones given)."""
    kwargs = {}
    for flag, name, kind, _ in _FAMILY_FLAGS:
        value = getattr(args, flag[2:], None)
        if value is not None:
            kwargs[name] = parse_complex(value) if kind is parse_complex else value
    return kwargs


def _add_family_flags(parser: argparse.ArgumentParser, with_slot: bool = True):
    parser.add_argument("--family", required=True, choices=sorted(FAMILY_IDS))
    for flag, _, kind, text in _FAMILY_FLAGS:
        if with_slot or flag != "--slot":
            opts = {"type": int} if kind is int else {}
            if isinstance(kind, tuple):
                opts["choices"] = list(kind)
            parser.add_argument(flag, help=text, **opts)


def _resolve_named_expr(name: str):
    """'<family>.<f|g|fprime|gprime|h>' -> expression."""
    if "." not in name:
        raise ValueError(f"expression {name!r} must look like family.attr")
    fid, attr = name.rsplit(".", 1)
    fam = build_family(fid)
    if attr == "f":
        return fam.f
    if attr == "g":
        return fam.g
    if attr == "fprime":
        return differentiate(fam.f)
    if attr == "gprime":
        return differentiate(fam.g)
    if attr == "h":
        if fam.h is None:
            raise ValueError(f"family {fid!r} has no h component")
        return fam.h
    raise ValueError(f"unknown attribute {attr!r}; expected f, g, fprime, gprime or h")


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_wp_eval(args) -> int:
    sources = [
        args.g2 is not None or args.g3 is not None,
        args.tau is not None,
        args.case is not None,
    ]
    if sum(sources) != 1:
        raise ValueError("give exactly one invariant source: --g2/--g3, --tau or --case")
    if args.case is not None:
        inv = invariants_from_case(args.case)
    elif args.tau is not None:
        inv = invariants_from_tau(parse_complex(args.tau))
    else:
        if args.g2 is None or args.g3 is None:
            raise ValueError("--g2 and --g3 must be given together")
        inv = Invariants(parse_complex(args.g2), parse_complex(args.g3))
    z = complex(parse_complex(args.z))
    eng = engine_for(inv)
    p, pp, ppp = eng.eval_scalar(z)
    import numpy as np

    ode = float(eng.ode_residual(np.asarray([z]))[0])
    payload = {
        "z": _complex_json(z),
        "wp": _complex_json(p),
        "wpPrime": _complex_json(pp),
        "wpPrimePrime": _complex_json(ppp),
        "odeResidual": ode,
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _cmd_adjudicate(args) -> int:
    fam = build_family(args.family, **_family_kwargs(args))
    verdict = adjudicate(fam, **_given(order=args.order))
    print(f"family:  {fam.family_id}")
    print(f"params:  {fam.params.to_dict()}")
    print(f"verdict: {verdict.verdict}  (route: {verdict.route})")
    print(f"detail:  {verdict.description}")
    if verdict.even_coeffs_desc:
        print(
            "residual coefficients "
            f"[{', '.join(verdict.even_coeffs_desc)}] for degrees "
            f"[{', '.join(str(d) for d in range(len(verdict.even_coeffs_desc) - 1, -1, -1))}]"
        )
    if verdict.odd_coeffs_desc:
        print(f"odd-part coefficients [{', '.join(verdict.odd_coeffs_desc)}]")
    if verdict.series_leading:
        terms = ", ".join(f"w^{e}: {c}" for e, c in verdict.series_leading)
        print(f"leading series terms: {terms}")
    return 0 if verdict.is_zero else 1


def _cmd_verify(args) -> int:
    fam = build_family(args.family, **_family_kwargs(args))
    window = parse_window(args.window, **_given(grid_density=args.density,
                                                soft_exclusion=args.soft_exclusion))
    scan = residual_scan if args.check == "residual" else derivative_identity_scan
    rep = scan(
        fam,
        window,
        keep_samples=args.csv is not None,
        **_given(tol=args.tol, pole_ceiling=args.pole_ceiling,
                 exclusion_budget=args.exclusion_budget),
    )
    command = "fermatlab " + " ".join(args.raw_argv)
    if args.out:
        write_json(args.out, scan_payload(rep, __version__, command))
    if args.csv:
        write_csv(args.csv, rep.samples)
    print(
        f"{rep.verdict}: p95 residual {format_float(rep.p95_residual)} vs "
        f"tolerance {format_float(rep.tolerance)}; "
        f"{rep.points_excluded}/{rep.points_total} points excluded"
    )
    if rep.verdict == "PASS":
        return 0
    if rep.verdict == "FAIL":
        return 1
    return 3


def _cmd_zeros(args) -> int:
    expr = _resolve_named_expr(args.expr)
    compare_expr = _resolve_named_expr(args.compare) if args.compare else None
    window = parse_window(args.window)
    relation_holds = True
    rep = zero_scan(expr, window)
    print(f"zeros of {args.expr}: {len(rep.zeros)}")
    for z in rep.zeros:
        print(f"  {_format_point(z.re, z.im)}  multiplicity {z.multiplicity}")
    print(
        f"interior count {rep.interior_total} == boundary winding "
        f"{rep.boundary_total}"
    )
    payload = {"expr": args.expr, "zeros": rep.to_dict()}
    if compare_expr is not None:
        rep_b = zero_scan(compare_expr, window)
        print(f"zeros of {args.compare}: {len(rep_b.zeros)}")
        for z in rep_b.zeros:
            print(f"  {_format_point(z.re, z.im)}  multiplicity {z.multiplicity}")
        cmp = zero_set_compare(rep, rep_b, relation=args.relation, mode=args.mode)
        line = f"{args.relation} ({args.mode}): {'TRUE' if cmp.verdict else 'FALSE'}"
        if cmp.verdict and cmp.proper:
            wit = cmp.proper_witnesses[0]
            line += f" (proper; witness {_format_point(wit['re'], wit['im'])})"
        elif not cmp.verdict and cmp.violations:
            bad = cmp.violations[0]
            line += f" (violation at {_format_point(bad['re'], bad['im'])})"
        print(line)
        payload["compare"] = args.compare
        payload["comparison"] = cmp.to_dict()
        relation_holds = bool(cmp.verdict)
    if args.json:
        write_json(args.json, payload)
    return 0 if relation_holds else 1


def _cmd_discriminant(args) -> int:
    tau = parse_complex(args.tau)
    result = discriminant_of_tau(tau)

    def render(x):
        return str(x) if result.exact else _complex_json(complex(x))

    payload = {
        "tau": str(tau),
        "exact": result.exact,
        "delta_brace_form": render(result.brace_form),
        "delta_factored": render(result.factored_form),
        "difference": render(result.difference),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _cmd_suite(args) -> int:
    if not args.acceptance:
        raise ValueError("choose a suite with --acceptance")
    from .acceptance import run_all

    suite = run_all()
    width = max(len(r.label) for r in suite.results)
    for r in suite.results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.cid:2d}  {r.label:<{width}}  {r.elapsed:6.2f}s")
    print(
        f"{'all criteria passed' if suite.all_passed else 'FAILURES present'} "
        f"in {suite.total_elapsed:.1f}s"
    )
    if args.json:
        write_json(args.json, suite.to_dict())
    return 0 if suite.all_passed else 1


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatlab",
        description="verification lab for power-sum functional equations",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = lambda line: line.split("#", 1)[0].split()
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp-eval", help="evaluate the elliptic engine at a point")
    p.add_argument("--g2", help="first invariant (with --g3)")
    p.add_argument("--g3", help="second invariant (with --g2)")
    p.add_argument("--tau", help="cubic-family parameter")
    p.add_argument("--case", help="catalog case II, III or IV")
    p.add_argument("--z", required=True, help="evaluation point a+bi")
    p.set_defaults(fn=_cmd_wp_eval)

    p = sub.add_parser("adjudicate", help="exact residual certificate")
    _add_family_flags(p, with_slot=False)
    p.add_argument("--order", type=int, help="series order of the exact verdict")
    p.set_defaults(fn=_cmd_adjudicate)

    p = sub.add_parser("verify", help="pole-aware residual scan")
    _add_family_flags(p)
    p.add_argument("--check", choices=["residual", "derivative"], default="residual")
    p.add_argument("--window", default="-2,2,-2,2")
    p.add_argument("--tol", type=float)
    p.add_argument("--density", type=float, help="grid points per unit length")
    p.add_argument("--soft-exclusion", type=float, dest="soft_exclusion")
    p.add_argument("--pole-ceiling", type=float)
    p.add_argument("--exclusion-budget", type=float)
    p.add_argument("--out", help="write the canonical JSON report here")
    p.add_argument("--csv", help="write the per-point CSV here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("zeros", help="certified zero sets")
    p.add_argument("--expr", required=True, help="family.attr, e.g. corollary.gprime")
    p.add_argument("--window", default="-2,2,-2,2")
    p.add_argument("--compare", help="second family.attr to compare against")
    p.add_argument(
        "--relation", choices=["subset", "superset", "equal"], default="subset"
    )
    p.add_argument("--mode", choices=["counting", "ignoring"], default="counting")
    p.add_argument("--json", help="write the zero report here")
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("discriminant", help="parameter-family discriminant")
    p.add_argument("--tau", required=True)
    p.set_defaults(fn=_cmd_discriminant)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--acceptance", action="store_true")
    p.add_argument("--json", help="write the summary JSON here")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.fn(args)
    except AnalyzerError as exc:
        print(f"analyzer error: {exc}", file=sys.stderr)
        return 1
    except PoleProximityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, TypeError, OverflowError, FermatLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
