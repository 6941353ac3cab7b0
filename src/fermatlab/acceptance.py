"""The acceptance gate: ten independently checkable criteria.

Each criterion exercises a different slice of the package -- exact series
certificates, the lattice engine, symbolic adjudication, numeric scans, the
zero analyzer, the cubic family's near-pole limits, and report determinism
-- with hard-coded tolerances where a check is numeric.  ``run_all``
executes them in order and reports a structured summary; any corruption of
the underlying constants or algorithms should flip at least one criterion
to failed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .exprs import differentiate
from .families import CATALOG, adjudicate, build_family
from .reports import canonical_json, points_csv, scan_payload
from .scalars import RationalComplex
from .series import LaurentSeries, ode_residual_series, wp_series
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
    invariants_from_tau,
    periods_from_invariants,
    tau_cubic_coefficients,
)

#: independently frozen value of the real half-period for invariants (0, 1),
#: from the quadrature below (also reproduced by scipy in the test suite)
OMEGA1_EQUIANHARMONIC = 1.5299540370571931


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    label: str
    passed: bool
    elapsed: float
    details: dict

    def to_dict(self) -> dict:
        return {
            "criterion": self.cid,
            "label": self.label,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class SuiteResult:
    results: tuple
    total_elapsed: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "all_passed": self.all_passed,
            "total_elapsed_seconds": self.total_elapsed,
            "criteria": [r.to_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# Individual criteria.  Each returns (passed, details).
# ---------------------------------------------------------------------------


def _c1_exact_ode_series():
    """Exact cubic-law residual series vanishes through order 40 for the
    three stock invariant pairs."""
    pairs = [(0, 1), (Fraction(-1, 12), Fraction(-1, 6)), (0, 432)]
    checked = []
    ok = True
    for g2, g3 in pairs:
        res = ode_residual_series(g2, g3, order=40)
        zero = res.is_zero_through(40)
        ok = ok and zero
        checked.append({"g2": str(g2), "g3": str(g3), "zero_through_40": zero})
    return ok, {"pairs": checked}


def _omega1_quadrature() -> float:
    """Real half-period for invariants (0, 1) by composite Gauss-Legendre.

    With e1 the real root of 4 t^3 = 1 and t = e1 + x^2, the period integral
    from e1 to infinity of dt / sqrt(4 t^3 - 1) becomes the integral over
    x >= 0 of dx / sqrt(x^4 + 3 e1 x^2 + 3 e1^2); x = s/(1-s) maps it to the
    unit interval."""
    e1 = 0.25 ** (1.0 / 3.0)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    total = 0.0
    for k in range(8):
        a, b = k / 8.0, (k + 1) / 8.0
        s = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        x = s / (1.0 - s)
        f = 1.0 / (np.sqrt(x**4 + 3.0 * e1 * x**2 + 3.0 * e1**2) * (1.0 - s) ** 2)
        total += 0.5 * (b - a) * float(np.sum(weights * f))
    return total


def _c2_engine_checks():
    """Engine for (0, 1): cubic-law residual < 1e-8 and periodicity deviation
    < 1e-7 at 200 random cell points; half-period matches an independent
    quadrature to 1e-4."""
    eng = engine_for(Invariants(0, 1))
    rng = np.random.default_rng(20260825)
    x = rng.uniform(0.1, 0.9, 200)
    y = rng.uniform(0.1, 0.9, 200)
    z = eng.cell_point(x, y)
    ode_max = float(np.max(eng.ode_residual(z)))
    v1, v2 = eng.basis
    p0, _, _, _ = eng.eval(z)
    p1, _, _, _ = eng.eval(z + v1)
    p2, _, _, _ = eng.eval(z + v2)
    period_max = float(
        max(np.max(np.abs(p1 - p0)), np.max(np.abs(p2 - p0)))
    )
    omega_engine = periods_from_invariants(Invariants(0, 1)).omega1
    omega_quad = _omega1_quadrature()
    dev_frozen = abs(omega_engine - OMEGA1_EQUIANHARMONIC)
    dev_quad = abs(omega_engine - omega_quad)
    ok = (
        ode_max < 1e-8
        and period_max < 1e-7
        and dev_frozen < 1e-4
        and dev_quad < 1e-4
    )
    return ok, {
        "ode_max": ode_max,
        "periodicity_max": period_max,
        "omega1_engine": complex(omega_engine),
        "omega1_quadrature": omega_quad,
        "points": 200,
    }


def _catalog_rows(verdict):
    """(family_id, params) of every catalog row expected to adjudicate
    ``verdict``, in table order."""
    return [(fid, params) for _, fid, params, want in CATALOG if want == verdict]


def _c3_zero_families_certify_and_scan():
    """Every ZERO family: symbolic verdict ZERO and residual scan PASS at
    1e-8 on the standard window, in both composition slots."""
    rows = []
    ok = True
    for fid, kwargs in _catalog_rows("ZERO"):
        fam = build_family(fid, **kwargs)
        verdict = adjudicate(fam)
        row = {"family": fid, **{k: str(v) for k, v in kwargs.items()}}
        row["verdict"] = verdict.verdict
        for slot in ("w", "exp"):
            rep = residual_scan(build_family(fid, slot=slot, **kwargs))
            row[f"scan_{slot}"] = rep.verdict
            row[f"p95_{slot}"] = rep.p95_residual
            ok = ok and rep.verdict == "PASS"
        ok = ok and verdict.is_zero
        rows.append(row)
    return ok, {"families": rows}


_CASE4_COEFFS = ("44/3", "-4", "0", "1/36", "1/12")


def _c4_nonzero_families():
    """Every NONZERO family: NONZERO and scan FAIL; a family with a ring
    residual also gives the exact normalized residual coefficients for
    degrees [4,3,2,1,0] and no odd part."""
    rows = []
    ok = True
    for fid, kwargs in _catalog_rows("NONZERO"):
        fam = build_family(fid, **kwargs)
        verdict = adjudicate(fam)
        rep = residual_scan(fam)
        row = {"family": fid, **kwargs, "verdict": verdict.verdict}
        good = verdict.verdict == "NONZERO" and rep.verdict == "FAIL"
        if fam.exact_residual is not None:
            coeffs = tuple(verdict.even_coeffs_desc or ())
            good = good and coeffs == _CASE4_COEFFS and not (verdict.odd_coeffs_desc or ())
            row["coeffs"] = list(coeffs)
        row["scan"] = rep.verdict
        ok = ok and good
        rows.append(row)
    return ok, {"families": rows}


def _c5_discriminant_identity():
    """Brace-form and factored discriminants agree exactly for 20 random
    Gaussian-rational parameters; the two anchor values are exact."""
    rng = random.Random(20260825)
    ok = True
    samples = []
    for k in range(20):
        re = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if k % 2:
            tau = RationalComplex(re, Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        else:
            tau = re
        d = discriminant_of_tau(tau)
        diff = d.difference
        exact_zero = diff.is_zero if isinstance(diff, RationalComplex) else diff == 0
        ok = ok and d.exact and exact_zero
        samples.append(str(tau))
    d0 = discriminant_of_tau(0)
    dm1 = discriminant_of_tau(-1)
    anchor0 = (d0.factored_form + 5038848).is_zero and (d0.brace_form + 5038848).is_zero
    anchor1 = dm1.factored_form.is_zero and dm1.brace_form.is_zero
    ok = ok and anchor0 and anchor1
    return ok, {
        "samples": samples,
        "delta_at_0": str(d0.factored_form),
        "delta_at_-1": str(dm1.factored_form),
    }


def _c6_derivative_identity_scans():
    """Differentiated-equation scan passes at 1e-8 for every ZERO family of
    power-sum kind."""
    rows = []
    ok = True
    for fid, kwargs in _catalog_rows("ZERO"):
        fam = build_family(fid, **kwargs)
        if fam.kind not in ("fermat", "corollary"):
            continue
        rep = derivative_identity_scan(fam)
        ok = ok and rep.verdict == "PASS"
        rows.append(
            {"family": fid, **{k: str(v) for k, v in kwargs.items()},
             "scan": rep.verdict, "p95": rep.p95_residual}
        )
    return ok, {"families": rows}


def _c7_second_derivative_offset():
    """wp'' - 6 wp^2 equals -g2/2 to 1e-8 at 50 random cell points for three
    parameter values, with wp'' a two-level Richardson extrapolation of central
    differences of wp' -- the one check that the engine's wp' agrees with its
    wp along a path.  The points keep 0.2 from the cell edges, where derivative
    growth pushes the finite-difference error above 1e-8."""
    rows = []
    ok = True
    for tau in (0, 0.3 + 0.2j, 1):
        eng = engine_for(invariants_from_tau(tau))
        expected = -eng.invariants.g2c / 2.0
        rng = np.random.default_rng(20260825)
        x = rng.uniform(0.2, 0.8, 50)
        y = rng.uniform(0.2, 0.8, 50)
        z = eng.cell_point(x, y)

        def dpp(step):
            _, pp_plus, _, _ = eng.eval(z + step)
            _, pp_minus, _, _ = eng.eval(z - step)
            return (pp_plus - pp_minus) / (2.0 * step)

        def richardson(step):
            return (4.0 * dpp(step / 2.0) - dpp(step)) / 3.0

        h = 4e-3
        second = (16.0 * richardson(h / 2.0) - richardson(h)) / 15.0
        p, _, _, _ = eng.eval(z)
        max_dev = float(np.max(np.abs(second - 6.0 * p**2 - expected)))
        ok = ok and max_dev < 1e-8
        rows.append({"tau": str(tau), "max_dev": max_dev})
    return ok, {"cases": rows}


def _c8_derivative_zero_sets():
    """For the derivative-coupled witness pair: f' has no zeros in the tall
    window, g' has exactly {0, +-i pi, +-2 i pi}, all simple, and the zero
    sets form a proper subset relation counting multiplicity."""
    fam = build_family("corollary")
    window = ScanWindow(-1.0, 1.0, -7.0, 7.0)
    rf = zero_scan(differentiate(fam.f), window)
    rg = zero_scan(differentiate(fam.g), window)
    expected = sorted((0.0, k * math.pi) for k in (-2, -1, 0, 1, 2))
    # sort by the rounded location: the raw real parts are ~1e-14 noise
    got = sorted(
        ((z.re, z.im) for z in rg.zeros),
        key=lambda t: (round(t[0], 6), round(t[1], 6)),
    )
    locations_ok = len(got) == len(expected) and all(
        abs(a - c) < 1e-9 and abs(b - d) < 1e-9
        for (a, b), (c, d) in zip(got, expected)
    )
    simple = all(z.multiplicity == 1 for z in rg.zeros)
    cmp = zero_set_compare(rf, rg, relation="subset", mode="counting")
    ok = (
        len(rf.zeros) == 0
        and rf.reconciled
        and rg.reconciled
        and locations_ok
        and simple
        and cmp.verdict is True
        and cmp.proper is True
    )
    return ok, {
        "f_prime_zeros": len(rf.zeros),
        "g_prime_zeros": [(z.re, z.im, z.multiplicity) for z in rg.zeros],
        "subset_counting": cmp.verdict,
        "proper": cmp.proper,
        "witnesses": [(w["re"], w["im"]) for w in cmp.proper_witnesses],
    }


def _cubic_pole_terms(tau):
    """(exponent, coefficient) terms of H1 and Q, exactly: each series' lowest
    nonzero term, then H1's at s^-4, s^-2, s^0 and Q's at s^-10.

    V(s) = 4^(1/3) wp(4^(1/6) s) is wp on the invariants (-4k, -4l), with k
    and l from ``tau_cubic_coefficients`` (homogeneity).  In V, H1 is
    V^3 + kV + l - 9(-tau V + 12 + 3 tau^3)^2 and H2 is 4Q / 4^(4/3) for
    Q = (V'^2 - (V + 9 tau^2) V'')^2 / 4 - 1296 (tau^3 + 1)^2 V'^2.  As
    wp^3 = V^3 / 4 and wp^6 = V^6 / 16, H1/wp^3 -> 4 and H2/wp^6 -> 4 * 4^(2/3)
    say that the lowest terms are (-6, 1) and (-12, 1).  docs/family_catalog.md
    gives H1 and H2 in wp."""
    t = RationalComplex.coerce(tau)
    k, l = tau_cubic_coefficients(t)
    order = 8
    v = wp_series(-4 * k, -4 * l, order)
    dv = v.differentiate()
    ddv = dv.differentiate()
    a = v.scale(-t) + LaurentSeries.constant(12 + 3 * t**3, order)
    h1 = v * v * v + v.scale(k) + LaurentSeries.constant(l, order) - (a * a).scale(9)
    bracket = dv * dv - (v + LaurentSeries.constant(9 * t * t, order)) * ddv
    q = (bracket * bracket).scale(Fraction(1, 4)) - (dv * dv).scale(1296 * (t**3 + 1) ** 2)
    return _pole_terms(h1, (-4, -2, 0)), _pole_terms(q, (-10,))


def _pole_terms(series, exponents):
    """The series' lowest nonzero (exponent, coefficient) term, then its
    terms at ``exponents``; a term below the expected pole shows first."""
    return series.leading_terms(1) + [(e, series.coefficient(e)) for e in exponents]


def _c9_pole_limits():
    """The near-pole limits H1/wp^3 -> 4 and H2/wp^6 -> 4 * 4^(2/3) hold
    exactly for two parameter values, and the next terms of H1 and Q (see
    ``_cubic_pole_terms``) carry the cubic's coefficients, written here apart
    from the family: k = 216 tau - 27 tau^4, l = 54 tau^6 + 1080 tau^3 - 432."""
    one = RationalComplex(1)
    rows = []
    ok = True
    for t in (RationalComplex(0), RationalComplex(Fraction(3, 10), Fraction(1, 5))):
        k = 216 * t - 27 * t**4
        l = 54 * t**6 + 1080 * t**3 - 432
        want = [(-6, one), (-4, -9 * t * t), (-2, (1512 * t + 216 * t**4) / 5),
                (0, 4 * l / 7 + 18 * t * t * k / 5 - 9 * (12 + 3 * t**3) ** 2),
                (-12, one), (-10, 54 * t * t)]
        h1, q = _cubic_pole_terms(t)
        ok = ok and h1 + q == want
        rows.append({"tau": str(t), "h1": [[e, str(c)] for e, c in h1],
                     "q": [[e, str(c)] for e, c in q]})
    return ok, {"cases": rows}


def _c10_determinism():
    """Two independent runs of the same scan serialize to byte-identical JSON
    and CSV."""
    cmd = "acceptance determinism probe"
    texts = []
    csvs = []
    for _ in range(2):
        rep = residual_scan(build_family("case2"), keep_samples=True)
        texts.append(canonical_json(scan_payload(rep, __version__, cmd)))
        csvs.append(points_csv(rep.samples))
    ok = texts[0] == texts[1] and csvs[0] == csvs[1]
    return ok, {
        "json_bytes": len(texts[0].encode()),
        "csv_bytes": len(csvs[0].encode()),
        "identical": ok,
    }


_CRITERIA = (
    (1, "exact cubic-law series vanish (three invariant pairs)", _c1_exact_ode_series),
    (2, "lattice engine: residual, periodicity, half-period", _c2_engine_checks),
    (3, "ZERO families certify and scan clean in both slots", _c3_zero_families_certify_and_scan),
    (4, "NONZERO families: exact coefficients and failing scans", _c4_nonzero_families),
    (5, "discriminant brace form equals factored form exactly", _c5_discriminant_identity),
    (6, "differentiated-equation scans pass for ZERO families", _c6_derivative_identity_scans),
    (7, "second-derivative offset constant to 1e-8", _c7_second_derivative_offset),
    (8, "derivative zero sets and proper subset relation", _c8_derivative_zero_sets),
    (9, "near-pole limits are exact lowest Laurent terms", _c9_pole_limits),
    (10, "byte-identical reports and < 60 s wall time", _c10_determinism),
)

RUNTIME_BUDGET_SECONDS = 60.0


def run_all() -> SuiteResult:
    """Run every acceptance criterion and collect results.  Criterion 10
    additionally requires the whole run to finish inside the runtime
    budget."""
    t_start = time.perf_counter()
    results = []
    for cid, label, fn in _CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(
            CriterionResult(cid, label, passed, time.perf_counter() - t0, details)
        )
    total = time.perf_counter() - t_start
    for i, res in enumerate(results):
        if res.cid == 10:
            within = total <= RUNTIME_BUDGET_SECONDS
            details = dict(res.details)
            details["total_elapsed_seconds"] = total
            details["runtime_budget_seconds"] = RUNTIME_BUDGET_SECONDS
            results[i] = CriterionResult(
                res.cid, res.label, res.passed and within, res.elapsed, details
            )
    return SuiteResult(tuple(results), total)
