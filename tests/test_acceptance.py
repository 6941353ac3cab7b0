"""The ten gate criteria, run once per session and reported one test each.

The heavy lifting lives in fermatlab.acceptance so the same checks are
reachable from `fermatlab suite --acceptance`; here each criterion becomes
its own test for readable reporting, and the details dict is surfaced on
failure.
"""

from fractions import Fraction

import pytest

from fermatlab import acceptance
from fermatlab.acceptance import RUNTIME_BUDGET_SECONDS
from fermatlab.families import CATALOG, build_family
from fermatlab.scalars import RationalComplex
from fermatlab.series import LaurentSeries, wp_series
from fermatlab.wp import tau_cubic_coefficients

CRITERION_IDS = list(range(1, 11))


def result_for(suite, cid):
    for res in suite.results:
        if res.cid == cid:
            return res
    raise AssertionError(f"criterion {cid} missing from the suite run")


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(acceptance_suite, cid):
    res = result_for(acceptance_suite, cid)
    assert res.passed, f"criterion {cid} ({res.label}) failed: {res.details}"


def test_suite_is_complete(acceptance_suite):
    assert sorted(r.cid for r in acceptance_suite.results) == CRITERION_IDS
    assert acceptance_suite.all_passed


def test_suite_runtime_budget(acceptance_suite):
    assert acceptance_suite.total_elapsed <= RUNTIME_BUDGET_SECONDS


#: the keys of each criterion's family rows that are not build parameters
_RESULT_KEYS = {
    3: {"family", "verdict", "scan_w", "p95_w", "scan_exp", "p95_exp"},
    4: {"family", "verdict", "coeffs", "scan"},
    6: {"family", "scan", "p95"},
}


@pytest.mark.parametrize("cid, verdict", [(3, "ZERO"), (4, "NONZERO"), (6, "ZERO")])
def test_criteria_cover_the_catalog(acceptance_suite, cid, verdict):
    """Criteria 3, 4 and 6 list, in table order, exactly the catalog rows
    of their verdict (criterion 6 those of power-sum kind)."""
    want = [
        (fid, {k: str(v) for k, v in params.items()})
        for _, fid, params, expected in CATALOG
        if expected == verdict
        and (cid != 6 or build_family(fid, **params).kind in ("fermat", "corollary"))
    ]
    rows = result_for(acceptance_suite, cid).details["families"]
    got = [
        (row["family"], {k: str(v) for k, v in row.items() if k not in _RESULT_KEYS[cid]})
        for row in rows
    ]
    assert got == want


# -- criterion 9: the cubic family's near-pole limits, exactly ----------------

ONE = RationalComplex(1)
TAUS = {"0": 0, "3/10+1/5i": RationalComplex(Fraction(3, 10), Fraction(1, 5)), "1": 1}

#: H1 at s^-6, s^-4, s^-2, s^0 and Q at s^-12, s^-10; H1's s^-4 term is
#: -9 tau^2 and Q's s^-10 term is 54 tau^2
POLE_TERMS = {
    "0": (["1", "0", "0", "-10800/7"], ["1", "0"]),
    "3/10+1/5i": (
        ["1", "-9/20-27/25i", "563787/6250+38124/625i",
         "-10844945901/7000000+301631499/8750000i"],
        ["1", "27/10+162/25i"],
    ),
    "1": (["1", "-9", "1728/5", "-33021/35"], ["1", "54"]),
}


@pytest.mark.parametrize("tau", list(TAUS.values()), ids=list(TAUS))
def test_cubic_pole_limits_are_exact(tau):
    h1, q = acceptance._cubic_pole_terms(tau)
    assert [e for e, _ in h1] == [-6, -4, -2, 0] and [e for e, _ in q] == [-12, -10]
    assert ([str(c) for _, c in h1], [str(c) for _, c in q]) == POLE_TERMS[str(tau)]


def test_pole_terms_start_at_the_lowest_term():
    """A term below s^-6 is reported first even where the s^-6 coefficient
    is still 1, so criterion 9's exponents certify the lowest terms."""
    series = LaurentSeries.make(-8, [5, 0, 1] + [0] * 6)  # 5 s^-8 + s^-6, through s^0
    assert acceptance._pole_terms(series, (-6, -4)) == [
        (-8, RationalComplex(5)), (-6, ONE), (-4, RationalComplex(0))
    ]


def _lowest_q(tau, scale):
    """Lowest term of criterion 9's Q with V'^2 scaled by ``scale`` in its
    bracket, built here apart from the criterion."""
    t = RationalComplex.coerce(tau)
    k, l = tau_cubic_coefficients(t)
    v = wp_series(-4 * k, -4 * l, 8)
    dv = v.differentiate()
    bracket = (dv * dv).scale(scale) - (v + LaurentSeries.constant(9 * t * t, 8)) * dv.differentiate()
    q = (bracket * bracket).scale(Fraction(1, 4)) - (dv * dv).scale(1296 * (t**3 + 1) ** 2)
    return q.leading_terms(1)[0]


@pytest.mark.parametrize("tau", list(TAUS.values()), ids=list(TAUS))
def test_cubic_pole_limit_control_fails(tau):
    """V'^2 ~ 4 s^-6 and (V + 9 tau^2) V'' ~ 6 s^-6.  Scaling V'^2 by 2 only
    flips the sign of the bracket's lowest term (8 - 6 = -(4 - 6)), which the
    square hides; a factor 3 gives (12 - 6)^2 / 4 = 9 and must fail."""
    assert _lowest_q(tau, 1) == acceptance._cubic_pole_terms(tau)[1][0]
    assert _lowest_q(tau, 2) == (-12, ONE)
    assert _lowest_q(tau, 3) == (-12, RationalComplex(9))


def test_criterion_9_fails_on_a_wrong_series(monkeypatch):
    real = acceptance.wp_series
    monkeypatch.setattr(
        acceptance, "wp_series", lambda g2, g3, order: real(g2, g3, order).scale(2)
    )
    passed, details = acceptance._c9_pole_limits()
    assert not passed
    assert details["cases"][0]["h1"][0] == [-6, "8"]


def test_criterion_9_reports_its_lowest_terms(acceptance_suite):
    assert result_for(acceptance_suite, 9).details == {
        "cases": [
            {
                "tau": "0",
                "h1": [[-6, "1"], [-4, "0"], [-2, "0"], [0, "-10800/7"]],
                "q": [[-12, "1"], [-10, "0"]],
            },
            {
                "tau": "3/10+1/5i",
                "h1": [
                    [-6, "1"],
                    [-4, "-9/20-27/25i"],
                    [-2, "563787/6250+38124/625i"],
                    [0, "-10844945901/7000000+301631499/8750000i"],
                ],
                "q": [[-12, "1"], [-10, "27/10+162/25i"]],
            },
        ]
    }
