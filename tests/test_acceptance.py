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


# -- criterion 9: the cubic family's near-pole limits, exactly ----------------

ONE = RationalComplex(1)
TAUS = {"0": 0, "3/10+1/5i": RationalComplex(Fraction(3, 10), Fraction(1, 5)), "1": 1}


@pytest.mark.parametrize("tau", list(TAUS.values()), ids=list(TAUS))
def test_cubic_pole_limits_are_exact(tau):
    assert acceptance._cubic_pole_terms(tau) == ((-6, ONE), (-12, ONE))


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
    assert _lowest_q(tau, 1) == acceptance._cubic_pole_terms(tau)[1]
    assert _lowest_q(tau, 2) == (-12, ONE)
    assert _lowest_q(tau, 3) == (-12, RationalComplex(9))


def test_criterion_9_fails_on_a_wrong_series(monkeypatch):
    real = acceptance.wp_series
    monkeypatch.setattr(
        acceptance, "wp_series", lambda g2, g3, order: real(g2, g3, order).scale(2)
    )
    passed, details = acceptance._c9_pole_limits()
    assert not passed
    assert details["cases"][0]["h1_lowest"] == [-6, "8"]


def test_criterion_9_reports_its_lowest_terms(acceptance_suite):
    lowest = {"h1_lowest": [-6, "1"], "q_lowest": [-12, "1"]}
    assert result_for(acceptance_suite, 9).details == {
        "cases": [{"tau": "0", **lowest}, {"tau": "3/10+1/5i", **lowest}]
    }
