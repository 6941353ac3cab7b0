"""Weierstrass layer: invariants, discriminant identity, lattice periods, and
the reduction-based evaluation engine."""

import cmath
import copy
import math
import random
import re
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab import wp
from fermatlab.errors import (
    DegenerateLatticeError,
    LatticeReductionError,
    PoleProximityError,
)
from fermatlab.scalars import RationalComplex
from fermatlab.series import wp_series
from fermatlab.wp import (
    Invariants,
    WeierstrassEngine,
    discriminant_of_tau,
    engine_for,
    invariants_from_case,
    invariants_from_tau,
    periods_from_invariants,
    tau_cubic_coefficients,
    tau_is_degenerate,
)

OMEGA1_01 = 1.5299540370571931
OMEGA1_0_432 = 0.5564563372611526

small = st.fractions(min_value=-3, max_value=3, max_denominator=8)
gaussian_taus = st.builds(RationalComplex, small, small).filter(
    lambda t: not tau_is_degenerate(t)
)


# -- invariants --------------------------------------------------------------


def test_case_invariants():
    for case in ("II", "III"):
        inv = invariants_from_case(case)
        assert (inv.g2, inv.g3) == (0, 1)
    inv4 = invariants_from_case("IV")
    assert (inv4.g2, inv4.g3) == (Fraction(-1, 12), Fraction(-1, 6))
    with pytest.raises(ValueError):
        invariants_from_case("V")


def test_degenerate_tau_detection():
    assert tau_is_degenerate(Fraction(-1))
    # the two non-real cube roots of -1 are only reachable as floats
    assert tau_is_degenerate(cmath.exp(1j * math.pi / 3))
    assert not tau_is_degenerate(Fraction(0))
    assert not tau_is_degenerate(Fraction(2))
    with pytest.raises(DegenerateLatticeError):
        invariants_from_tau(Fraction(-1))


@pytest.mark.parametrize(
    "build, name, limit",
    [
        (lambda: Invariants(1e101, 1), "g2", wp.MAX_INVARIANT),
        (lambda: Invariants(1, -1e101j), "g3", wp.MAX_INVARIANT),
        (lambda: tau_is_degenerate(2e16), "tau", wp.MAX_TAU),
        (lambda: tau_is_degenerate(Fraction(10**17)), "tau", wp.MAX_TAU),
        (lambda: discriminant_of_tau(-3e16j), "tau", wp.MAX_TAU),
    ],
)
def test_out_of_range_parameters_are_refused_by_name(build, name, limit):
    with pytest.raises(ValueError, match=f"^{name}=.*{re.escape(format(limit, 'g'))}"):
        build()


def test_largest_tau_keeps_invariants_in_range():
    """At MAX_TAU the invariants pass their own limit: the refusal is the
    relative discriminant test (disc / g3^2 ~ tau^-3), not the g3 limit."""
    with pytest.raises(DegenerateLatticeError):
        invariants_from_tau(wp.MAX_TAU)


def test_cubic_coefficients_consistent_with_invariants():
    """The exact cubic lives in the rescaled variable U = 4^(1/3) wp, so
    g2 = -4^(1/3) k while g3 = -l on the nose."""
    tau = Fraction(1)
    k, l = tau_cubic_coefficients(tau)
    inv = invariants_from_tau(tau)
    assert abs(inv.g2 + complex(k) * 4 ** (1 / 3)) < 1e-10 * abs(inv.g2)
    assert abs(inv.g3 + complex(l)) < 1e-10 * abs(inv.g3)
    with pytest.raises(ValueError, match="exact"):
        tau_cubic_coefficients(0.5)


# -- discriminant identity ---------------------------------------------------


def test_discriminant_anchor_values():
    d1 = discriminant_of_tau(Fraction(1))
    assert d1.exact and d1.brace_form == d1.factored_form
    assert (d1.brace_form + 40310784).is_zero

    d0 = discriminant_of_tau(0)
    assert (d0.factored_form + 5038848).is_zero

    dm1 = discriminant_of_tau(Fraction(-1))
    assert dm1.factored_form.is_zero and dm1.brace_form.is_zero


@given(gaussian_taus)
@settings(max_examples=50, deadline=None)
def test_discriminant_brace_equals_factored_exactly(tau):
    d = discriminant_of_tau(tau)
    assert d.exact
    assert d.difference.is_zero


def test_discriminant_inexact_tau():
    d = discriminant_of_tau(0.3 + 0.2j)
    assert not d.exact
    assert abs(d.difference) < 1e-6 * (1 + abs(d.brace_form))


def test_discriminant_matches_classical_formula():
    """The brace form is g2^3 - 27 g3^2 of the tau-family invariants; cubing
    kills the real cube root, so the float evaluation must agree."""
    for tau in (Fraction(1, 3), 0.7 - 0.4j):
        inv = invariants_from_tau(tau)
        classical = complex(inv.g2) ** 3 - 27 * complex(inv.g3) ** 2
        d = discriminant_of_tau(tau)
        assert abs(complex(d.brace_form) - classical) < 1e-9 * (1 + abs(classical))
    # tau = 0 has exact invariants (0, 432): the check is exact there
    d0 = discriminant_of_tau(0)
    assert (d0.brace_form - (0 - 27 * Fraction(432) ** 2)).is_zero


# -- periods -----------------------------------------------------------------


def quadrature_real_half_period(g2: float, g3: float, e1: float) -> float:
    """omega1 = int_{e1}^inf dt / sqrt(4 t^3 - g2 t - g3) via scipy, with the
    branch-point singularity removed by t = e1 + x^2 (dt = 2x dx)."""

    def integrand(x):
        if x == 0.0:
            return 2.0 / math.sqrt(12 * e1 * e1 - g2)
        t = e1 + x * x
        return 2.0 * x / math.sqrt(4 * t**3 - g2 * t - g3)

    val, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
    return val


def test_real_half_period_against_quadrature():
    e1 = 0.25 ** (1.0 / 3.0)  # largest root of 4t^3 - 1
    ref = quadrature_real_half_period(0.0, 1.0, e1)
    hp = periods_from_invariants(Invariants(0, 1))
    assert abs(hp.omega1 - OMEGA1_01) < 1e-12
    assert abs(hp.omega1.real - ref) < 1e-7


def test_half_period_scaling_law():
    """Scaling w -> c w maps (g2, g3) -> (g2/c^4, g3/c^6), omega -> c omega.
    (0, 432) is (0, 1) scaled by c = 432**(-1/6)."""
    hp = periods_from_invariants(Invariants(0, 432))
    assert abs(hp.omega1 - OMEGA1_0_432) < 1e-12
    assert abs(hp.omega1 * 432 ** (1 / 6) - OMEGA1_01) < 1e-10


def test_half_period_value_is_branch_point():
    eng = engine_for(Invariants(0, 432))
    hp = periods_from_invariants(Invariants(0, 432))
    p, pp, _ = eng.eval_scalar(hp.omega1)
    assert abs(p - 108 ** (1 / 3)) < 1e-10
    assert abs(pp) < 1e-9


@pytest.mark.parametrize("tau", [1500, -1500, 1500j, 3000, 5000, 5000j])
def test_near_degenerate_lattice_by_homogeneity(tau):
    """Large tau: the periods come from the invariants scaled by lam and are
    checked only in that frame.  The engine on the unscaled invariants must
    still satisfy the differential equation and agree with the scaled one
    through wp(z; g2, g3) = lam^2 wp(lam z; lam^-4 g2, lam^-6 g3)."""
    inv = invariants_from_tau(tau)
    g2, g3 = inv.g2c, inv.g3c
    lam = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
    eng = WeierstrassEngine(inv)
    scaled = WeierstrassEngine(Invariants(g2 / lam**4, g3 / lam**6))
    ticks = (np.arange(9) + 0.25) / 9 - 0.5  # a 9 x 9 grid that misses 0
    z = np.array([eng.cell_point(x, y) for x in ticks for y in ticks])
    p, pp, _, pole = eng.eval(z)
    assert not pole.any()
    ode = np.abs(pp * pp - (4 * p**3 - g2 * p - g3)) / (lam**2 + np.abs(p)) ** 3
    assert ode.max() < 1e-12
    ps = scaled.eval(lam * z)[0]
    assert (np.abs(p - lam**2 * ps) / (lam**2 + np.abs(p))).max() < 1e-9


def test_degenerate_invariants_rejected():
    with pytest.raises(DegenerateLatticeError):
        periods_from_invariants(Invariants(3, 1))  # g2^3 = 27 g3^2


# -- evaluation engine -------------------------------------------------------


@pytest.fixture(scope="module")
def eng01():
    return engine_for(Invariants(0, 1))


def test_engine_cache_returns_same_object(eng01):
    assert engine_for(Invariants(0, 1)) is eng01


def test_engine_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(wp, "_ENGINE_CACHE", OrderedDict())
    # g2 >= 4 keeps every pair away from the degenerate g2^3 = 27 g3^2
    invs = [Invariants(k + 4, 1) for k in range(wp.ENGINE_CACHE_CAPACITY + 1)]
    first, second = engine_for(invs[0]), engine_for(invs[1])
    for inv in invs[2:-1]:
        engine_for(inv)
    assert engine_for(invs[0]) is first  # the hit makes invs[0] the most recent
    engine_for(invs[-1])  # one engine too many evicts the oldest, invs[1]
    assert len(wp._ENGINE_CACHE) == wp.ENGINE_CACHE_CAPACITY
    assert engine_for(invs[0]) is first
    assert engine_for(invs[1]) is not second


def test_engine_matches_series_near_origin(eng01):
    series = wp_series(0, 1, 40)
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = complex(*rng.uniform(-0.2, 0.2, 2))
        if abs(z) < 0.05:
            continue
        p, _, _ = eng01.eval_scalar(z)
        partial = sum(complex(c) * z ** (series.low + k) for k, c in enumerate(series.coeffs))
        assert abs(p - partial) < 1e-10 * (1 + abs(p))


@pytest.mark.parametrize(
    "g2,g3",
    [
        (0, 1),
        (Fraction(-1, 12), Fraction(-1, 6)),
        (
            RationalComplex(Fraction(1, 3), Fraction(-2, 5)),
            RationalComplex(Fraction(-3, 4), Fraction(7, 2)),
        ),
    ],
)
def test_engine_coefficients_match_exact_series(g2, g3):
    # the engine's float recurrence against the exact one; rounding error
    # grows with the depth k of the recurrence, so c_k may be k ulps off
    coeffs = wp._coeff_array(complex(g2), complex(g3), 40)
    exact = wp_series(g2, g3, 40)
    assert len(coeffs) == 22
    for k in range(2, 22):
        want = complex(exact.coefficient(2 * k - 2))
        assert abs(coeffs[k] - want) <= k * np.finfo(float).eps * abs(want)


def test_engine_parity(eng01):
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = eng01.cell_point(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        p1, pp1, ppp1 = eng01.eval_scalar(z)
        p2, pp2, ppp2 = eng01.eval_scalar(-z)
        scale = 1 + abs(p1)
        assert abs(p1 - p2) < 1e-9 * scale
        assert abs(pp1 + pp2) < 1e-9 * (1 + abs(pp1))
        assert abs(ppp1 - ppp2) < 1e-9 * (1 + abs(ppp1))


def test_engine_periodicity(eng01):
    v1, v2 = eng01.basis
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = eng01.cell_point(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        p0, _, _ = eng01.eval_scalar(z)
        for shift in (v1, v2, 2 * v1 - v2):
            p1, _, _ = eng01.eval_scalar(z + shift)
            assert abs(p1 - p0) < 1e-7 * (1 + abs(p0))


def test_engine_ode_residual(eng01):
    rng = np.random.default_rng(17)
    pts = np.array(
        [eng01.cell_point(x, y) for x, y in rng.uniform(0.1, 0.9, (50, 2))]
    )
    res = eng01.ode_residual(pts)
    assert np.nanmax(np.abs(res)) < 1e-8


def test_engine_second_derivative_constant():
    tau = Fraction(1)
    eng = engine_for(invariants_from_tau(tau))
    const = -eng.invariants.g2c / 2
    k, _ = tau_cubic_coefficients(tau)
    assert abs(const - complex(k) * 4 ** (1 / 3) / 2) < 1e-10 * (1 + abs(const))
    rng = np.random.default_rng(19)
    for _ in range(10):
        z = eng.cell_point(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
        p, _, ppp = eng.eval_scalar(z)
        assert abs(ppp - 6 * p * p - const) < 1e-7 * (1 + abs(ppp))


def test_eval_masks_lattice_points(eng01):
    v1, v2 = eng01.basis
    p, pp, ppp, mask = eng01.eval(np.array([0.0, 0.4 + 0.2j, v1 + v2]))
    assert mask.tolist() == [True, False, True]
    assert np.isnan(p[0].real) and not np.isnan(p[1].real)


def _reference_eval(eng, z):
    """A frozen copy of the engine's eval as it was before its Horner steps
    ran in place, its duplication steps ran on the whole array when every
    point needs one, and its NaNs were written only at the poles."""
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    zr = eng.reduce(z).ravel()
    pole = np.abs(zr) < wp._POLE_RADIUS
    safe = np.where(pole, eng._halving_radius, zr)
    depth = np.ceil(
        np.log2(np.maximum(np.abs(safe) / eng._halving_radius, 1.0)) - 1e-12
    ).astype(int)
    depth = np.maximum(depth, 0)
    dmax = int(depth.max()) if depth.size else 0
    u = safe / np.exp2(depth)
    coeffs, g2 = eng._coeffs, eng._g2
    w = u * u
    acc = np.zeros_like(u)
    accd = np.zeros_like(u)
    for k in range(len(coeffs) - 1, 1, -1):
        acc = acc * w + coeffs[k]
        accd = accd * w + (k - 1) * coeffs[k]
    p = 1.0 / w + w * acc
    pp = -2.0 / (u * w) + 2.0 * u * accd
    for j in range(dmax):
        mask = depth > j
        if not mask.any():
            break
        pm, ppm = p[mask], pp[mask]
        ppp = 6.0 * pm * pm - g2 / 2.0
        a = ppp / ppm
        p[mask] = 0.25 * a * a - 2.0 * pm
        pp[mask] = 0.25 * a * (12.0 * pm * ppm * ppm - ppp * ppp) / (ppm * ppm) - ppm
    ppp = 6.0 * p * p - g2 / 2.0
    nanc = complex(float("nan"), float("nan"))
    p = np.where(pole, nanc, p)
    pp = np.where(pole, nanc, pp)
    ppp = np.where(pole, nanc, ppp)
    return p.reshape(shape), pp.reshape(shape), ppp.reshape(shape), pole.reshape(shape)


@pytest.mark.parametrize("inv", ["01", "IV", "cubic"])
def test_eval_matches_the_reference_bit_for_bit(inv):
    inv = {"01": Invariants(0, 1), "IV": invariants_from_case("IV"),
           "cubic": invariants_from_tau(RationalComplex(Fraction(3, 10), Fraction(1, 5)))}[inv]
    full = engine_for(inv)
    # half the halving radius: one duplication step more, down to depth 3
    short = copy.copy(full)
    short._halving_radius = 0.5 * full._halving_radius
    v1, v2 = full.basis
    rng = np.random.default_rng(11)
    cell = np.array([full.cell_point(x, y) for x, y in rng.uniform(-0.5, 0.5, (400, 2))])
    lattice = np.array([a * v1 + b * v2 for a in range(-2, 3) for b in range(-2, 3)])
    h = full._halving_radius
    ring = lambda lo, hi: rng.uniform(lo, hi, 300) * h * np.exp(2j * np.pi * rng.random(300))
    inputs = [
        cell,
        ring(0.01, 0.99),  # depth 0 only
        ring(1.01, 1.99),  # every point takes the first step
        np.concatenate([lattice, lattice + 3e-9, lattice - 5e-9j, lattice + 2e-8, cell[:50]]),
        cell[:60].reshape(6, 10),
        np.asarray(0.3 + 0.1j),
        np.asarray(v1 + v2),
        np.zeros(0, dtype=complex),
    ]
    depths = set()
    for eng in (full, short):
        for z in inputs:
            got, want = eng.eval(z), _reference_eval(eng, z)
            for a, b in zip(got, want):
                assert a.shape == b.shape == np.shape(z) and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            r = np.abs(eng.reduce(np.ravel(z)))
            depths.update(np.ceil(np.log2(np.maximum(r / eng._halving_radius, 1.0)) - 1e-12)
                          .astype(int).tolist())
    assert {0, 1, 2, 3} <= depths


def test_eval_scalar_raises_at_pole(eng01):
    with pytest.raises(PoleProximityError):
        eng01.eval_scalar(0.0)
    v1, _ = eng01.basis
    with pytest.raises(PoleProximityError):
        eng01.eval_scalar(3 * v1)


def test_reduce_idempotent_and_periodic(eng01):
    v1, v2 = eng01.basis
    rng = np.random.default_rng(23)
    zs = np.array([eng01.cell_point(x, y) for x, y in rng.uniform(-0.4, 1.4, (30, 2))])
    red = eng01.reduce(zs)
    again = eng01.reduce(red + 3 * v1 - 2 * v2)
    assert np.max(np.abs(again - red)) < 1e-9
    # reduced points are never longer than the points they came from
    assert np.all(np.abs(red) <= np.abs(zs) + 1e-12)


def test_reduce_refuses_coordinates_it_cannot_resolve(eng01):
    """Far from the origin the reduced point loses digits in proportion to
    its lattice coordinates; beyond 2^20, or where one is not finite, reduce
    refuses rather than return a wrong point."""
    v1, v2 = eng01.basis
    z = eng01.cell_point(0.3, -0.2)
    near = z + 25000 * v1 + 12000 * v2  # |near| is about 1e5
    assert 9e4 < abs(near) < 1.1e5
    assert abs(eng01.reduce(np.asarray([near]))[0] - z) < 1e-10
    p0, pp0, _ = eng01.eval_scalar(z)
    p1, pp1, _ = eng01.eval_scalar(near)
    assert abs(p1 - p0) < 1e-10 * abs(p0) and abs(pp1 - pp0) < 1e-10 * abs(pp0)
    eng01.reduce(np.asarray([(2**20 - 1) * v1]))
    for bad in ((2**20 + 1) * v1, 1e15, complex("nan"), complex("inf")):
        with pytest.raises(LatticeReductionError, match=r"coordinates up to 2\^20"):
            eng01.reduce(np.asarray([0.1, bad]))


def test_eval_unreduced_agrees_far_from_origin(eng01):
    v1, v2 = eng01.basis
    z = eng01.cell_point(0.3, 0.6)
    far = z + 5 * v1 - 3 * v2
    p0, pp0, _ = eng01.eval_scalar(z)
    # the validation route: no lattice reduction, the series at far / 2^depth
    depth = max(0, math.ceil(math.log2(max(abs(far) / (0.3 * abs(v1)), 1.0))))
    p1, pp1 = wp._ladder(np.array([far]), np.array([depth]), eng01._coeffs,
                         eng01.invariants.g2c)
    assert abs(p1[0] - p0) < 1e-6 * (1 + abs(p0))
    assert abs(pp1[0] - pp0) < 1e-6 * (1 + abs(pp0))


def test_validate_periods_refuses_wrong_half_periods(eng01):
    g2, g3 = eng01.invariants.g2c, eng01.invariants.g3c
    w1, w3 = eng01.periods.omega1, eng01.periods.omega3
    assert wp._validate_periods(g2, g3, w1, w3, eng01._coeffs)
    # 3 w1 and 2 w3 + w1 are not periods
    assert not wp._validate_periods(g2, g3, 1.5 * w1, w3, eng01._coeffs)
    assert not wp._validate_periods(g2, g3, w1, w3 + w1 / 2, eng01._coeffs)
    # a basis whose two sample points fall on the half periods w1 + 2 w3 and
    # w3, about which wp is even: only the odd wp' tells it apart
    a, b = np.linalg.solve(np.array([[0.1233, 0.2177], [-0.1812, 0.3791]], dtype=complex),
                           [w1 + 2 * w3, w3])
    assert not wp._validate_periods(g2, g3, complex(a), complex(b), eng01._coeffs)


def test_basis_lengths_for_equianharmonic(eng01):
    v1, v2 = eng01.basis
    # hexagonal lattice: both generators have the same length 2 * omega1
    assert abs(abs(v1) - 2 * OMEGA1_01) < 1e-9
    assert abs(abs(v2) - 2 * OMEGA1_01) < 1e-9


def test_equianharmonic_basis_is_pinned(eng01):
    assert eng01.basis == (
        1.5299540370571927 + 2.6499581254281748j,
        -1.5299540370571936 + 2.6499581254281748j,
    )


@pytest.mark.parametrize("g3", [7, 46, 67, 69])
def test_hexagonal_lattices_reduce(g3):
    """With g2 = 0 these invariants give a basis whose projection rounds to
    +-1/2 by turns; the reduction must still stop, on a valid lattice."""
    eng = WeierstrassEngine(Invariants(0, g3))
    v1, v2 = eng.basis
    assert abs(abs(v1) - abs(v2)) < 1e-9 * abs(v1)
    t = np.linspace(0.1, 0.9, 9)
    x, y = np.meshgrid(t, t)
    res = eng.ode_residual(eng.cell_point(x.ravel(), y.ravel()))
    assert np.max(res) < 1e-8
