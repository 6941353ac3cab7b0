"""Tests of the benchmark's oracles against the mathematics they encode.

    python3 -m pytest -q perfbench

They check each oracle by a second route (series expansion, quadrature,
numeric differentiation), never against fermatlab.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
import sympy as sp

import oracles

HERE = Path(__file__).resolve().parent
TALL = (-1.0, 1.0, -7.0, 7.0)
CELL = (0.2, 3.0, 0.2, 2.8)


@pytest.fixture(scope="module")
def wp():
    return oracles.EquianharmonicWp()


def test_oracles_do_not_import_fermatlab():
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import oracles; " \
           "print('fermatlab' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("z", [0.3 + 0.2j, 1.1 - 0.7j, -1.9 + 1.3j, 0.05 + 0.9j])
def test_wp_solves_its_differential_equation(wp, z):
    p, pp = wp(z)
    assert abs(pp * pp - (4 * p**3 - 1)) <= 1e-12 * (1 + abs(p)) ** 3


@pytest.mark.parametrize("z", [0.3 + 0.2j, -1.2 + 0.4j])
def test_wp_derivative_matches_numeric_derivative(wp, z):
    def central(h):
        return (wp(z + h)[0] - wp(z - h)[0]) / (2 * h)

    numeric = (4 * central(1e-4) - central(2e-4)) / 3  # Richardson, error O(h^4)
    assert abs(numeric - wp(z)[1]) <= 1e-8 * (1 + abs(wp(z)[1]))


def test_wp_is_periodic_and_has_a_double_pole(wp):
    v1, v2 = wp.lattice_basis()
    z = 0.37 - 0.21j
    for shift in (v1, v2, v1 + v2):
        assert abs(wp(z + shift)[0] - wp(z)[0]) <= 1e-12 * abs(wp(z)[0])
    # wp(z) = z^-2 + g3/28 z^4 + ... for g2 = 0, g3 = 1
    small = 0.01 + 0.02j
    assert abs(wp(small)[0] - small**-2 - small**4 / 28) <= 1e-12


def test_real_half_period_equals_the_period_integral(wp):
    with mp.workdps(30):
        e1 = mp.mpf(4) ** (-mp.mpf(1) / 3)
        integral = mp.quad(lambda t: 1 / mp.sqrt(4 * t**3 - 1), [e1, 2, mp.inf])
        assert abs(integral - wp.omega1) < 1e-12


def test_wp_prime_vanishes_at_half_periods_and_lattice_is_hexagonal(wp):
    halves = wp.half_periods(*CELL)
    assert len(halves) == 2
    for h in halves:
        assert abs(wp(h)[1]) < 1e-12
    v1, v2 = wp.lattice_basis()
    assert abs(abs(v1) - abs(v2)) < 1e-12
    assert len(wp.lattice_points(*CELL)) == 1


def test_closed_form_zero_sets_are_zeros_of_the_derivatives():
    e = mp.exp
    rho = Fraction(13, 12)
    _, _, r, d = oracles.quadratic_constants(rho)
    r, d = float(r), float(d)
    funcs = {
        "corollary_g": (lambda w: -2 * e(w) / (1 + e(2 * w)), oracles.corollary_gprime_zeros(TALL)),
        "case1_g": (lambda w: 2 * e(w) / (1 + e(2 * w)), oracles.case1_gprime_zeros(TALL)),
        "quad_f": (lambda w: (e(2 * w) - r) / ((1 - r) * e(w)),
                   oracles.quadratic_fprime_zeros(rho, TALL)),
        "quad_g": (lambda w: (e(2 * w) - 1) / (d * e(w)), oracles.quadratic_gprime_zeros(rho, TALL)),
    }
    for name, (f, zeros) in funcs.items():
        assert zeros, name
        for z in zeros:
            assert abs(complex(mp.diff(f, mp.mpc(z)))) < 1e-10, (name, z)
    assert len(oracles.corollary_gprime_zeros(TALL)) == 5
    assert len(oracles.quadratic_gprime_zeros(rho, TALL)) == 4


def test_tanh_sech_poles_are_the_poles_of_the_corollary_pair():
    sites = oracles.tanh_sech_poles(TALL)
    assert len(sites) == 4
    for z in sites:
        w = mp.mpc(z)
        assert abs(complex(1 + mp.exp(2 * w))) < 1e-14
        # sech has a simple pole: (w - z) sech w stays finite and nonzero
        near = w + mp.mpf("1e-8")
        residue = complex((near - w) / mp.cosh(near))
        assert 0.5 < abs(residue) < 2.0


def test_fprime_of_tanh_has_no_zeros_by_argument_principle():
    # f = -tanh w: f' = -sech^2 w never vanishes; its log-derivative
    # integrates to -(number of poles) = -2 * 4 around the tall window
    w_re, w_im = TALL[1], TALL[3]
    corners = [complex(-w_re, -w_im), complex(w_re, -w_im), complex(w_re, w_im), complex(-w_re, w_im)]
    dlog = lambda w: -2 * mp.tanh(w)  # (sech^2)' / sech^2
    total = sum(mp.quad(dlog, [a, b]) for a, b in zip(corners, corners[1:] + corners[:1]))
    assert abs(total / (2j * mp.pi) - (-8)) < 1e-8
    assert oracles.corollary_fprime_zeros(TALL) == [] and oracles.case1_fprime_zeros(TALL) == []


@pytest.mark.parametrize("rho", [Fraction(5, 4), Fraction(-13, 12), Fraction(17, 8)])
def test_quadratic_minus_coefficients_match_series_expansion(rho):
    rho1, rho2, r, d = (sp.Rational(str(x)) for x in oracles.quadratic_constants(rho))
    w = sp.Symbol("w")
    f = (sp.exp(2 * w) - r) / ((1 - r) * sp.exp(w))
    g = (sp.exp(2 * w) - 1) / (d * sp.exp(w))
    rs = sp.Rational(str(rho))
    expansion = sp.series(f**2 - 2 * rs * f * g + g**2 - 1, w, 0, 5).removeO()
    want = [(n, Fraction(str(expansion.coeff(w, n)))) for n in range(1, 5)]
    assert oracles.quadratic_minus_coefficients(rho, 4) == want


def test_quadratic_minus_coefficients_reproduce_the_catalog_example():
    got = oracles.quadratic_minus_coefficients(Fraction(5, 4), 4)
    assert got == [(1, Fraction(-20, 3)), (2, Fraction(100, 9)), (3, Fraction(-40, 9)),
                   (4, Fraction(100, 27))]


def test_case_iv_quartic_against_sympy_expansion():
    p = sp.Symbol("P")
    d = 4 * p**3 + p / 12 + sp.Rational(1, 6)
    n = -4 * p**3 + p / 12 + sp.Rational(1, 3)
    m = 4 * p**3 - p / 12 - sp.Rational(1, 3)
    for variant, expr in ((1, n**2 + 16 * p**4 - d**2), (2, d**2 - m**2 - 16 * p**4)):
        poly = sp.Poly(sp.expand(expr), p)
        coeffs = [Fraction(str(c)) for c in poly.all_coeffs()]
        if coeffs[0] < 0:
            coeffs = [-c for c in coeffs]
        assert oracles.case_iv_quartic(variant) == coeffs
    assert oracles.case_iv_quartic(1) == [Fraction(44, 3), -4, 0, Fraction(1, 36), Fraction(1, 12)]


def test_symbolic_checks_confirm_the_identities_in_a_child_process():
    got = oracles.symbolic_checks_in_child([Fraction(5, 4), Fraction(-13, 12)], [2, 3])
    assert got and all(got.values())
    assert set(got) >= {"unit-unit", "corollary", "m-one:2", "quadratic-plus:5/4",
                        "quadratic-minus-is-4rhofg:-13/12"}


def test_symbolic_checks_refuse_irrational_roots():
    with pytest.raises(ValueError):
        oracles.symbolic_checks(["2"], [])
