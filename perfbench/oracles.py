"""Independent oracles for the benchmark's correctness checks.

Nothing here imports fermatlab: every expected value is derived again from
the mathematics, with mpmath, sympy and fractions.

* wp and wp' for the invariants (0, 1) through Jacobi theta functions, with
  the real half period omega1 = Gamma(1/3)^3 / (4 pi) and the hexagonal
  second half period omega1 * e^(2 pi i / 3).
* Closed-form zero sets of the catalog derivatives on the benchmark windows.
* The Laurent coefficients of the quadratic family's -2 rho residual.
* The case-IV quartic, recomputed from the D +/- M factorization.
* Symbolic zero checks of the exp identities (sympy, imported lazily and
  normally run in a child process so it never shows in the benchmark's
  memory figures).

Run ``python3 perfbench/oracles.py symbolic '<json>'`` to print the
symbolic checks for a JSON spec ``{"rhos": [...], "ms": [...]}``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from math import factorial, isqrt

import mpmath as mp

# ---------------------------------------------------------------------------
# wp for invariants (0, 1) through theta functions.
# ---------------------------------------------------------------------------


class EquianharmonicWp:
    """wp(z; 0, 1) and wp'(z; 0, 1) from theta functions (DLMF 23.6)."""

    def __init__(self, dps: int = 30):
        self.dps = dps
        with mp.workdps(dps):
            self.omega1 = mp.gamma(mp.mpf(1) / 3) ** 3 / (4 * mp.pi)
            self.omega3 = self.omega1 * mp.expjpi(mp.mpf(2) / 3)
            tau = self.omega3 / self.omega1
            self.q = mp.expjpi(tau)
            t2 = mp.jtheta(2, 0, self.q)
            t3 = mp.jtheta(3, 0, self.q)
            t4 = mp.jtheta(4, 0, self.q)
            self._k = mp.pi / (2 * self.omega1)
            self._a2 = (self._k * t3 * t4) ** 2
            self.e1 = self._k**2 / 3 * (t2**4 + 2 * t4**4)

    def lattice_basis(self) -> tuple[complex, complex]:
        return complex(2 * self.omega1), complex(2 * self.omega3)

    def __call__(self, z) -> tuple[complex, complex]:
        """(wp(z), wp'(z)) as Python complex numbers."""
        with mp.workdps(self.dps):
            v = self._k * mp.mpc(z)
            th1 = mp.jtheta(1, v, self.q)
            th2 = mp.jtheta(2, v, self.q)
            dth1 = mp.jtheta(1, v, self.q, 1)
            dth2 = mp.jtheta(2, v, self.q, 1)
            s = th2 / th1
            ds = (dth2 * th1 - th2 * dth1) / th1**2
            p = self.e1 + self._a2 * s * s
            pp = 2 * self._a2 * s * ds * self._k
            return complex(p), complex(pp)

    def lattice_points(self, re_min, re_max, im_min, im_max) -> list[complex]:
        """Lattice points 2 m omega1 + 2 n omega3 inside the rectangle."""
        return self._points(re_min, re_max, im_min, im_max, half=False)

    def half_periods(self, re_min, re_max, im_min, im_max) -> list[complex]:
        """Half-lattice points (m omega1 + n omega3, not both m, n even)."""
        return self._points(re_min, re_max, im_min, im_max, half=True)

    def _points(self, re_min, re_max, im_min, im_max, half: bool) -> list[complex]:
        w1, w3 = complex(self.omega1), complex(self.omega3)
        reach = int(math.ceil(2 * max(abs(re_min), abs(re_max), abs(im_min), abs(im_max))
                              / abs(w3.imag))) + 4
        out = []
        for m in range(-3 * reach, 3 * reach + 1):
            for n in range(-reach, reach + 1):
                even = m % 2 == 0 and n % 2 == 0
                if even == half:
                    continue
                z = m * w1 + n * w3
                if re_min <= z.real <= re_max and im_min <= z.imag <= im_max:
                    out.append(z)
        return sorted(out, key=lambda c: (round(c.real, 9), round(c.imag, 9)))

    def distance_to_lattice(self, z: complex) -> float:
        r = 4.0
        pts = self.lattice_points(z.real - r, z.real + r, z.imag - r, z.imag + r)
        return min(abs(z - p) for p in pts)


# ---------------------------------------------------------------------------
# Closed-form zero sets (simple zeros unless stated).
# ---------------------------------------------------------------------------


def _in_box(z: complex, box) -> bool:
    re_min, re_max, im_min, im_max = box
    return re_min < z.real < re_max and im_min < z.imag < im_max


def corollary_gprime_zeros(box) -> list[complex]:
    """g = h f' = -2 e^w / (1 + e^(2w)) = -sech w; g' vanishes where sinh w = 0."""
    return _imag_multiples(box, 0.0)


def corollary_fprime_zeros(box) -> list[complex]:
    """f = -tanh w, f' = -sech^2 w: no zeros anywhere."""
    return []


def case1_fprime_zeros(box) -> list[complex]:
    """With a = e^w the circle pair is f = -tanh w: no zeros of f'."""
    return []


def case1_gprime_zeros(box) -> list[complex]:
    """g = 2 e^w / (1 + e^(2w)) = sech w: g' = 0 where sinh w = 0."""
    return _imag_multiples(box, 0.0)


def quadratic_fprime_zeros(rho: Fraction, box) -> list[complex]:
    """f' = 0 where e^(2w) = -rho1/rho2: w = ln(r)/2 + i pi (k + 1/2)."""
    r = quadratic_constants(rho)[2]
    return _imag_multiples(box, 0.5 * math.log(float(r)), offset=0.5)


def quadratic_gprime_zeros(rho: Fraction, box) -> list[complex]:
    """g' = 0 where e^(2w) = -1: w = i pi (k + 1/2)."""
    return _imag_multiples(box, 0.0, offset=0.5)


def tanh_sech_poles(box) -> list[complex]:
    """Poles of tanh w and sech w, where 1 + e^(2w) = 0: w = i pi (k + 1/2).

    The corollary and case1 derivatives are rational in e^w, and e^w never
    vanishes, so these are the only points where a cleared denominator of
    theirs can vanish: the only places a numerator zero can be cancelled.
    The quadratic derivatives have powers of e^w alone below the line, so
    they have no such points."""
    return _imag_multiples(box, 0.0, offset=0.5)


def _imag_multiples(box, re: float, offset: float = 0.0) -> list[complex]:
    out = []
    for k in range(-20, 21):
        z = complex(re, math.pi * (k + offset))
        if _in_box(z, box):
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# Exact constants of the quadratic family and its -2 rho residual.
# ---------------------------------------------------------------------------


def _exact_sqrt(x: Fraction) -> Fraction:
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        raise ValueError(f"{x} is not the square of a rational")
    return Fraction(n, d)


def quadratic_constants(rho: Fraction):
    """(rho1, rho2, r = rho1/rho2, d = rho1 - rho2) with rho1,2 = rho +/- sqrt(rho^2 - 1)."""
    root = _exact_sqrt(rho * rho - 1)
    rho1, rho2 = rho + root, rho - root
    return rho1, rho2, rho1 / rho2, rho1 - rho2


def quadratic_minus_coefficients(rho: Fraction, count: int) -> list[tuple[int, Fraction]]:
    """Leading (exponent, coefficient) pairs of f^2 - 2 rho f g + g^2 - 1 = -4 rho f g
    at h = e^w: c_n = -4 rho (2^n + r (-2)^n) / (n! (1 - r) d), n >= 1."""
    _, _, r, d = quadratic_constants(rho)
    out = []
    n = 1
    while len(out) < count:
        c = -4 * rho * (2**n + r * (-2) ** n) / (factorial(n) * (1 - r) * d)
        if c:
            out.append((n, c))
        n += 1
    return out


# ---------------------------------------------------------------------------
# The case-IV quartic from the D +/- M factorization.
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    out = [x + sign * y for x, y in zip(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return out


def case_iv_quartic(variant: int) -> list[Fraction]:
    """Sign-normalized residual of the printed case-IV pair, descending degree.

    D = 4P^3 + P/12 + 1/6 is the ODE cubic, N = -4P^3 + P/12 + 1/3 and
    M = 4P^3 - P/12 - 1/3.  Variant 1 clears to (N - D)(N + D) + 16 P^4,
    variant 2 to (D - M)(D + M) - 16 P^4 (zeta^4 = 1)."""
    third, twelfth, sixth = Fraction(1, 3), Fraction(1, 12), Fraction(1, 6)
    d = [sixth, twelfth, Fraction(0), Fraction(4)]
    p4 = [Fraction(0)] * 4 + [Fraction(16)]
    if variant == 1:
        n = [third, twelfth, Fraction(0), Fraction(-4)]
        res = _poly_add(_poly_mul(_poly_add(n, d, -1), _poly_add(n, d)), p4)
    elif variant == 2:
        m = [-third, -twelfth, Fraction(0), Fraction(4)]
        res = _poly_add(_poly_mul(_poly_add(d, m, -1), _poly_add(d, m)), p4, -1)
    else:
        raise ValueError("variant must be 1 or 2")
    if res[-1] < 0:
        res = [-c for c in res]
    return list(reversed(res))


# ---------------------------------------------------------------------------
# Symbolic zero checks of the exp identities.
# ---------------------------------------------------------------------------


def symbolic_checks(rhos, ms) -> dict:
    """Exact sympy simplification of each exp identity in E = e^w.

    Returns {name: True} when the residual cancels to 0 identically."""
    import sympy as sp

    e = sp.Symbol("E", nonzero=True)
    one = sp.Integer(1)

    def d_dw(expr):  # d/dw = E d/dE for E = e^w
        return e * sp.diff(expr, e)

    out = {}
    for rho in rhos:
        rho_s = sp.Rational(rho)
        root = sp.sqrt(rho_s**2 - 1)
        if not root.is_Rational:
            raise ValueError(f"sqrt(rho^2 - 1) is irrational for rho = {rho}")
        rho1, rho2 = rho_s + root, rho_s - root
        r = rho1 / rho2
        f = (e**2 - r) / ((1 - r) * e)
        g = (e**2 - 1) / ((rho1 - rho2) * e)
        out[f"quadratic-plus:{rho}"] = sp.cancel(f**2 + 2 * rho_s * f * g + g**2 - 1) == 0
        minus = sp.cancel(f**2 - 2 * rho_s * f * g + g**2 - 1 + 4 * rho_s * f * g)
        out[f"quadratic-minus-is-4rhofg:{rho}"] = minus == 0
    out["unit-unit"] = sp.cancel(one / (1 + e) + e / (1 + e) - 1) == 0
    for m in ms:
        out[f"m-one:{m}"] = sp.cancel(e**m + (1 - e**m) - 1) == 0
    f = (1 - e**2) / (1 + e**2)
    h = (1 + e**2) / (2 * e)
    out["corollary"] = sp.cancel(f**2 + (h * d_dw(f)) ** 2 - 1) == 0
    return {k: bool(v) for k, v in out.items()}


def symbolic_checks_in_child(rhos, ms) -> dict:
    """``symbolic_checks`` run in a child interpreter, so that sympy's import
    never reaches the benchmark process's peak memory."""
    spec = json.dumps({"rhos": [str(r) for r in rhos], "ms": list(ms)})
    done = subprocess.run([sys.executable, __file__, "symbolic", spec],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def main(argv) -> int:
    if len(argv) != 3 or argv[1] != "symbolic":
        print("usage: oracles.py symbolic '{\"rhos\": [...], \"ms\": [...]}'", file=sys.stderr)
        return 2
    spec = json.loads(argv[2])
    print(json.dumps(symbolic_checks(spec["rhos"], spec["ms"]), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
