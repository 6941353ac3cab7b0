"""The four benchmark workloads.

Each workload draws its parameters from ``--seed`` alone (``random.Random``),
builds its fixed inputs in ``setup()`` (the part ``setup_s`` times in a fresh
interpreter), computes its expected outputs with the independent oracles in
``prepare()``, and yields one round of operations per call of ``round(k)``.
Every round of a workload holds the same operations in the same order, so a
run attempts whole rounds and every figure is a mix of fixed composition.

An operation is a program call (timed) plus a check of its output against
the oracles or against properties the method must have (not timed).  Checks
return a list of problems; an empty list means the output is correct.

Program functions are always looked up as module attributes at call time
(``verify.residual_scan``), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import fermatlab
from fermatlab import exprs, families, reports, scalars, series, verify, wp

TOL = 1e-8
# (p, q) with ln(p/q) < 1, so the quadratic f' zeros of every seed lie
# inside the tall zero-set window and cost the same
PYTHAGOREAN_PQ = ((2, 1), (3, 2), (4, 3), (5, 4), (5, 2), (5, 3))
ORDERS = (40, 80, 120)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


def _rng(seed: int, *stream) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + stream))


def _gaussian_rational(rng: random.Random, top: int = 6) -> scalars.RationalComplex:
    """(a/b) + (c/d) i with a, c nonzero: a zero part would make the exact
    arithmetic markedly cheaper for some seeds than for others."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))

    return scalars.RationalComplex(part(), part())


def _seeded_rho(rng: random.Random) -> Fraction:
    """rho = +/-(p^2 + q^2) / (2pq), for which sqrt(rho^2 - 1) is rational."""
    p, q = rng.choice(PYTHAGOREAN_PQ)
    return Fraction(p * p + q * q, 2 * p * q) * rng.choice((1, -1))


def _expect(cond: bool, problems: list, message: str) -> None:
    if not cond:
        problems.append(message)


def _scan_problems(rep, expect: str, points: int) -> list:
    """Verdict and counts of a residual or derivative scan report."""
    out = []
    _expect(rep.points_total == points, out, f"points_total {rep.points_total} != {points}")
    if expect == "PASS":
        _expect(rep.verdict == "PASS" and rep.p95_residual < TOL, out,
                f"expected PASS below {TOL}, got {rep.verdict} p95={rep.p95_residual:.3g}")
    elif expect == "FAIL":
        _expect(rep.verdict == "FAIL" and rep.p95_residual >= TOL, out,
                f"expected FAIL, got {rep.verdict} p95={rep.p95_residual:.3g}")
    else:  # a refuted family may also exhaust the exclusion budget
        _expect(rep.verdict in ("FAIL", "INCONCLUSIVE"), out, f"expected no PASS, got {rep.verdict}")
        if rep.verdict == "INCONCLUSIVE":
            _expect(rep.points_excluded > 0.2 * rep.points_total, out,
                    "INCONCLUSIVE within the exclusion budget")
    return out


# ---------------------------------------------------------------------------
# scan-dense: the engine-bound scanning path.
# ---------------------------------------------------------------------------


def _elliptic_residual(fid: str, eta_index: int, p: complex, x: complex) -> float:
    """Relative residual of case2 / case3 from independent wp, wp' values."""
    eta = cmath.exp(2j * math.pi * eta_index / 3)
    if fid == "case2":
        s = math.sqrt(3.0)
        f = (3 + s * x) / (6 * p)
        g = eta * (3 - s * x) / (6 * p)
        m, n = 3, 3
    else:
        f = 1j * x
        g = eta * 4.0 ** (1.0 / 3.0) * p
        m, n = 2, 3
    return abs(f**m + g**n - 1) / (1 + abs(f) ** m + abs(g) ** n)


class ScanDense:
    """Residual and derivative-identity scans on a 401 x 401 grid over [-2, 2]^2."""

    name = "scan-dense"
    GRID = 401
    SPOT_POINTS = 12

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        self.tau = _gaussian_rational(rng, 4)
        self.rho = _seeded_rho(rng)
        self.eta = rng.randrange(3)
        self.zeta = rng.randrange(4)
        self.spot_rng = _rng(seed, self.name, "spots")

    def setup(self) -> None:
        self.window = verify.ScanWindow(-2.0, 2.0, -2.0, 2.0, grid_density=100.0)
        build = families.build_family
        self.fams = {
            "case2": build("case2", eta_index=self.eta),
            "case3": build("case3", eta_index=self.eta),
            "cubic-tau": build("cubic", tau=self.tau),
            "cubic-0": build("cubic", tau=0),
            "case4": build("case4", variant=1, zeta_index=self.zeta),
            "quadratic-plus": build("quadratic", rho=self.rho, sign="plus"),
            "quadratic-minus": build("quadratic", rho=self.rho, sign="minus"),
            "corollary": build("corollary"),
            "unit-unit": build("unit-unit"),
        }
        # (check, family key, expected verdict)
        self.plan = [
            ("residual", "case2", "PASS"), ("derivative", "case2", "PASS"),
            ("residual", "case3", "PASS"), ("derivative", "case3", "PASS"),
            ("residual", "cubic-tau", "PASS"), ("residual", "cubic-0", "PASS"),
            ("residual", "case4", "FAIL"), ("derivative", "case4", "NOT-PASS"),
            ("residual", "quadratic-plus", "PASS"), ("residual", "quadratic-minus", "FAIL"),
            ("residual", "corollary", "PASS"), ("derivative", "corollary", "PASS"),
            ("residual", "unit-unit", "PASS"), ("derivative", "unit-unit", "PASS"),
        ]

    def prepare(self) -> None:
        from oracles import EquianharmonicWp

        self.oracle = EquianharmonicWp()
        self._oracle_cache = {}
        spots = []
        step = 4.0 / (self.GRID - 1)
        while len(spots) < self.SPOT_POINTS:
            i, j = self.spot_rng.randrange(self.GRID), self.spot_rng.randrange(self.GRID)
            z = complex(-2.0 + i * step, -2.0 + j * step)
            if self.oracle.distance_to_lattice(z) > 0.1:
                spots.append(z)
        self.spots = np.asarray(spots)
        self.spot_values = [self._wp(z) for z in spots]

    def _wp(self, z: complex):
        hit = self._oracle_cache.get(z)
        if hit is None:
            hit = self._oracle_cache[z] = self.oracle(z)
        return hit

    def _check_engine(self) -> list:
        """Engine for (0, 1) against the theta oracle at the seeded grid points."""
        out = []
        eng = wp.engine_for(wp.Invariants(0, 1))
        p, pp, _, _ = eng.eval(self.spots)
        for k, (po, ppo) in enumerate(self.spot_values):
            _expect(abs(p[k] - po) <= TOL * (1 + abs(po)) and abs(pp[k] - ppo) <= TOL * (1 + abs(ppo)),
                    out, f"engine wp at {self.spots[k]:.6g} is off the theta oracle")
        return out

    def _check_points(self, fid: str, rep) -> list:
        """The oracle's residual stays below tolerance at the seeded grid points
        and at the worst points the scan reported."""
        out = []
        zs = list(self.spots) + [complex(f["z_re"], f["z_im"]) for f in rep.failures]
        for z in zs:
            p, x = self._wp(complex(z))
            rel = _elliptic_residual(fid, self.eta, p, x)
            _expect(rel < TOL, out, f"{fid} oracle residual {rel:.3g} at {complex(z):.6g}")
        return out

    def round(self, k: int) -> list:
        ops = []
        points = self.GRID * self.GRID
        for check, key, expect in self.plan:
            fam = self.fams[key]
            if check == "residual":
                def call(fam=fam):
                    return verify.residual_scan(fam, self.window)
            else:
                def call(fam=fam):
                    return verify.derivative_identity_scan(fam, self.window)

            def checker(rep, key=key, check=check, expect=expect):
                out = _scan_problems(rep, expect, points)
                if key in ("case2", "case3") and check == "residual":
                    out += self._check_points(key, rep)
                    if key == "case2":
                        out += self._check_engine()
                return out

            ops.append(Op(f"{check}:{key}", call, checker))
        return ops


# ---------------------------------------------------------------------------
# exact-ladder: Laurent series over Q(i) at three orders.
# ---------------------------------------------------------------------------


class ExactLadder:
    """Series-route adjudication at orders 40, 80, 120, plus cubic-law series."""

    name = "exact-ladder"
    M = 3
    ODE_ORDER = 80

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        self.rho = _seeded_rho(rng)
        # two invariant pairs of equal cost: 15 adjudications + 2 series make
        # 17 operations a round, so the median falls on one kind of operation
        self.invariants = [(_gaussian_rational(rng, 4), _gaussian_rational(rng, 4))
                           for _ in range(2)]

    def setup(self) -> None:
        build = families.build_family
        self.fams = {
            "quadratic-plus": build("quadratic", rho=self.rho, sign="plus"),
            "quadratic-minus": build("quadratic", rho=self.rho, sign="minus"),
            "corollary": build("corollary"),
            "unit-unit": build("unit-unit"),
            "m-one": build("m-one", m=self.M),
        }

    def prepare(self) -> None:
        from oracles import quadratic_minus_coefficients, symbolic_checks_in_child

        self.symbolic = symbolic_checks_in_child([str(self.rho)], [self.M])
        self.minus_leading = quadratic_minus_coefficients(self.rho, 4)

    def _verdict_check(self, key: str):
        def check(v) -> list:
            out = []
            if key == "quadratic-minus":
                _expect(self.symbolic.get(f"quadratic-minus-is-4rhofg:{self.rho}") is True, out,
                        "symbolic oracle did not confirm the -4 rho f g residual")
                _expect(v.verdict == "NONZERO" and v.route == "series", out,
                        f"quadratic minus: {v.verdict} via {v.route}")
                got = [(k, Fraction(c)) for k, c in (v.series_leading or [])]
                _expect(got == self.minus_leading, out,
                        f"quadratic minus leading terms {v.series_leading} != oracle")
            else:
                name = {"quadratic-plus": f"quadratic-plus:{self.rho}",
                        "m-one": f"m-one:{self.M}"}.get(key, key)
                _expect(self.symbolic.get(name) is True, out, f"symbolic oracle for {name}")
                _expect(v.verdict == "ZERO" and v.route == "series", out,
                        f"{key}: {v.verdict} via {v.route}")
            return out

        return check

    @staticmethod
    def _ode_check(order: int):
        def check(res) -> list:
            out = []
            _expect(res.high >= order, out, f"ODE series truncated at {res.high} < {order}")
            nonzero = [res.low + i for i, c in enumerate(res.coeffs)
                       if res.low + i <= order and (c.re != 0 or c.im != 0)]
            _expect(not nonzero, out, f"ODE residual has terms at exponents {nonzero[:4]}")
            return out

        return check

    def round(self, k: int) -> list:
        ops = []
        for order in ORDERS:
            for key, fam in self.fams.items():
                ops.append(Op(f"adjudicate:{key}:o{order}",
                              lambda fam=fam, order=order: families.adjudicate(fam, order=order),
                              self._verdict_check(key)))
        for g2, g3 in self.invariants:
            ops.append(Op(f"ode-series:{g2}:{g3}:o{self.ODE_ORDER}",
                          lambda g2=g2, g3=g3: series.ode_residual_series(g2, g3, self.ODE_ORDER),
                          self._ode_check(self.ODE_ORDER)))
        return ops


# ---------------------------------------------------------------------------
# zero-sets: the argument-principle analyzer.
# ---------------------------------------------------------------------------


class ZeroSets:
    """zero_scan and zero_set_compare on the tall window and the cell window."""

    name = "zero-sets"
    TALL = (-1.0, 1.0, -7.0, 7.0)
    CELL = (0.2, 3.0, 0.2, 2.8)
    LOCATION_TOL = 1e-8

    def __init__(self, seed: int):
        self.rho = _seeded_rho(_rng(seed, self.name))

    def setup(self) -> None:
        d = exprs.differentiate
        build = families.build_family
        cor = build("corollary")
        quad = build("quadratic", rho=self.rho)
        circle = build("case1")
        self.tall = verify.ScanWindow(*self.TALL)
        self.cell = verify.ScanWindow(*self.CELL)
        eng = wp.engine_for(wp.Invariants(0, 1))
        self.targets = {
            "corollary-f'": (d(cor.f), self.tall),
            "corollary-g'": (d(cor.g), self.tall),
            "quadratic-f'": (d(quad.f), self.tall),
            "quadratic-g'": (d(quad.g), self.tall),
            "case1-f'": (d(circle.f), self.tall),
            "case1-g'": (d(circle.g), self.tall),
            "wp'": (exprs.WpPrime(eng, exprs.W), self.cell),
        }
        self.pairs = (("corollary-f'", "corollary-g'"), ("quadratic-f'", "quadratic-g'"),
                      ("case1-f'", "case1-g'"))

    def prepare(self) -> None:
        import oracles as o

        wpo = o.EquianharmonicWp()
        self.expected = {
            "corollary-f'": o.corollary_fprime_zeros(self.TALL),
            "corollary-g'": o.corollary_gprime_zeros(self.TALL),
            "quadratic-f'": o.quadratic_fprime_zeros(self.rho, self.TALL),
            "quadratic-g'": o.quadratic_gprime_zeros(self.rho, self.TALL),
            "case1-f'": o.case1_fprime_zeros(self.TALL),
            "case1-g'": o.case1_gprime_zeros(self.TALL),
            "wp'": wpo.half_periods(*self.CELL),
        }
        self.expected_poles = {key: [] for key in self.expected}
        self.expected_poles["wp'"] = wpo.lattice_points(*self.CELL)
        # where a numerator zero may be cancelled by the denominator
        self.cancel_sites = {key: [] for key in self.expected}
        for key in ("corollary-f'", "corollary-g'", "case1-f'", "case1-g'"):
            self.cancel_sites[key] = o.tanh_sech_poles(self.TALL)

    def _near(self, a: complex, b: complex) -> bool:
        return abs(a - b) <= self.LOCATION_TOL

    def _scan_check(self, key: str):
        def check(rep) -> list:
            out = []
            want = self.expected[key]
            got = [z.z for z in rep.zeros]
            _expect(len(got) == len(want) and all(
                any(self._near(g, w) for g in got) for w in want), out,
                f"{key}: zeros {got} != closed form {want}")
            _expect(all(z.multiplicity == 1 for z in rep.zeros), out, f"{key}: non-simple zero")
            poles = self.expected_poles[key]
            got_poles = [complex(p[0], p[1]) for p in rep.poles]
            _expect(len(got_poles) == len(poles) and all(
                any(self._near(g, w) for g in got_poles) for w in poles), out,
                f"{key}: poles {got_poles} != lattice points {poles}")
            _expect(all(p[2] == 3 for p in rep.poles), out, f"{key}: pole order is not 3")
            _expect(rep.reconciled, out, f"{key}: argument principle not reconciled")
            sites = self.cancel_sites[key]
            stray = [c.z for c in rep.cancelled if not any(self._near(c.z, s) for s in sites)]
            _expect(not stray, out, f"{key}: cancelled zeros {stray} off the closed-form sites")
            return out

        return check

    def _compare_check(self, a: str, b: str):
        want_a, want_b = self.expected[a], self.expected[b]
        subset = all(any(self._near(x, y) for y in want_b) for x in want_a)
        superset = all(any(self._near(y, x) for x in want_a) for y in want_b)

        def check(cmp) -> list:
            out = []
            _expect(cmp.verdict is subset, out, f"{a} subset of {b}: {cmp.verdict} != {subset}")
            if subset:
                _expect(cmp.proper is (not superset), out, f"{a} proper subset: {cmp.proper}")
            return out

        return check

    def round(self, k: int) -> list:
        results = {}
        ops = []
        for key, (expr, window) in self.targets.items():
            def call(key=key, expr=expr, window=window):
                results[key] = rep = verify.zero_scan(expr, window)
                return rep

            ops.append(Op(f"zero_scan:{key}", call, self._scan_check(key)))
        for a, b in self.pairs:
            ops.append(Op(f"compare:{a}:{b}",
                          lambda a=a, b=b: verify.zero_set_compare(
                              results[a], results[b], relation="subset", mode="counting"),
                          self._compare_check(a, b)))
        return ops


# ---------------------------------------------------------------------------
# param-sweep: build, adjudicate, scan and report, one job per parameter set.
# ---------------------------------------------------------------------------


class ParamSweep:
    """Whole jobs over the elliptic families and a stream of cubic couplings."""

    name = "param-sweep"
    FRESH_TAUS = 6  # distinct new couplings per round
    REPEATS = 2  # couplings of the same round asked for again (engine cache hits)
    COMMAND = "perfbench param-sweep"

    def __init__(self, seed: int):
        self.rng = _rng(seed, self.name)
        self.used = set()
        self.rounds = []  # couplings of each round drawn so far

    def setup(self) -> None:
        self.window = verify.ScanWindow()  # [-2, 2]^2 at 20 per unit: 81 x 81
        self.fixed = [("case2", {"eta_index": e}) for e in range(3)]
        self.fixed += [("case3", {"eta_index": e}) for e in range(3)]
        self.fixed += [("case5", {"eta_index": e}) for e in range(3)]
        self.fixed += [(fid, {"variant": v, "zeta_index": z})
                       for fid in ("case4", "case6") for v in (1, 2) for z in range(4)]

    def prepare(self) -> None:
        from oracles import case_iv_quartic

        self.quartic = {v: case_iv_quartic(v) for v in (1, 2)}

    def _taus(self, k: int) -> list:
        """Round k's couplings: fresh Gaussian rationals never drawn before in
        this run, then repeats of some of them.  Drawn in round order, so the
        sequence depends on the seed alone."""
        while len(self.rounds) <= k:
            fresh = []
            # the parts' range widens every 150 rounds (900 couplings), so
            # the pool of new couplings never runs out in a long run
            top = 6 + len(self.rounds) // 150
            while len(fresh) < self.FRESH_TAUS:
                tau = _gaussian_rational(self.rng, top)
                key = (tau.re, tau.im)
                if tau.is_zero or key in self.used or (tau**3 + 1).is_zero:
                    continue
                self.used.add(key)
                fresh.append(tau)
            self.rounds.append(fresh + self.rng.sample(fresh, self.REPEATS))
        return self.rounds[k]

    def _job(self, fid: str, params: dict):
        fam = families.build_family(fid, **params)
        verdict = families.adjudicate(fam)
        rep = verify.residual_scan(fam, self.window, keep_samples=True)
        payload = reports.scan_payload(rep, fermatlab.__version__, self.COMMAND)
        return verdict, rep, payload, reports.canonical_json(payload), reports.points_csv(rep.samples)

    def _check(self, fid: str, params: dict):
        refuted = fid in ("case4", "case6")

        def check(result) -> list:
            verdict, rep, payload, text, csv = result
            if refuted:
                want = self.quartic[params["variant"]]
                out = _scan_problems(rep, "FAIL", 81 * 81)
                got = [Fraction(c) for c in verdict.even_coeffs_desc or []]
                _expect(verdict.verdict == "NONZERO" and verdict.route == "ring", out,
                        f"{fid}: {verdict.verdict} via {verdict.route}")
                _expect(got == want and not verdict.odd_coeffs_desc, out,
                        f"{fid}: residual {verdict.even_coeffs_desc} != oracle quartic")
            else:
                out = _scan_problems(rep, "PASS", 81 * 81)
                _expect(verdict.verdict == "ZERO" and verdict.route == "ring", out,
                        f"{fid}: {verdict.verdict} via {verdict.route}")
            parsed = json.loads(text)
            for field in ("verdict", "points_total", "points_excluded"):
                _expect(parsed[field] == getattr(rep, field), out, f"{fid}: JSON {field} differs")
            _expect(sum(parsed["exclusion_reasons"].values()) == rep.points_excluded, out,
                    f"{fid}: JSON exclusion reasons do not add up")
            rows = csv.splitlines()[1:]
            _expect(len(rows) == rep.points_total, out, f"{fid}: CSV has {len(rows)} rows")
            _expect(sum(int(r.rsplit(",", 1)[1]) for r in rows) == rep.points_excluded, out,
                    f"{fid}: CSV excluded flags do not add up")
            _expect(reports.canonical_json(payload) == text
                    and reports.points_csv(rep.samples) == csv, out,
                    f"{fid}: serialising twice gave different bytes")
            return out

        return check

    def round(self, k: int) -> list:
        jobs = list(self.fixed) + [("cubic", {"tau": tau}) for tau in self._taus(k)]
        return [Op(f"job:{fid}:{params}", lambda fid=fid, params=params: self._job(fid, params),
                   self._check(fid, params)) for fid, params in jobs]


WORKLOADS = {w.name: w for w in (ScanDense, ExactLadder, ZeroSets, ParamSweep)}
