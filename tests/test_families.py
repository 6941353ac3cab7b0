"""Catalog of explicit solution families and the exact adjudicator verdicts."""

import cmath
import dataclasses
import hashlib
import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab import families
from fermatlab.errors import DegenerateLatticeError
from fermatlab.exprs import (
    ONE,
    Atom,
    Const,
    Exp,
    Pow,
    W,
    Wp,
    differentiate,
    distinct_nodes,
    evaluate,
)
from fermatlab.families import (
    CATALOG,
    FAMILY_IDS,
    FamilyParams,
    SolutionFamily,
    _degree_bound,
    _lowered_series,
    adjudicate,
    build_family,
    swapped,
)
from fermatlab.scalars import RationalComplex

#: family_id -> (verdict, route) with default parameters
EXPECTED_VERDICTS = {
    "case1": ("ZERO", "series"),
    "case2": ("ZERO", "ring"),
    "case3": ("ZERO", "ring"),
    "case4": ("NONZERO", "ring"),
    "case5": ("ZERO", "ring"),
    "case6": ("NONZERO", "ring"),
    "quadratic": ("ZERO", "series"),
    "cubic": ("ZERO", "ring"),
    "unit-unit": ("ZERO", "series"),
    "m-one": ("ZERO", "series"),
    "picard-pair": ("UNAVAILABLE", "none"),
    "corollary": ("ZERO", "series"),
}

CASE4_COEFFS = ["44/3", "-4", "0", "1/36", "1/12"]

SAMPLE_POINTS = (0.37 + 0.41j, -0.52 + 0.18j, 0.05 - 0.73j)


def catalog_residual(family, z):
    fv = evaluate(family.f, z)
    gv = evaluate(family.g, z)
    return fv**family.m + gv**family.n - 1


# -- registry-wide checks ----------------------------------------------------


def test_registry_is_exhaustive():
    assert set(EXPECTED_VERDICTS) == set(FAMILY_IDS)


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_default_build_and_adjudicate(family_id):
    fam = build_family(family_id)
    assert fam.family_id == family_id
    verdict = adjudicate(fam)
    want_verdict, want_route = EXPECTED_VERDICTS[family_id]
    assert verdict.verdict == want_verdict
    assert verdict.route == want_route
    assert verdict.is_zero == (want_verdict == "ZERO")


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_certified_families_satisfy_identity_numerically(family_id):
    if family_id == "quadratic":
        return  # carries a 2 rho f g cross term; covered by its own tests
    fam = build_family(family_id)
    if EXPECTED_VERDICTS[family_id][0] == "NONZERO":
        return
    for z in SAMPLE_POINTS:
        assert abs(catalog_residual(fam, z)) < 1e-10


@pytest.mark.parametrize("family_id", ["case4", "case6"])
def test_refuted_families_miss_identity_numerically(family_id):
    fam = build_family(family_id)
    vals = [abs(catalog_residual(fam, z)) for z in SAMPLE_POINTS]
    assert max(vals) > 1e-4


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        build_family("case7")


@pytest.mark.parametrize(
    "family_id,param",
    [
        ("case2", "rho"),
        ("case2", "gamma"),
        ("case1", "eta_index"),
        ("quadratic", "tau"),
        ("corollary", "gamma"),
        ("m-one", "n"),
        ("picard-pair", "slot"),
    ],
)
def test_parameter_the_family_does_not_take_is_refused(family_id, param):
    want = f"family '{family_id}' does not take the parameter '{param}'"
    with pytest.raises(ValueError, match=want):
        build_family(family_id, **{param: 3})


def test_builder_defaults_are_the_registry_defaults():
    assert build_family("quadratic").params.rho == Fraction(5, 4)
    assert build_family("quadratic").params.sign == "plus"
    assert build_family("case1").params.slot == "e^w"
    assert build_family("case4").params.variant == 1
    assert build_family("cubic").params.tau == 0
    assert (build_family("m-one").m, build_family("picard-pair").m) == (3, 3)
    assert build_family("picard-pair").n == 2
    with pytest.raises(ValueError, match="requires both gamma and delta"):
        build_family("picard-pair", gamma=0.1)


# -- exact refutation detail -------------------------------------------------


@pytest.mark.parametrize(
    "family_id,variant", [("case4", 1), ("case4", 2), ("case6", 1), ("case6", 2)]
)
def test_refuted_ring_residual_coefficients(family_id, variant):
    verdict = adjudicate(build_family(family_id, variant=variant))
    assert verdict.verdict == "NONZERO"
    assert verdict.even_coeffs_desc == CASE4_COEFFS
    assert verdict.odd_coeffs_desc == []


def test_quadratic_minus_sign_leading_series():
    verdict = adjudicate(build_family("quadratic", sign="minus"))
    assert verdict.verdict == "NONZERO"
    assert verdict.series_leading == [
        [1, "-20/3"],
        [2, "100/9"],
        [3, "-40/9"],
        [4, "100/27"],
    ]


# -- the exact series route ---------------------------------------------------

#: (family_id, params) of the families whose exact route is the series one
SERIES_FAMILIES = [
    ("quadratic", {"sign": "plus"}),
    ("quadratic", {"sign": "minus"}),
    ("unit-unit", {}),
    ("m-one", {"m": 2}),
    ("m-one", {"m": 3}),
    ("m-one", {"m": 5}),
    ("corollary", {}),
    ("case1", {}),
]


@pytest.mark.parametrize("family_id,params", SERIES_FAMILIES)
def test_series_route_is_the_same_in_both_slots(family_id, params):
    at_w = adjudicate(build_family(family_id, slot="w", **params))
    at_exp = adjudicate(build_family(family_id, slot="exp", **params))
    assert at_w.route == "series"
    assert at_w.verdict == ("NONZERO" if params.get("sign") == "minus" else "ZERO")
    assert (at_exp.verdict, at_exp.route, at_exp.series_leading) == (
        at_w.verdict,
        at_w.route,
        at_w.series_leading,
    )


@pytest.mark.parametrize("family_id,params", SERIES_FAMILIES)
def test_lowered_members_agree_with_the_trees(family_id, params):
    """The lowered f and g, summed as power series near 0, give the values
    of the trees: a wrong lowering shows here even where the residual of
    the equation still vanishes."""
    fam = build_family(family_id, slot="w", **params)
    f, g, _ = _lowered_series(fam, 40, fam.residual_expr())

    def partial(s, z):
        return sum(complex(a) * z ** (s.low + k) for k, a in enumerate(s.coeffs))

    for z in (0.05, 0.05 * cmath.exp(2.1j), 0.05 * cmath.exp(-1.3j)):
        assert abs(partial(f, z) - evaluate(fam.f, z)) < 1e-12
        assert abs(partial(g, z) - evaluate(fam.g, z)) < 1e-12


def test_series_route_refuses_a_float_constant():
    fam = build_family("unit-unit")
    third = Fraction(1, 3)
    exact = dataclasses.replace(fam, f=fam.f + Const(third) - Const(third))
    assert adjudicate(exact).verdict == "ZERO"
    # the same value as a float: interning must not merge it into the exact one
    mixed = dataclasses.replace(fam, f=fam.f + Const(third) - Const(1 / 3))
    verdict = adjudicate(mixed)
    assert (verdict.verdict, verdict.route) == ("UNAVAILABLE", "none")


@pytest.mark.parametrize(
    "make_f",
    [
        lambda fam: fam.f * W,  # a w outside the slot e^w
        lambda fam: fam.f * Exp(Exp(W) * Exp(W)),  # exp of t^2
        lambda fam: fam.f + Const(0.5),  # a float constant
        lambda fam: fam.f * Wp(None, fam.beta),  # a wp atom
    ],
)
def test_series_route_refuses_what_it_cannot_represent(make_f):
    fam = build_family("unit-unit", slot="exp")
    verdict = adjudicate(dataclasses.replace(fam, f=make_f(fam)))
    assert (verdict.verdict, verdict.route) == ("UNAVAILABLE", "none")


@pytest.mark.parametrize("family_id", ["m-one", "case2", "picard-pair"])
def test_series_order_must_be_an_int(family_id):
    """Refused up front on every route; a bool is refused by the range."""
    fam = build_family(family_id)
    with pytest.raises(TypeError, match="series order must be an int"):
        adjudicate(fam, order=40.5)
    with pytest.raises(ValueError, match="series order must be between"):
        adjudicate(fam, order=True)


# -- the degree bound and the early exit --------------------------------------


def _fermat_pair(f, g, m, n, beta):
    return SolutionFamily("pair", "fermat", m, n, f, g, FamilyParams(), beta=beta)


def _full_order_verdict(fam, order):
    """(verdict, leading terms) from the residual lowered at ``order``."""
    s = _lowered_series(fam, order, fam.residual_expr())[2]
    if s.is_zero_through(order):
        return "ZERO", None
    return "NONZERO", [[k, str(c)] for k, c in s.leading_terms(4)]


@pytest.mark.parametrize("k", [6, 10])
def test_degree_bound_is_tight(k):
    """(e^t - 1)^k has the bound k and vanishes through t**(k-1): a bound
    one lower would read it as zero."""
    fam = _fermat_pair((Exp(W) - Const(1)) ** k, Const(1), 1, 1, W)
    assert _degree_bound(fam.residual_expr(), W) == k
    verdict = adjudicate(fam)
    assert verdict.verdict == "NONZERO"
    assert verdict.series_leading[0] == [k, "1"]


_GAUSSIAN = st.builds(
    RationalComplex,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _divisor(draw, beta, q):
    """c + e^(r t), c a nonzero Gaussian rational."""
    return (Const(draw(_GAUSSIAN.filter(lambda c: not c.is_zero)))
            + Exp(Const(Fraction(draw(st.integers(-3, 3)), q)) * beta))


@st.composite
def _exp_polynomial(draw, beta, q, nested=True):
    """sum_j c_j t^d_j e^(r_j t), over a divisor with a nonzero constant
    term now and then; when ``nested``, the sum may hold a quotient, or be
    a difference of two quotients, so that clearing the divisors crosses
    denominators two levels deep."""
    out = Const(0)
    for _ in range(draw(st.integers(1, 3))):
        term = Const(draw(_GAUSSIAN)) * Exp(Const(Fraction(draw(st.integers(-3, 3)), q)) * beta)
        out = out + term * beta ** draw(st.integers(0, 2))
    shape = draw(st.sampled_from(["flat", "quotient in a sum", "difference of quotients"]))
    if nested and shape == "quotient in a sum":
        out = out + draw(_exp_polynomial(beta, q, nested=False)) / _divisor(draw, beta, q)
    elif nested and shape == "difference of quotients":
        out = (out / _divisor(draw, beta, q)
               - draw(_exp_polynomial(beta, q, nested=False)) / _divisor(draw, beta, q))
    if draw(st.booleans()):
        out = out / _divisor(draw, beta, q)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_early_exit_agrees_with_the_full_order(data):
    """Random exponential-polynomial pairs, some of them identities
    g = 1 - f^m: the verdict and leading terms are those of the residual
    lowered at the full order."""
    beta = data.draw(st.sampled_from([W, Exp(W)]))
    q = data.draw(st.integers(1, 3))
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    f = data.draw(_exp_polynomial(beta, q))
    if n == 1 and data.draw(st.booleans()):
        g = Const(1) - f**m
    else:
        g = data.draw(_exp_polynomial(beta, q))
    fam = _fermat_pair(f, g, m, n, beta)
    try:
        expected = _full_order_verdict(fam, 40)
    except (ZeroDivisionError, ValueError):  # e.g. 1/(e^(r t) - 1) with r = 0
        with pytest.raises((ZeroDivisionError, ValueError)):
            adjudicate(fam, order=40)
        return
    verdict = adjudicate(fam, order=40)
    assert (verdict.verdict, verdict.series_leading) == expected


@pytest.mark.parametrize(
    "params, order, seen",
    [
        ({"family_id": "m-one", "m": 16}, 400, [16]),
        ({"family_id": "quadratic", "sign": "minus"}, 120, [4]),
        ({"family_id": "corollary"}, 400, [14]),  # the 0 w terms of f' add no degree
        ({"family_id": "corollary", "slot": "exp"}, 400, [44]),
        ({"family_id": "quadratic", "rho": 1.25}, 120, [120]),  # a float constant
        ({"family_id": "case1"}, 120, [8]),
        ({"family_id": "case1", "slot": "w"}, 120, [8]),
        ({"family_id": "quadratic"}, 120, [4]),
        ({"family_id": "quadratic", "slot": "exp"}, 120, [4]),
        ({"family_id": "quadratic", "sign": "minus", "slot": "exp"}, 120, [4]),
        ({"family_id": "unit-unit"}, 120, [2]),
        ({"family_id": "unit-unit", "slot": "exp"}, 120, [2]),
        ({"family_id": "m-one"}, 120, [3]),
        ({"family_id": "m-one", "slot": "exp"}, 120, [3]),
    ],
)
def test_early_exit_lowers_at_the_bound(params, order, seen, monkeypatch):
    orders = []

    def spy(family, order, residual):
        orders.append(order)
        return _lowered_series(family, order, residual)

    monkeypatch.setattr(families, "_lowered_series", spy)
    adjudicate(build_family(**params), order=order)
    assert orders == seen


def _series_route_rows():
    rows = []
    for label, family_id, params, _ in CATALOG:
        fam = build_family(family_id, **params)
        if fam.exact_residual is None and fam.beta is not None:
            other = "w" if fam.params.slot == "e^w" else "exp"
            rows += [pytest.param(fam, id=label),
                     pytest.param(build_family(family_id, **params, slot=other),
                                  id=f"{label} slot={other}")]
    return rows


@pytest.mark.parametrize("fam", _series_route_rows())
def test_series_verdict_does_not_depend_on_the_order(fam):
    verdicts = {(v.verdict, v.route, v.description, str(v.series_leading))
                for v in (adjudicate(fam, order) for order in (10, 40, 120, 400))}
    assert len(verdicts) == 1


#: SHA-256 over dataclasses.asdict(adjudicate(fam, order)), one sorted-key
#: JSON line each, for every CATALOG row in each slot its family takes, at
#: orders 10, 40, 120 and 400: exact arithmetic, so the same on every
#: numeric profile
EXACT_VERDICTS_DIGEST = "ee8e4cb31c145365a1ef916258ae2ca53e84c50f02df9977c96fb0cb7c1b7fa3"


def test_exact_verdicts_keep_their_digest():
    """Verdict, route, description, leading terms and ring coefficients of
    156 adjudications keep every byte."""
    digest, count = hashlib.sha256(), 0
    for _, family_id, params, _ in CATALOG:
        takes_slot = "slot" in inspect.signature(families._BUILDERS[family_id]).parameters
        for slot in ({"slot": "w"}, {"slot": "exp"}) if takes_slot else ({},):
            fam = build_family(family_id, **params, **slot)
            for order in (10, 40, 120, 400):
                verdict = dataclasses.asdict(adjudicate(fam, order))
                digest.update(json.dumps(verdict, sort_keys=True).encode() + b"\n")
                count += 1
    assert (count, digest.hexdigest()) == (156, EXACT_VERDICTS_DIGEST)


def _dag_lines(expr):
    """One line per distinct node of the tree, in preorder: the node's
    class, a Const's float.hex parts and exact value, an atom's engine
    invariants, a power's exponent, then the indices of its children."""
    nodes = list(distinct_nodes(expr))
    index = {id(node): i for i, node in enumerate(nodes)}
    for node in nodes:
        line = [type(node).__name__]
        if isinstance(node, Const):
            line += [node.value.real.hex(), node.value.imag.hex(),
                     type(node.exact).__name__, str(node.exact)]
        elif isinstance(node, Atom) and node.engine is not None:
            inv = node.engine.invariants
            line += [repr(inv.g2), repr(inv.g3)]
        elif isinstance(node, Pow):
            line.append(str(node.k))
        line += [str(index[id(child)]) for child in node.children()]
        yield " ".join(line)


#: SHA-256 over the definition of every CATALOG row in each slot its family
#: takes: id, kind, exponents, params.to_dict(), the node tables of f, g, h,
#: the residual and (for f^m + g^n = 1 kinds) its derivative identity, and
#: the ring residual's description and element
CATALOG_DEFINITIONS_DIGEST = "6f2b0e3bd1375329cf734525ead8bb87faf01659039577b3ec91b97b6618e143"


def test_catalog_definitions_keep_their_digest():
    """Every catalog tree keeps every node, constant bit and engine, and
    every ring residual every coefficient."""
    digest, count = hashlib.sha256(), 0
    for _, family_id, params, _ in CATALOG:
        takes_slot = "slot" in inspect.signature(families._BUILDERS[family_id]).parameters
        for slot in ({"slot": "w"}, {"slot": "exp"}) if takes_slot else ({},):
            fam = build_family(family_id, **params, **slot)
            head = [fam.family_id, fam.kind, fam.m, fam.n, fam.params.to_dict()]
            lines = [json.dumps(head, sort_keys=True)]
            trees = [fam.f, fam.g, fam.h, fam.residual_expr()]
            if fam.kind in ("fermat", "corollary"):
                trees.append(fam.derivative_identity_expr())
            for tree in trees:
                lines += ["tree"] + ([] if tree is None else list(_dag_lines(tree)))
            res = fam.exact_residual
            if res is not None:
                lines += [res.description, repr(res.element)]
            digest.update("\n".join(lines).encode() + b"\n\n")
            count += 1
    assert (count, digest.hexdigest()) == (39, CATALOG_DEFINITIONS_DIGEST)


# -- variant invariance ------------------------------------------------------


@pytest.mark.parametrize("family_id", ["case2", "case3", "case5"])
@pytest.mark.parametrize("eta_index", [0, 1, 2])
def test_eta_rotations_stay_certified(family_id, eta_index):
    verdict = adjudicate(build_family(family_id, eta_index=eta_index))
    assert verdict.verdict == "ZERO"


@pytest.mark.parametrize("zeta_index", [0, 1, 2, 3])
def test_zeta_rotations_stay_refuted(zeta_index):
    verdict = adjudicate(build_family("case4", zeta_index=zeta_index))
    assert verdict.verdict == "NONZERO"
    assert verdict.even_coeffs_desc == CASE4_COEFFS


@pytest.mark.parametrize("slot", ["w", "exp"])
def test_composition_slots(slot):
    fam = build_family("case2", slot=slot)
    assert fam.params.slot == ("w" if slot == "w" else "e^w")
    assert adjudicate(fam).verdict == "ZERO"
    for z in SAMPLE_POINTS:
        assert abs(catalog_residual(fam, z)) < 1e-10


def test_swapped_preserves_verdict():
    fam = build_family("case3")
    sw = swapped(fam, "case3-swapped")
    assert (sw.m, sw.n) == (fam.n, fam.m)
    assert sw.family_id == "case3-swapped"
    assert adjudicate(sw).verdict == "ZERO"
    for z in SAMPLE_POINTS:
        assert abs(catalog_residual(sw, z)) < 1e-10


# -- quadratic family --------------------------------------------------------


def test_quadratic_plus_identity_with_cross_term():
    rho = Fraction(5, 4)
    fam = build_family("quadratic", rho=rho, sign="plus")
    for z in SAMPLE_POINTS:
        fv = evaluate(fam.f, z)
        gv = evaluate(fam.g, z)
        assert abs(fv * fv + 2 * float(rho) * fv * gv + gv * gv - 1) < 1e-12


@given(st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=12))
@settings(max_examples=25, deadline=None)
def test_quadratic_pythagorean_rhos_certify(t):
    """rho = (t^2 + 1) / 2t makes rho^2 - 1 a rational square for every
    rational t, so the exact series route is always available."""
    if t == 1:  # rho would be 1, which the family excludes
        return
    rho = (t * t + 1) / (2 * t)
    verdict = adjudicate(build_family("quadratic", rho=rho, sign="plus"))
    assert verdict.verdict == "ZERO"


#: (rho, the principal sqrt(rho^2 - 1)) where the root lies in Q(i) but is
#: not real; rho = 0 gives f = cosh, g = -i sinh, the classical f^2 + g^2 = 1
GAUSSIAN_ROOT_RHOS = [
    (Fraction(0), RationalComplex(0, 1)),
    (Fraction(3, 5), RationalComplex(0, Fraction(4, 5))),
    (Fraction(-3, 5), RationalComplex(0, Fraction(4, 5))),
    (RationalComplex(0, Fraction(3, 4)), RationalComplex(0, Fraction(5, 4))),
    (RationalComplex(0, Fraction(-3, 4)), RationalComplex(0, Fraction(5, 4))),
]


@pytest.mark.parametrize("rho,root", GAUSSIAN_ROOT_RHOS, ids=str)
def test_quadratic_gaussian_square_roots_are_exact(rho, root):
    """Sign plus certifies.  Sign minus leaves the residual -4 rho f g with
    f = (h^2 - r)/((1 - r) h), g = (h^2 - 1)/(d h), h = e^t, whose t^n
    coefficient is -4 rho (2^n + r (-2)^n)/(n! (1 - r) d), r = rho1/rho2
    and d = rho1 - rho2; it vanishes only at rho = 0."""
    plus = adjudicate(build_family("quadratic", rho=rho, sign="plus"))
    minus = adjudicate(build_family("quadratic", rho=rho, sign="minus"))
    assert (plus.verdict, plus.route) == ("ZERO", "series")
    assert minus.route == "series"
    if rho == 0:
        assert minus.verdict == "ZERO"
        return
    rho1, rho2 = rho + root, rho - root
    r, d = rho1 / rho2, rho1 - rho2
    want = [[n, str(-4 * (2**n + r * (-2) ** n) * rho / (math.factorial(n) * (1 - r) * d))]
            for n in range(1, 5)]
    assert (minus.verdict, minus.series_leading) == ("NONZERO", want)


def test_quadratic_irrational_square_root_is_unavailable():
    for rho in (Fraction(2), Fraction(3), RationalComplex(Fraction(1, 2), Fraction(1, 3))):
        for sign in ("plus", "minus"):
            fam = build_family("quadratic", rho=rho, sign=sign)
            assert adjudicate(fam).verdict == "UNAVAILABLE"


def test_quadratic_rho_one_excluded():
    with pytest.raises(ValueError, match="excluded"):
        build_family("quadratic", rho=Fraction(1))


def test_quadratic_bad_sign():
    with pytest.raises(ValueError, match="plus.*minus"):
        build_family("quadratic", sign="pm")


def quadratic_printed_derivatives(rho):
    """The closed-form derivative pair printed with the quadratic family,
    for h = e^w and rho_1,2 = rho +/- sqrt(rho^2 - 1):

        f' = h' (h^2 + rho1/rho2) / ((1 - rho1/rho2) h^2)
        g' = h' (h^2 + 1) / ((rho1 - rho2) h^2)
    """
    root = cmath.sqrt(complex(rho) ** 2 - 1)
    rho1, rho2 = complex(rho) + root, complex(rho) - root
    ratio = rho1 / rho2
    h = Exp(W)
    hp = differentiate(h)
    fp = hp * (h**2 + Const(ratio)) / (Const(1 - ratio) * h**2)
    gp = hp * (h**2 + ONE) / (Const(rho1 - rho2) * h**2)
    return fp, gp


def test_quadratic_printed_derivatives_match_autodiff():
    for rho in (Fraction(5, 4), Fraction(13, 12)):
        fam = build_family("quadratic", rho=rho)
        fp, gp = quadratic_printed_derivatives(rho)
        dfa = differentiate(fam.f)
        dga = differentiate(fam.g)
        for z in SAMPLE_POINTS:
            ref_f = evaluate(dfa, z)
            ref_g = evaluate(dga, z)
            assert abs(evaluate(fp, z) - ref_f) < 1e-10 * (1 + abs(ref_f))
            assert abs(evaluate(gp, z) - ref_g) < 1e-10 * (1 + abs(ref_g))


# -- cubic family ------------------------------------------------------------


@pytest.mark.parametrize(
    "tau",
    [
        Fraction(0),
        Fraction(1),
        Fraction(3, 7),
        Fraction(-2, 5),
        RationalComplex(Fraction(1, 3), Fraction(1, 2)),
    ],
)
def test_cubic_exact_taus_certify(tau):
    verdict = adjudicate(build_family("cubic", tau=tau))
    assert verdict.verdict == "ZERO"
    assert verdict.route == "ring"


def test_cubic_float_tau_is_unavailable_but_checks_numerically():
    fam = build_family("cubic", tau=0.3 + 0.2j)
    assert adjudicate(fam).verdict == "UNAVAILABLE"
    tau = 0.3 + 0.2j
    for z in SAMPLE_POINTS:
        fv = evaluate(fam.f, z)
        gv = evaluate(fam.g, z)
        res = fv**3 - 3 * tau * fv * gv + gv**3 - 1
        assert abs(res) < 1e-9


def test_cubic_degenerate_tau_raises():
    with pytest.raises(DegenerateLatticeError):
        build_family("cubic", tau=Fraction(-1))


def test_cubic_cross_term_identity():
    """The cubic family solves f^3 - 3 tau f g + g^3 = 1, not the pure
    three-term equation (unless tau = 0)."""
    tau = Fraction(1)
    fam = build_family("cubic", tau=tau)
    for z in SAMPLE_POINTS:
        fv = evaluate(fam.f, z)
        gv = evaluate(fam.g, z)
        assert abs(fv**3 - 3 * fv * gv + gv**3 - 1) < 1e-9
        assert abs(fv**3 + gv**3 - 1) > 1e-3


# -- small-exponent families -------------------------------------------------


def test_unit_unit_identity():
    fam = build_family("unit-unit")
    assert (fam.m, fam.n) == (1, 1)
    for z in SAMPLE_POINTS:
        assert abs(evaluate(fam.f, z) + evaluate(fam.g, z) - 1) < 1e-13


@pytest.mark.parametrize("m", [2, 3, 5])
def test_m_one_identity(m):
    fam = build_family("m-one", m=m)
    assert (fam.m, fam.n) == (m, 1)
    for z in SAMPLE_POINTS:
        assert abs(evaluate(fam.f, z) ** m + evaluate(fam.g, z) - 1) < 1e-12
    assert adjudicate(fam).verdict == "ZERO"


# -- picard pair -------------------------------------------------------------


def test_picard_default_constants():
    fam = build_family("picard-pair")
    for z in SAMPLE_POINTS:
        assert abs(catalog_residual(fam, z)) < 1e-12
    assert adjudicate(fam).verdict == "UNAVAILABLE"


def test_picard_custom_constants():
    fam = build_family("picard-pair", gamma=math.log(0.3), delta=math.log(0.7))
    for z in SAMPLE_POINTS:
        assert abs(catalog_residual(fam, z)) < 1e-12


def test_picard_invalid_constants_rejected():
    with pytest.raises(ValueError, match="e\\^gamma \\+ e\\^delta = 1"):
        build_family("picard-pair", gamma=0.1, delta=0.1)


# -- corollary witness -------------------------------------------------------


def test_corollary_witness_identity():
    fam = build_family("corollary")
    assert fam.h is not None and fam.params.ell == 1
    df = differentiate(fam.f)
    for z in SAMPLE_POINTS:
        fv = evaluate(fam.f, z)
        hv = evaluate(fam.h, z)
        dv = evaluate(df, z)
        assert abs(fv * fv + hv * hv * dv * dv - 1) < 1e-12


def test_corollary_other_ell_rejected():
    with pytest.raises(ValueError, match="ell = 1 witness"):
        build_family("corollary", ell=2)


# -- trig structure of case1 -------------------------------------------------


def test_case1_is_rational_point_on_the_circle():
    """The pair is the classical tangent-half-angle parametrization of the
    unit circle, driven by t = e^w: ((1-t^2)/(1+t^2), 2t/(1+t^2))."""
    fam = build_family("case1")
    for z in SAMPLE_POINTS:
        t = cmath.exp(z)
        fv = evaluate(fam.f, z)
        gv = evaluate(fam.g, z)
        assert abs(fv * fv + gv * gv - 1) < 1e-12
        assert abs(fv - (1 - t * t) / (1 + t * t)) < 1e-12
        assert abs(gv - 2 * t / (1 + t * t)) < 1e-12
