"""Tiny closed expression language used by the numeric scanners."""

import cmath
import gc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fermatlab import exprs, wp
from fermatlab.exprs import (
    ONE,
    Add,
    Const,
    Div,
    Exp,
    Mul,
    Pow,
    Schedule,
    Sub,
    Var,
    W,
    Wp,
    WpPrime,
    as_expr,
    as_fraction,
    denominators,
    differentiate,
    distinct_nodes,
    evaluate,
    evaluate_many,
    make_pow,
    wp_nodes,
)
from fermatlab.families import FAMILY_IDS, build_family
from fermatlab.wp import Invariants, engine_for


def tanh_half():
    """(e^w - 1)/(e^w + 1), a handy rational-in-exp test expression."""
    return Div(Sub(Exp(W), ONE), Add(Exp(W), ONE))


def numeric_derivative(expr, z, h=1e-5):
    """Five-point central stencil, good to ~h^4."""
    vals = [evaluate(expr, z + k * h) for k in (-2, -1, 1, 2)]
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)


# -- construction and evaluation ---------------------------------------------


def test_operator_sugar_builds_nodes():
    e = Exp(W)
    assert isinstance(e + ONE, Add)
    assert isinstance(e - ONE, Sub)
    assert isinstance(e * e, Mul)
    assert isinstance(e / (e + ONE), Div)


def test_as_expr_coercion():
    c = as_expr(Fraction(1, 2))
    assert isinstance(c, Const)
    assert evaluate(c, 0.0) == 0.5
    assert as_expr(c) is c


def test_evaluate_matches_lambda():
    expr = tanh_half()
    ref = lambda w: (cmath.exp(w) - 1) / (cmath.exp(w) + 1)
    for z in (0.5, -1.2 + 0.3j, 2j):
        assert abs(evaluate(expr, z) - ref(z)) < 1e-14


def test_evaluate_vectorized_matches_scalar():
    expr = tanh_half()
    zs = np.array([0.5, -1.2 + 0.3j, 2j, 0.01])
    vec = evaluate(expr, zs)
    for z, v in zip(zs, vec):
        assert abs(v - evaluate(expr, complex(z))) < 1e-14


def test_evaluate_many_shares_work():
    exprs = [tanh_half(), Exp(W), Pow(Exp(W), 3)]
    zs = np.array([0.3, 1.1j])
    outs = evaluate_many(exprs, zs)
    assert len(outs) == 3
    for e, out in zip(exprs, outs):
        assert np.allclose(out, evaluate(e, zs))


def test_pow_and_make_pow():
    e = Exp(W)
    assert abs(evaluate(Pow(e, 3), 0.4) - cmath.exp(1.2)) < 1e-13
    assert evaluate(make_pow(e, 0), 0.7) == 1
    assert make_pow(e, 1) is e


def test_division_by_zero_yields_nonfinite():
    expr = Div(ONE, Sub(Exp(W), ONE))  # pole at w = 0
    val = evaluate(expr, np.array([0.0]))
    assert not np.isfinite(val[0])


# -- Weierstrass nodes -------------------------------------------------------


@pytest.fixture(scope="module")
def eng():
    return engine_for(Invariants(0, 1))


def test_wp_node_evaluation(eng):
    z = 0.31 + 0.12j
    p_ref, pp_ref, _ = eng.eval_scalar(z)
    assert abs(evaluate(Wp(eng, W), z) - p_ref) < 1e-12 * (1 + abs(p_ref))
    assert abs(evaluate(WpPrime(eng, W), z) - pp_ref) < 1e-12 * (1 + abs(pp_ref))


def test_wp_node_with_scaled_argument(eng):
    c = 0.5 + 0.25j
    expr = Wp(eng, Mul(Const(c), W))
    z = 0.8 - 0.3j
    p_ref, _, _ = eng.eval_scalar(c * z)
    assert abs(evaluate(expr, z) - p_ref) < 1e-12 * (1 + abs(p_ref))


def test_wp_nodes_collector(eng):
    expr = Add(Wp(eng, W), Mul(Exp(W), WpPrime(eng, W)))
    kinds = sorted(type(n).__name__ for n in wp_nodes(expr))
    assert kinds == ["Wp", "WpPrime"]
    assert wp_nodes(tanh_half()) == []


# -- differentiation ---------------------------------------------------------


@pytest.mark.parametrize(
    "expr_builder",
    [
        tanh_half,
        lambda: Exp(Mul(Const(Fraction(3, 2)), W)),
        lambda: Pow(Add(Exp(W), ONE), 3),
        lambda: Div(Exp(W), Add(Pow(Exp(W), 2), ONE)),
        lambda: Mul(Sub(Exp(W), ONE), Add(Exp(W), Const(2))),
    ],
)
def test_differentiate_matches_finite_differences(expr_builder):
    expr = expr_builder()
    d = differentiate(expr)
    for z in (0.4, -0.7 + 0.2j, 0.1 - 0.6j):
        got = evaluate(d, z)
        ref = numeric_derivative(expr, z)
        assert abs(got - ref) < 1e-8 * (1 + abs(ref))


def test_differentiate_wp_chain_rule(eng):
    c = Fraction(2)
    expr = Wp(eng, Mul(Const(c), W))
    d = differentiate(expr)
    z = 0.21 + 0.33j
    _, pp_ref, _ = eng.eval_scalar(2 * z)
    assert abs(evaluate(d, z) - 2 * pp_ref) < 1e-10 * (1 + abs(pp_ref))


def test_differentiate_wp_prime_uses_cubic_law(eng):
    """d wp'/dw = 6 wp^2 - g2/2; for (0, 1) that is just 6 wp^2."""
    d = differentiate(WpPrime(eng, W))
    z = 0.42 - 0.17j
    p_ref, _, ppp_ref = eng.eval_scalar(z)
    assert abs(evaluate(d, z) - ppp_ref) < 1e-9 * (1 + abs(ppp_ref))
    assert abs(ppp_ref - 6 * p_ref**2) < 1e-9 * (1 + abs(ppp_ref))


def test_differentiate_constant_is_zero():
    d = differentiate(Const(5))
    assert evaluate(d, 1.23) == 0


# -- structure helpers -------------------------------------------------------


def test_denominators_collects_nested():
    inner = Div(ONE, Add(Exp(W), ONE))
    outer = Div(inner, Sub(Exp(W), ONE))
    dens = denominators(outer)
    assert len(dens) == 2
    # preorder: a division's own denominator comes before those inside it,
    # and the left operand's before the right operand's
    assert dens[0] is outer.rhs and dens[1] is inner.rhs
    # a denominator shared by two quotients is listed once
    shared = Add(Div(ONE, outer.rhs), Div(Const(2), outer.rhs))
    assert [id(d) for d in denominators(shared)] == [id(outer.rhs)]
    right = Div(Const(2), Exp(W))
    left_first = denominators(Add(outer, right))
    assert [id(d) for d in left_first] == [id(outer.rhs), id(inner.rhs), id(right.rhs)]
    vals = sorted(abs(evaluate(d, 0.5)) for d in dens)
    assert abs(vals[0] - abs(cmath.exp(0.5) - 1)) < 1e-14
    assert abs(vals[1] - abs(cmath.exp(0.5) + 1)) < 1e-14


def test_as_fraction_consistency():
    expr = Div(Sub(Exp(W), ONE), Add(Exp(W), ONE))
    num, den = as_fraction(expr)
    for z in (0.3, 1.0 - 0.4j):
        lhs = evaluate(num, z)
        rhs = evaluate(den, z) * evaluate(expr, z)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(lhs))


def test_as_fraction_of_sum_of_fractions():
    a = Div(ONE, Exp(W))
    b = Div(Const(2), Add(Exp(W), ONE))
    num, den = as_fraction(Add(a, b))
    z = 0.37 + 0.2j
    combined = evaluate(a, z) + evaluate(b, z)
    assert abs(evaluate(num, z) - evaluate(den, z) * combined) < 1e-12 * (
        1 + abs(combined)
    )


def test_as_fraction_derivative_denominator_squares():
    """The quotient rule keeps the derivative's denominator to den^2."""
    expr = tanh_half()
    d = differentiate(expr)
    num, den = as_fraction(d)
    z = 0.53
    ref = numeric_derivative(expr, z)
    assert abs(evaluate(num, z) / evaluate(den, z) - ref) < 1e-8 * (1 + abs(ref))


# -- hash-consed nodes --------------------------------------------------------


def _corollary_gprime_pair():
    num, _ = as_fraction(differentiate(build_family("corollary").g))
    return num, differentiate(num)


def walk(e):
    """Every node of the tree in preorder, a shared subtree once per
    occurrence: the reference that distinct_nodes is checked against."""
    yield e
    for child in e.children():
        yield from walk(child)


def _distinct_nodes(roots) -> int:
    return len({id(n) for r in roots for n in walk(r)})


def test_distinct_nodes_is_walk_without_repeats(eng):
    pair = _corollary_gprime_pair()
    x = Wp(engine_for(Invariants(1, 0)), W)
    dag = Add(Mul(x, Wp(eng, W)), Mul(x, WpPrime(eng, W)))
    for e in (*pair, dag):
        first = list({id(n): n for n in walk(e)}.values())
        assert [id(n) for n in distinct_nodes(e)] == [id(n) for n in first]
    assert [id(n) for n in wp_nodes(dag)] == [id(x), id(dag.lhs.rhs), id(dag.rhs.rhs)]


def test_denominators_are_distinct_in_first_occurrence_order():
    """The corollary's derivative identity divides by 8 denominator
    occurrences of 5 distinct subtrees."""
    e = build_family("corollary").derivative_identity_expr()
    every = [n.rhs for n in walk(e) if isinstance(n, Div)]
    assert len(every) == 8
    assert [id(d) for d in denominators(e)] == list({id(d): d for d in every})
    assert len(denominators(e)) == 5


def test_equal_structure_is_one_node():
    pair = _corollary_gprime_pair()
    again = _corollary_gprime_pair()
    assert pair[0] is again[0] and pair[1] is again[1]
    assert Add(Exp(Mul(Const(2), W)), Const(0.5)) is Add(Exp(Mul(Const(2), W)), Const(0.5))
    assert Pow(W, 2) is Pow(W, 2) and Pow(W, 2) is not Pow(W, 3)
    assert Var() is W
    # exp atoms only, no engine: repr tells structurally distinct nodes
    # apart, and each is one node but Const(1), which ONE prints as too
    structural = len({repr(n) for r in pair for n in walk(r)})
    assert _distinct_nodes(pair) == structural + 1 == 149
    assert len(list(walk(pair[1]))) == 1999


def test_interning_keeps_signed_zero_constants_apart():
    pos, neg, pos2 = Const(0.0), Const(-0.0), Const(0.0)
    assert pos is not neg and pos is pos2
    a, b = Add(W, Const(0.0)), Add(W, Const(-0.0))
    assert a is not b and a.lhs is b.lhs is W


def test_interning_keeps_exact_and_float_constants_apart():
    exact, flt, exact2 = Const(Fraction(1, 3)), Const(1 / 3), Const(Fraction(1, 3))
    assert exact.value == flt.value
    assert exact is not flt and exact is exact2
    assert (exact.exact, flt.exact) == (Fraction(1, 3), None)
    # equal exact values of different types keep their own type
    assert Const(Fraction(2)) is not Const(2) and type(Const(2).exact) is int


def test_interning_keeps_engines_apart():
    e1 = engine_for(Invariants(0, 1))
    e2 = engine_for(Invariants(1, 0))
    a, b, c = Wp(e1, W), Wp(e2, W), WpPrime(e1, W)
    assert len({id(a), id(b), id(c)}) == 3
    assert Wp(e1, W) is a


def test_one_is_kept_out_of_the_table():
    """as_fraction reads ``is ONE`` as "no denominator": a tree's Const(1)
    is a factor of its own, and stays one."""
    assert ONE is not Const(1) and ONE.value == Const(1).value
    num, den = as_fraction(Div(W, Const(1)))
    assert num is W and repr(den) == "Const((1+0j))" and den is Const(1)
    assert make_pow(W, 0) is ONE


def test_node_table_is_weak():
    """The table holds only live nodes: dropping a tree empties it again."""
    gc.collect()
    baseline = len(exprs._NODES)
    chain = W
    for k in range(200):
        chain = Add(Mul(chain, Const(1000.25 + k)), Exp(Mul(Const(k + 0.5j), W)))
    assert len(exprs._NODES) >= baseline + 800
    keep = weakref.ref(chain)
    del chain
    gc.collect()
    assert keep() is None and len(exprs._NODES) == baseline


# -- values freed at their last use -------------------------------------------


def _overlapping_roots(eng):
    """Trees in which the root x is a subtree of the root big, wp and
    wp' share an argument, x appears twice as the child of one Mul, and big
    is requested twice."""
    arg = Mul(Const(0.5 + 0.25j), W)
    x = Add(Wp(eng, arg), Exp(W))
    sq = Mul(Add(Wp(eng, arg), Exp(W)), Add(Wp(eng, arg), Exp(W)))
    big = Div(Sub(sq, WpPrime(eng, arg)), Add(x, ONE))
    roots = (big, x, WpPrime(eng, arg), sq, big)
    assert roots[3].lhs is roots[3].rhs is roots[1] and roots[0] is roots[4]
    return roots


def _watched(sched: Schedule, watch) -> Schedule:
    """sched with every step's function wrapped: watch(i, fn, args) runs
    step i and returns its value."""
    sched._steps = [
        (lambda *args, i=i, fn=fn: watch(i, fn, args), *rest)
        for i, (fn, *rest) in enumerate(sched._steps)
    ]
    return sched


def test_evaluate_many_computes_each_node_once(eng, monkeypatch):
    roots = _overlapping_roots(eng)
    v1, _ = eng.basis
    # 2 v1 / (0.5 + 0.25i) is a pole of every wp atom: nan entries too
    z = np.concatenate([np.linspace(-2, 2, 7) + 0.3j, [2 * v1 / (0.5 + 0.25j), 0.1]])
    alone = [evaluate(r, z) for r in roots]
    computed, engine_args = Counter(), []
    real_engine = wp.WeierstrassEngine.eval

    def counting_step(i, fn, args):
        computed[i] += 1
        return fn(*args)

    def counting_engine(self, a):
        engine_args.append((self, a.tobytes()))
        return real_engine(self, a)

    monkeypatch.setattr(wp.WeierstrassEngine, "eval", counting_engine)
    sched = _watched(Schedule(roots), counting_step)
    outs = evaluate_many(sched, z)
    assert not np.isfinite(outs[0]).all()
    for a, b in zip(outs, alone):
        assert a.tobytes() == b.tobytes()
    # one step per distinct node but the constants and the variable, and
    # one for the engine call that wp and wp' of one argument share
    leaves = {id(n) for r in roots for n in walk(r) if isinstance(n, (Const, Var))}
    assert len(sched._steps) == _distinct_nodes(roots) - len(leaves) + 1
    assert set(computed.values()) == {1} and len(computed) == len(sched._steps)
    assert len(engine_args) == 1


def test_evaluate_drops_values_at_their_last_use():
    """A chain of 60 nodes keeps a few arrays alive at a time, not 60."""
    chain = W
    for k in range(60):
        chain = Add(Mul(chain, Const(0.5)), Exp(W)) if k % 2 else Sub(chain, Const(k))
    z = np.linspace(0, 1, 5) + 0.5j
    made, live = [weakref.ref(z)], []

    def watching(i, fn, args):
        live.append(sum(r() is not None for r in made))
        out = fn(*args)
        if isinstance(out, np.ndarray):
            made.append(weakref.ref(out))
        return out

    want = evaluate(chain, z)
    assert evaluate_many(_watched(Schedule([chain]), watching), z)[0].tobytes() == want.tobytes()
    assert len(made) > 60 and 0 < max(live) <= 3


# -- the recursive evaluator the Schedule replaced, frozen as the reference ----


def _uses(roots) -> Counter:
    uses = Counter(id(r) for r in roots)
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (Wp, WpPrime)):
            uses["wp", id(node.engine), id(node.arg)] += 1
        for c in node.children():
            uses[id(c)] += 1
            stack.append(c)
    return uses


def _release(key, cache: dict, uses: Counter) -> None:
    uses[key] -= 1
    if not uses[key]:
        del cache[key]


def _eval(e, z, cache: dict, uses: Counter):
    key = id(e)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(e, exprs.BinOp):
        out = e.op(_eval(e.lhs, z, cache, uses), _eval(e.rhs, z, cache, uses))
    elif isinstance(e, Const):
        out = e.value
    elif isinstance(e, Var):
        out = z
    elif isinstance(e, Exp):
        out = np.exp(_eval(e.arg, z, cache, uses))
    elif isinstance(e, exprs.Atom):
        pair = _wp_pair(e.engine, e.arg, z, cache, uses)
        out = pair[0] if isinstance(e, Wp) else pair[1]
        _release(("wp", id(e.engine), id(e.arg)), cache, uses)
    else:
        out = _eval(e.base, z, cache, uses) ** e.k
    for c in e.children():
        _release(id(c), cache, uses)
    cache[key] = out
    return out


def _wp_pair(engine, arg, z, cache: dict, uses: Counter):
    key = ("wp", id(engine), id(arg))
    hit = cache.get(key)
    if hit is not None:
        return hit
    a = _eval(arg, z, cache, uses)
    p, pp, _, _ = engine.eval(np.asarray(a, dtype=complex))
    cache[key] = (p, pp)
    return p, pp


def _reference_evaluate(e, z):
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(e, z, {}, _uses([e]))
    if np.isscalar(out) or np.asarray(out).shape == ():
        return np.full(z.shape, out, dtype=complex) if z.shape else complex(out)
    return out


def _reference_evaluate_many(roots, z) -> list:
    z = np.asarray(z, dtype=complex)
    cache: dict = {}
    uses = _uses(roots)
    outs = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for e in roots:
            arr = np.asarray(_eval(e, z, cache, uses), dtype=complex)
            if arr.shape != z.shape:
                arr = np.broadcast_to(arr, z.shape).copy()
            outs.append(arr)
    return outs


def _scan_roots(residual, fam) -> tuple:
    """The roots a residual scan evaluates: residual, f, g, the
    denominators and the wp atoms."""
    return (residual, fam.f, fam.g, *denominators(residual), *wp_nodes(residual))


def _reference_roots() -> dict:
    out = {}
    for fid in FAMILY_IDS:
        fam = build_family(fid)
        out[fid + ".residual"] = _scan_roots(fam.residual_expr(), fam)
        if fam.kind in ("fermat", "corollary"):
            out[fid + ".derivative"] = _scan_roots(fam.derivative_identity_expr(), fam)
    cor, quad, circle = (build_family(f) for f in ("corollary", "quadratic", "case1"))
    targets = {"corollary-f'": cor.f, "corollary-g'": cor.g, "quadratic-f'": quad.f,
               "quadratic-g'": quad.g, "case1-f'": circle.f, "case1-g'": circle.g}
    targets = {k: differentiate(e) for k, e in targets.items()}
    targets["wp'"] = WpPrime(engine_for(Invariants(0, 1)), W)
    for key, expr in targets.items():
        num, den = as_fraction(expr)
        out[key] = (num, differentiate(num), den)
    return out


REFERENCE_ROOTS = _reference_roots()


def _reference_points(roots) -> np.ndarray:
    """A grid and the poles of tanh and sech; with wp atoms, the lattice
    points and half periods of their engines (wp is nan at a pole), and
    without them, points where exp overflows and nan and inf inputs (the
    engine refuses those)."""
    grid = (np.linspace(-2, 2, 9)[:, None] + 1j * np.linspace(-3.5, 3.5, 11)).ravel()
    special = [0.0, 0.5j * np.pi, -1.5j * np.pi]
    engines = {id(n.engine): n.engine for r in roots for n in wp_nodes(r)}
    for eng in engines.values():
        v1, v2 = eng.basis
        special += [v1, v2, v1 + v2, -v1, 0.5 * v1, 0.5 * (v1 + v2)]
    if not engines:
        special += [710.0, 1000 + 1j, complex("nan"), complex("inf"), complex(0, float("nan"))]
    return np.concatenate([grid, special])


def _aliasing(arrs) -> list:
    """For each array, the index of the first one that is the same object."""
    return [next(i for i, b in enumerate(arrs) if b is a) for a in arrs]


@pytest.mark.parametrize("name", sorted(REFERENCE_ROOTS))
def test_schedule_matches_the_recursive_evaluator_bit_for_bit(name):
    roots = REFERENCE_ROOTS[name]
    sched = Schedule(roots)
    z = _reference_points(roots)
    for points in (z, z.reshape(1, -1), z[:0], z[0], z[5], complex(z[-1])):
        got = evaluate_many(sched, points)
        want = _reference_evaluate_many(list(roots), points)
        assert len(got) == len(want) == len(roots)
        for a, b in zip(got, want):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert _aliasing(got) == _aliasing(want)
    for r in roots:
        for points in (z, z[:0], z[3], complex(z[-1])):
            a, b = evaluate(r, points), _reference_evaluate(r, points)
            assert type(a) is type(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


#: repr of differentiate(e) and as_fraction(e) for two catalog expressions.
#: The tree shape fixes which operands each node combines, and in which
#: order, and so the bits of every numeric result; these strings pin it.
PINNED_TREES = {
    "case2.f": (
        "((((Const(0j) + ((Const(0j) * wp'(w)) + (Const((1.7320508075688772+0j)) * (((C"
        "onst((6+0j)) * (wp(w) ** 2)) - Const(0j)) * Const((1+0j)))))) * (Const((6+0j))"
        " * wp(w))) - ((Const((3+0j)) + (Const((1.7320508075688772+0j)) * wp'(w))) * (("
        "Const(0j) * wp(w)) + (Const((6+0j)) * (wp'(w) * Const((1+0j))))))) / ((Const(("
        "6+0j)) * wp(w)) ** 2))",
        "((Const((3+0j)) + (Const((1.7320508075688772+0j)) * wp'(w))), (Const((6+0j)) *"
        " wp(w)))",
    ),
    "corollary.g": (
        "((((((Const(0j) + (exp((Const((2+0j)) * w)) * ((Const(0j) * w) + (Const((2+0j)"
        ") * Const((1+0j)))))) * (Const((2+0j)) * exp(w))) - ((Const((1+0j)) + exp((Con"
        "st((2+0j)) * w))) * ((Const(0j) * exp(w)) + (Const((2+0j)) * (exp(w) * Const(("
        "1+0j))))))) / ((Const((2+0j)) * exp(w)) ** 2)) * ((((Const(0j) - (exp((Const(("
        "2+0j)) * w)) * ((Const(0j) * w) + (Const((2+0j)) * Const((1+0j)))))) * (Const("
        "(1+0j)) + exp((Const((2+0j)) * w)))) - ((Const((1+0j)) - exp((Const((2+0j)) * "
        "w))) * (Const(0j) + (exp((Const((2+0j)) * w)) * ((Const(0j) * w) + (Const((2+0"
        "j)) * Const((1+0j)))))))) / ((Const((1+0j)) + exp((Const((2+0j)) * w))) ** 2))"
        ") + (((Const((1+0j)) + exp((Const((2+0j)) * w))) / (Const((2+0j)) * exp(w))) *"
        " (((((((Const(0j) - (((exp((Const((2+0j)) * w)) * ((Const(0j) * w) + (Const((2"
        "+0j)) * Const((1+0j))))) * ((Const(0j) * w) + (Const((2+0j)) * Const((1+0j))))"
        ") + (exp((Const((2+0j)) * w)) * (((Const(0j) * w) + (Const(0j) * Const((1+0j))"
        ")) + ((Const(0j) * Const((1+0j))) + (Const((2+0j)) * Const(0j))))))) * (Const("
        "(1+0j)) + exp((Const((2+0j)) * w)))) + ((Const(0j) - (exp((Const((2+0j)) * w))"
        " * ((Const(0j) * w) + (Const((2+0j)) * Const((1+0j)))))) * (Const(0j) + (exp(("
        "Const((2+0j)) * w)) * ((Const(0j) * w) + (Const((2+0j)) * Const((1+0j)))))))) "
        "- (((Const(0j) - (exp((Const((2+0j)) * w)) * ((Const(0j) * w) + (Const((2+0j))"
        " * Const((1+0j)))))) * (Const(0j) + (exp((Const((2+0j)) * w)) * ((Const(0j) * "
        "w) + (Const((2+0j)) * Const((1+0j))))))) + ((Const((1+0j)) - exp((Const((2+0j)"
        ") * w))) * (Const(0j) + (((exp((Const((2+0j)) * w)) * ((Const(0j) * w) + (Cons"
        "t((2+0j)) * Const((1+0j))))) * ((Const(0j) * w) + (Const((2+0j)) * Const((1+0j"
        "))))) + (exp((Const((2+0j)) * w)) * (((Const(0j) * w) + (Const(0j) * Const((1+"
        "0j)))) + ((Const(0j) * Const((1+0j))) + (Const((2+0j)) * Const(0j)))))))))) * "
        "((Const((1+0j)) + exp((Const((2+0j)) * w))) ** 2)) - ((((Const(0j) - (exp((Con"
        "st((2+0j)) * w)) * ((Const(0j) * w) + (Const((2+0j)) * Const((1+0j)))))) * (Co"
        "nst((1+0j)) + exp((Const((2+0j)) * w)))) - ((Const((1+0j)) - exp((Const((2+0j)"
        ") * w))) * (Const(0j) + (exp((Const((2+0j)) * w)) * ((Const(0j) * w) + (Const("
        "(2+0j)) * Const((1+0j)))))))) * ((Const((2+0j)) * (Const((1+0j)) + exp((Const("
        "(2+0j)) * w)))) * (Const(0j) + (exp((Const((2+0j)) * w)) * ((Const(0j) * w) + "
        "(Const((2+0j)) * Const((1+0j))))))))) / (((Const((1+0j)) + exp((Const((2+0j)) "
        "* w))) ** 2) ** 2))))",
        "(((Const((1+0j)) + exp((Const((2+0j)) * w))) * (((Const(0j) - (exp((Const((2+0"
        "j)) * w)) * ((Const(0j) * w) + Const((2+0j))))) * (Const((1+0j)) + exp((Const("
        "(2+0j)) * w)))) - ((Const((1+0j)) - exp((Const((2+0j)) * w))) * (Const(0j) + ("
        "exp((Const((2+0j)) * w)) * ((Const(0j) * w) + Const((2+0j)))))))), ((Const((2+"
        "0j)) * exp(w)) * ((Const((1+0j)) + exp((Const((2+0j)) * w))) ** 2)))",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TREES))
def test_tree_shapes_are_pinned(name):
    family_id, attr = name.split(".")
    e = getattr(build_family(family_id), attr)
    deriv, frac = PINNED_TREES[name]
    assert repr(differentiate(e)) == deriv
    assert repr(as_fraction(e)) == frac
