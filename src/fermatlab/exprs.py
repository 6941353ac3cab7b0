"""Meromorphic expression trees.

Nodes: complex constants, the variable w, exp, the elliptic pair wp / wp'
(each applied to an arbitrary argument subtree), the four arithmetic
operations and integer powers.  The trees support vectorized numeric
evaluation, symbolic differentiation (wp -> wp', wp' -> 6 wp^2 - g2/2,
exp -> exp, chain rule throughout) and the denominator bookkeeping the
pole-aware scanners rely on.
"""

from __future__ import annotations

import operator
import struct
from collections import Counter

import numpy as np

from .scalars import is_exact_scalar


class Expr:
    """Base node; build trees with ordinary operators."""

    __slots__ = ()

    def children(self) -> tuple:
        """The node's direct subtrees, in evaluation order."""
        return ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Mul(Const(-1), self)

    def __pow__(self, k: int):
        return make_pow(self, k)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


class Const(Expr):
    __slots__ = ("value", "exact")

    def __init__(self, value):
        self.value = complex(value)
        # the int, Fraction or RationalComplex it was built from; None for a float
        self.exact = value if is_exact_scalar(value) else None

    def __repr__(self):
        return f"Const({self.value})"


class Var(Expr):
    __slots__ = ()

    def __repr__(self):
        return "w"


#: the shared variable node
W = Var()


class Atom(Expr):
    """A function of one argument subtree: exp, or wp / wp' of an engine."""

    __slots__ = ("engine", "arg")
    symbol = ""

    def __init__(self, engine, arg):
        self.engine = engine
        self.arg = as_expr(arg)

    def children(self) -> tuple:
        return (self.arg,)

    def __repr__(self):
        return f"{self.symbol}({self.arg!r})"


class Exp(Atom):
    __slots__ = ()
    symbol = "exp"

    def __init__(self, arg):
        super().__init__(None, arg)


class Wp(Atom):
    __slots__ = ()
    symbol = "wp"


class WpPrime(Atom):
    __slots__ = ()
    symbol = "wp'"


class BinOp(Expr):
    """lhs <symbol> rhs, evaluated as ``op(lhs, rhs)``."""

    __slots__ = ("lhs", "rhs")
    symbol = ""

    def __init__(self, lhs, rhs):
        self.lhs, self.rhs = lhs, rhs

    def children(self) -> tuple:
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"({self.lhs!r} {self.symbol} {self.rhs!r})"


class Add(BinOp):
    __slots__ = ()
    symbol, op = "+", operator.add


class Sub(BinOp):
    __slots__ = ()
    symbol, op = "-", operator.sub


class Mul(BinOp):
    __slots__ = ()
    symbol, op = "*", operator.mul


class Div(BinOp):
    __slots__ = ()
    symbol, op = "/", operator.truediv


class Pow(Expr):
    """base ** k with k a positive integer >= 2 (other k are normalized away)."""

    __slots__ = ("base", "k")

    def __init__(self, base, k: int):
        self.base = base
        self.k = k

    def children(self) -> tuple:
        return (self.base,)

    def __repr__(self):
        return f"({self.base!r} ** {self.k})"


ONE = Const(1)


def make_pow(base: Expr, k) -> Expr:
    if not isinstance(k, int):
        raise TypeError("expression exponent must be an int")
    if k == 0:
        return ONE
    if k == 1:
        return base
    if k < 0:
        return Div(ONE, make_pow(base, -k))
    return Pow(base, k)


def walk(e: Expr):
    """Every node of the tree in preorder; a shared subtree is visited once
    per occurrence."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def share(*roots: Expr) -> tuple:
    """The same trees with every set of structurally equal subtrees made one
    object, so the evaluator's cache computes each distinct subtree once.

    Constants are equal when their float bits and their exact values are
    (0.0 and -0.0 stay apart, and so do Fraction(1, 3) and the float 1/3),
    atoms when their engines are the same object.  The trees keep their
    shape: ``repr``, ``walk`` order and ``denominators`` do not change.
    """
    canon: dict = {}  # structural key -> shared node
    done: dict = {}  # id(original node) -> shared node

    def visit(node: Expr) -> Expr:
        hit = done.get(id(node))
        if hit is not None:
            return hit
        kids = tuple(visit(c) for c in node.children())
        if isinstance(node, Const):
            v = node.value
            key = (Const, struct.pack("dd", v.real, v.imag), node.exact)
        else:
            extra = node.k if isinstance(node, Pow) else id(getattr(node, "engine", None))
            key = (type(node), extra) + tuple(id(c) for c in kids)
        out = canon.get(key)
        if out is None:
            if all(a is b for a, b in zip(kids, node.children())):
                out = node
            elif isinstance(node, Pow):
                out = Pow(kids[0], node.k)
            elif isinstance(node, (Wp, WpPrime)):
                out = type(node)(node.engine, kids[0])
            else:
                out = type(node)(*kids)
            canon[key] = out
        done[id(node)] = out
        return out

    return tuple(visit(r) for r in roots)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def _uses(roots) -> Counter:
    """How often each value of the trees will be read: per distinct node,
    once for each parent slot that holds it, once more for each time it is
    requested as a root (the caller's read, never released), and per
    (engine, argument) pair once for each distinct wp / wp' node on it."""
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
    """One read of a cached value is done; drop it after its last one."""
    uses[key] -= 1
    if not uses[key]:
        del cache[key]


def _eval(e: Expr, z, cache: dict, uses: Counter):
    """Value of e at z.  Every node is computed once, and its value leaves
    the cache when the last of its parents has been computed."""
    key = id(e)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(e, BinOp):
        out = e.op(_eval(e.lhs, z, cache, uses), _eval(e.rhs, z, cache, uses))
    elif isinstance(e, Const):
        out = e.value
    elif isinstance(e, Var):
        out = z
    elif isinstance(e, Exp):
        out = np.exp(_eval(e.arg, z, cache, uses))
    elif isinstance(e, Atom):
        pair = _wp_pair(e.engine, e.arg, z, cache, uses)
        out = pair[0] if isinstance(e, Wp) else pair[1]
        _release(("wp", id(e.engine), id(e.arg)), cache, uses)
    else:
        out = _eval(e.base, z, cache, uses) ** e.k
    for c in e.children():
        _release(id(c), cache, uses)
    cache[key] = out
    return out


def _wp_pair(engine, arg: Expr, z, cache: dict, uses: Counter):
    """wp and wp' of the same argument share one engine call."""
    key = ("wp", id(engine), id(arg))
    hit = cache.get(key)
    if hit is not None:
        return hit
    a = _eval(arg, z, cache, uses)
    p, pp, _, _ = engine.eval(np.asarray(a, dtype=complex))
    cache[key] = (p, pp)
    return p, pp


def evaluate(e: Expr, z):
    """Evaluate at a complex scalar or ndarray; division by zero and pole
    proximity surface as non-finite entries (callers treat them as excluded
    sample points)."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(e, z, {}, _uses([e]))
    if np.isscalar(out) or np.asarray(out).shape == ():
        return np.full(z.shape, out, dtype=complex) if z.shape else complex(out)
    return out


def evaluate_many(exprs: list, z) -> list:
    """Evaluate several trees on the same points with one shared cache, so
    common subtrees (and wp ladder calls) are computed once.  A value is
    kept only until its last reader has used it, except the requested
    trees' own values.  Results are broadcast to z's shape."""
    z = np.asarray(z, dtype=complex)
    cache: dict = {}
    uses = _uses(exprs)
    outs = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for e in exprs:
            out = _eval(e, z, cache, uses)
            arr = np.asarray(out, dtype=complex)
            if arr.shape != z.shape:
                arr = np.broadcast_to(arr, z.shape).copy()
            outs.append(arr)
    return outs


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Atom):
        if isinstance(e, Exp):
            outer = e
        elif isinstance(e, Wp):
            outer = WpPrime(e.engine, e.arg)
        else:
            # second derivative of wp: 6 wp^2 - g2/2
            g2 = e.engine.invariants.g2c
            outer = Sub(Mul(Const(6), Pow(Wp(e.engine, e.arg), 2)), Const(g2 / 2.0))
        return Mul(outer, differentiate(e.arg))
    if isinstance(e, Pow):
        inner = Mul(Const(e.k), make_pow(e.base, e.k - 1))
        return Mul(inner, differentiate(e.base))
    if isinstance(e, (Add, Sub)):
        return type(e)(differentiate(e.lhs), differentiate(e.rhs))
    left = Mul(differentiate(e.lhs), e.rhs)
    right = Mul(e.lhs, differentiate(e.rhs))
    if isinstance(e, Mul):
        return Add(left, right)
    return Div(Sub(left, right), Pow(e.rhs, 2))


# ---------------------------------------------------------------------------
# Pole bookkeeping.
# ---------------------------------------------------------------------------


def denominators(e: Expr) -> list[Expr]:
    """Every denominator subtree, in deterministic (preorder) order."""
    return [node.rhs for node in walk(e) if isinstance(node, Div)]


def wp_nodes(e: Expr) -> list[Expr]:
    """Every wp / wp' node (for pole-magnitude exclusion in scans)."""
    return [node for node in walk(e) if isinstance(node, (Wp, WpPrime))]


def as_fraction(e: Expr) -> tuple[Expr, Expr]:
    """Rewrite as (numerator, denominator) with division nodes cleared.

    exp / wp / wp' nodes are treated as atoms: the result is exact as an
    identity of meromorphic functions away from the atoms' own poles.
    """
    if isinstance(e, (Const, Var, Atom)):
        return e, ONE
    if isinstance(e, Pow):
        bn, bd = as_fraction(e.base)
        num = bn if bn is ONE else Pow(bn, e.k)
        den = bd if bd is ONE else Pow(bd, e.k)
        return num, den
    an, ad = as_fraction(e.lhs)
    bn, bd = as_fraction(e.rhs)
    if isinstance(e, (Add, Sub)):
        return type(e)(_mul(an, bd), _mul(bn, ad)), _mul(ad, bd)
    if isinstance(e, Mul):
        return _mul(an, bn), _mul(ad, bd)
    return _mul(an, bd), _mul(ad, bn)


def _mul(a: Expr, b: Expr) -> Expr:
    if a is ONE:
        return b
    if b is ONE:
        return a
    return Mul(a, b)
