"""Meromorphic expression trees.

Nodes: complex constants, the variable w, exp, the elliptic pair wp / wp'
(each applied to an arbitrary argument subtree), the four arithmetic
operations and integer powers.  The trees support vectorized numeric
evaluation, symbolic differentiation (wp -> wp', wp' -> 6 wp^2 - g2/2,
exp -> exp, chain rule throughout) and the denominator bookkeeping the
pole-aware scanners rely on.

Nodes are hash-consed: a constructor returns the live node of the same key
(a constant's float bits, exact value and type; a node's engine, exponent and
children) from a weak table, so equal subtrees are one object.

Evaluation compiles the trees once into a Schedule: a flat list of steps,
one per distinct node, each reading the slots of its operands and dropping
the slots whose last reader it is.  A scan compiles its trees once and
replays the Schedule on every block of points, contour and circle.
"""

from __future__ import annotations

import functools
import operator
import struct
import weakref

import numpy as np

from .scalars import is_exact_scalar


class Expr:
    """Base node; build trees with ordinary operators."""

    __slots__ = ("__weakref__",)

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


#: key -> the one live node with that key
_NODES = weakref.WeakValueDictionary()


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


class Const(Expr):
    __slots__ = ("value", "exact")

    def __new__(cls, value):
        v = complex(value)
        # the int, Fraction or RationalComplex it was built from; None for a float
        exact = value if is_exact_scalar(value) else None
        key = (cls, struct.pack("dd", v.real, v.imag), type(exact), exact)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            node.value, node.exact = v, exact
        return node

    def __repr__(self):
        return f"Const({self.value})"


class Var(Expr):
    __slots__ = ()

    def __new__(cls):
        return W

    def __repr__(self):
        return "w"


#: the shared variable node
W = object.__new__(Var)


class Atom(Expr):
    """A function of one argument subtree: exp, or wp / wp' of an engine."""

    __slots__ = ("engine", "arg")
    symbol = ""

    def __new__(cls, engine, arg):
        arg = as_expr(arg)
        key = (cls, id(engine), id(arg))
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            node.engine, node.arg = engine, arg
        return node

    def children(self) -> tuple:
        return (self.arg,)

    def __repr__(self):
        return f"{self.symbol}({self.arg!r})"


class Exp(Atom):
    __slots__ = ()
    symbol = "exp"

    def __new__(cls, arg):
        return Atom.__new__(cls, None, arg)


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

    def __new__(cls, lhs, rhs):
        key = (cls, id(lhs), id(rhs))
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            node.lhs, node.rhs = lhs, rhs
        return node

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

    def __new__(cls, base, k: int):
        key = (cls, id(base), k)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            node.base, node.k = base, k
        return node

    def children(self) -> tuple:
        return (self.base,)

    def __repr__(self):
        return f"({self.base!r} ** {self.k})"


#: 1 as as_fraction's "no denominator", apart from every Const(1) of a tree
ONE = object.__new__(Const)
ONE.value, ONE.exact = 1 + 0j, 1


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


def distinct_nodes(e: Expr):
    """Every distinct node of the tree once, in preorder of first
    occurrence: a shared subtree is visited where it first occurs."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.children()))


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


class Schedule(tuple):
    """Trees compiled for evaluation: the tuple of the roots, so ``len()``
    and iteration mean the trees, and a flat list of steps that replays the
    evaluation of each distinct node on any points.

    The steps come in the order of a depth-first recursion over the roots
    that computes the left operand first, one per distinct node (by
    identity) but the constants and the variable, whose slots are filled
    before the first step.  wp and wp' of one engine and one argument read
    the slot of one engine call.  A step drops the slots whose last reader
    it is, so a value lives until the last node that reads it has been
    computed; the roots' own slots are never dropped."""

    def __new__(cls, roots):
        self = super().__new__(cls, roots)
        slots, steps = [None], []  # slot 0 holds the points; a step is (fn, a, b, out)
        seen: dict = {}  # id(node), or (id(engine), id(arg)) of an engine call -> slot

        def put(value, *step) -> int:
            """A new slot: value, or the value of step (fn, a, b)."""
            slots.append(value)
            if step:
                steps.append((*step, len(slots) - 1))
            return len(slots) - 1

        def visit(e: Expr) -> int:
            s = seen.get(id(e))
            if s is not None:
                return s
            if isinstance(e, BinOp):
                s = put(None, e.op, visit(e.lhs), visit(e.rhs))
            elif isinstance(e, Const):
                s = put(e.value)
            elif isinstance(e, Var):
                s = 0
            elif isinstance(e, Exp):
                s = put(None, np.exp, visit(e.arg), None)
            elif isinstance(e, Atom):
                key = (id(e.engine), id(e.arg))
                if key not in seen:
                    seen[key] = put(None, _engine_pair, put(e.engine), visit(e.arg))
                s = put(None, operator.itemgetter(0 if isinstance(e, Wp) else 1), seen[key], None)
            else:
                s = put(None, operator.pow, visit(e.base), put(e.k))
            seen[id(e)] = s
            return s

        self._outs = [visit(r) for r in self]
        last = {s: i for i, (_, a, b, _) in enumerate(steps) for s in (a, b)}
        drops = [[] for _ in steps]
        for *_, out in steps:
            if out not in self._outs:
                drops[last[out]].append(out)
        self._steps = [(*st, tuple(d)) for st, d in zip(steps, drops)]
        self._slots = slots
        return self

    def run(self, z) -> list:
        """The roots' values at the complex ndarray z, unbroadcast: a value
        that does not depend on z stays a scalar."""
        vals = self._slots.copy()
        vals[0] = z
        for fn, a, b, out, drop in self._steps:
            vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
            for s in drop:
                vals[s] = None
        return [vals[s] for s in self._outs]


def _engine_pair(engine, a) -> tuple:
    """(wp, wp') of the engine at a, from one engine call."""
    return engine.eval(np.asarray(a, dtype=complex))[:2]


def evaluate(e: Expr, z):
    """Evaluate at a complex scalar or ndarray; division by zero and pole
    proximity surface as non-finite entries (callers treat them as excluded
    sample points)."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (out,) = Schedule((e,)).run(z)
    if np.isscalar(out) or np.asarray(out).shape == ():
        return np.full(z.shape, out, dtype=complex) if z.shape else complex(out)
    return out


def evaluate_many(exprs, z) -> list:
    """Evaluate several trees on the same points, so common subtrees (and
    wp engine calls) are computed once; a caller that evaluates the same
    trees again and again passes their Schedule, compiled once.  Results
    are broadcast to z's shape."""
    sched = exprs if isinstance(exprs, Schedule) else Schedule(exprs)
    z = np.asarray(z, dtype=complex)
    outs = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for out in sched.run(z):
            arr = np.asarray(out, dtype=complex)
            if arr.shape != z.shape:
                arr = np.broadcast_to(arr, z.shape).copy()
            outs.append(arr)
    return outs


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    @functools.cache  # each distinct subtree once
    def d(e: Expr) -> Expr:
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
            return Mul(outer, d(e.arg))
        if isinstance(e, Pow):
            inner = Mul(Const(e.k), make_pow(e.base, e.k - 1))
            return Mul(inner, d(e.base))
        if isinstance(e, (Add, Sub)):
            return type(e)(d(e.lhs), d(e.rhs))
        left = Mul(d(e.lhs), e.rhs)
        right = Mul(e.lhs, d(e.rhs))
        if isinstance(e, Mul):
            return Add(left, right)
        return Div(Sub(left, right), Pow(e.rhs, 2))

    try:
        return d(e)
    finally:
        d.cache_clear()  # d refers to itself: free its values now


# ---------------------------------------------------------------------------
# Pole bookkeeping.
# ---------------------------------------------------------------------------


def denominators(e: Expr) -> list[Expr]:
    """Every distinct denominator subtree once, in preorder of first
    occurrence."""
    return list({node.rhs: None for node in distinct_nodes(e) if isinstance(node, Div)})


def wp_nodes(e: Expr) -> list[Expr]:
    """Every distinct wp / wp' node, in preorder of first occurrence (for
    pole-magnitude exclusion in scans)."""
    return [node for node in distinct_nodes(e) if isinstance(node, (Wp, WpPrime))]


def as_fraction(e: Expr) -> tuple[Expr, Expr]:
    """Rewrite as (numerator, denominator) with division nodes cleared.

    exp / wp / wp' nodes are treated as atoms: the result is exact as an
    identity of meromorphic functions away from the atoms' own poles.
    """
    @functools.cache  # each distinct subtree once
    def frac(e: Expr) -> tuple[Expr, Expr]:
        if isinstance(e, (Const, Var, Atom)):
            return e, ONE
        if isinstance(e, Pow):
            bn, bd = frac(e.base)
            num = bn if bn is ONE else Pow(bn, e.k)
            den = bd if bd is ONE else Pow(bd, e.k)
            return num, den
        an, ad = frac(e.lhs)
        bn, bd = frac(e.rhs)
        if isinstance(e, (Add, Sub)):
            return type(e)(_mul(an, bd), _mul(bn, ad)), _mul(ad, bd)
        if isinstance(e, Mul):
            return _mul(an, bn), _mul(ad, bd)
        return _mul(an, bd), _mul(ad, bn)

    try:
        return frac(e)
    finally:
        frac.cache_clear()  # frac refers to itself: free its values now


def _mul(a: Expr, b: Expr) -> Expr:
    if a is ONE:
        return b
    if b is ONE:
        return a
    return Mul(a, b)
