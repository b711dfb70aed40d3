"""Coefficient expressions: parsing, evaluation, symbolic differentiation.

Every coefficient function handled by this package (p, q, r, the potential
of the reduced form, the transformation weight) is carried as a small
immutable expression tree over one free variable, so that exact first and
second derivatives are available wherever the transformation formulas need
them.

Grammar: numeric literals, the free variable, ``+ - * / ^`` with ``^``
right-associative and binding tighter than unary minus (``-x^2`` reads as
``-(x^2)``), and function applications.  Built-in functions are exp, ln,
sin, cos, sqrt, abs and cbrt; further named functions (the Bessel factors
used by the constant-coefficient inversions) can be registered at import
time and then print and re-parse like any other call.  A hook is called
with its argument values, ``hook(v0, v1, ...)``, and signals a domain error
by raising ValueError or OverflowError.  Whitespace may
surround any token.  parse applies two bounds and raises ParseError beyond
either: at most 50 groups (parentheses, signs, exponents, call arguments)
open at once, since the parser recurses over them, and a tree at most 50
operators, signs and calls tall from root to leaf (``x+x+x`` is two tall),
since printing, hashing and differentiation recurse over the tree.

One operator table: the binary node classes (Add, Sub, Mul, Div, Pow)
share the body of ``_Binary``, and each carries only its symbol ``op``, its
precedences ``prec = (left operand, right operand, own)`` and its
derivative.  The printer and the parser read ``prec``, so printing and
re-parsing agree, and the emitter writes ``op`` as the Python operator; Div
adds a zero check and Pow calls ``_power`` instead.

Trees are never rewritten beyond constant folding: correctness over
canonical form.  Fractional powers require a positive base at evaluation
time; evaluation either returns a finite float or raises a domain error
naming the offending subexpression, never a silent NaN.

Evaluation is compiled: on first use each tree becomes one straight-line
Python function, without the per-node dispatch, in which each distinct
subtree is evaluated once.  The emitter walks the tree with its own stack,
so compiling does not recurse.  Subtrees are matched by identity, then by class
and the values of their children; constants by type and repr, so 0.0 and
-0.0, or 2 and 2.0, stay apart.  Values and errors are those of a recursive
walk of the tree, with fewer hook calls where subtrees repeat, as they do
in derivative trees.  A tree that combines several expressions evaluates
them interleaved, so where several fail at one x its error may name a
different node than evaluating them one by one would (the invariant of
liouville at p*r = 0 exactly evaluates w' before w).  Constant folding goes
through the same functions.  The generated source depends only on the
tree's shape and on which of its subtrees are equal (constants, hooks and
nodes are bound as globals), and code objects are cached by source, so a
new problem that differs from an earlier one only in its constants
compiles nothing.

``evaluate_many(xs)`` evaluates an iterable of points by a second
compiled form of the same lines, the block form, which runs each line once
over a numpy array of up to ``_BLOCK`` points.  Addition, subtraction,
multiplication, division and negation run in numpy; each is correctly
rounded, so every element is the float ``evaluate`` gives.  Powers run
through ``np.float_power``, whose float64 loop is the C library's ``pow``,
as Python's ``**`` is (``np.power``'s SIMD loop differs in the last bit).
A hook with a block form (``FunctionHook.block``: sqrt, abs and cbrt here,
besselj and bessely in ``special``) runs it over the whole array, element
for element the hook's own value; the others run per element through the
hook itself, with ``_apply``'s checks.  A block in which any element may
fail (a zero divisor, a power or hook value ``evaluate`` would refuse, a
hook error, a nonfinite result), or with a power whose exponent depends
on x, is evaluated again point by point by ``evaluate``.
``evaluate_many`` returns ``(values, error)``: a float64 array of
``evaluate``'s values up to the first failing point, and the error
``evaluate`` raises there, or None.
"""

from __future__ import annotations

import builtins
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from types import CodeType, FunctionType
from typing import Callable

import numpy as np


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    """The message quotes at most 30 characters either side of the offset;
    `.source` keeps the whole text."""

    def __init__(self, message: str, source: str, offset: int):
        lo, hi = max(0, offset - 30), offset + 30
        excerpt = repr(source[lo:hi])
        if lo > 0:
            excerpt = "..." + excerpt
        if hi < len(source):
            excerpt += "..."
        super().__init__(f"{message} (offset {offset} in {excerpt})")
        self.source = source
        self.offset = offset


class EvalDomainError(ExprError):
    def __init__(self, message: str, fragment: str, x: float):
        super().__init__(f"{message} in {fragment!r} at {x!r}")
        self.reason = message
        self.fragment = fragment
        self.x = x


def _cbrt(v: float) -> float:
    # math.cbrt only exists on 3.11+
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


# ---------------------------------------------------------------------------
# nodes


class Node:
    __slots__ = ()

    def emit(self, em: "_Emitter") -> str:
        """Append this node's statements to em, its children's values already
        named there; return the name of its value."""
        raise NotImplementedError

    def children(self) -> tuple:
        """The child nodes, in field order."""
        raise NotImplementedError

    def key(self, em: "_Emitter") -> tuple:
        # the class and the value names of the children, which are its fields
        return (type(self), *map(em.names.__getitem__, map(id, self.children())))

    def diff(self) -> "Node":
        raise NotImplementedError

    def text(self, prec: int = 0) -> str:
        raise NotImplementedError

    def has_var(self) -> bool:
        raise NotImplementedError

    def _wrap(self, s: str, prec: int, own: int) -> str:
        return f"({s})" if own < prec else s


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: float

    def emit(self, em):
        return em.bind("c", self.value)

    def children(self):
        return ()

    def key(self, em):
        # by repr, so 0.0 and -0.0, or 2 and 2.0, stay apart; an int by
        # value, since repr refuses one past Python's int-to-str digit limit
        v = self.value
        return (type(v), v if type(v) is int else repr(v))

    def diff(self):
        return Const(0.0)

    def text(self, prec=0):
        v = self.value
        try:
            f = float(v)
        except OverflowError:  # an int beyond the float range: its digits,
            # in pieces short enough for Python's int-to-str digit limit
            head, pieces = abs(v), []
            while head >= 10**500:
                head, low = divmod(head, 10**500)
                pieces.append(f"{low:0500d}")
            s = "-" * (v < 0) + str(head) + "".join(reversed(pieces))
        else:
            s = str(int(v)) if f.is_integer() and abs(v) < 1e15 else repr(f)
        return self._wrap(s, prec, 100 if v >= 0 else 25)

    def has_var(self):
        return False


@dataclass(frozen=True, slots=True)
class Var(Node):
    def emit(self, em):
        return "x"

    def children(self):
        return ()

    def diff(self):
        return Const(1.0)

    def text(self, prec=0):
        return "@"  # replaced by the variable name at print time

    def has_var(self):
        return True


@dataclass(frozen=True, slots=True)
class Neg(Node):
    a: Node

    def emit(self, em):
        return em.assign(f"-{em.ref(self.a)}")

    def children(self):
        return (self.a,)

    def diff(self):
        return _neg(self.a.diff())

    def text(self, prec=0):
        return self._wrap("-" + self.a.text(25), prec, 25)

    def has_var(self):
        return self.a.has_var()


@dataclass(frozen=True, slots=True)
class _Binary(Node):
    """a op b.  Each subclass sets ``op`` and ``prec = (left, right, own)``,
    the precedences its operands print at and its own."""

    a: Node
    b: Node

    def emit(self, em):
        return em.assign(f"{em.ref(self.a)} {self.op} {em.ref(self.b)}")

    def children(self):
        return (self.a, self.b)

    def text(self, prec=0):
        left, right, own = self.prec
        return self._wrap(self.a.text(left) + self.op + self.b.text(right), prec, own)

    def has_var(self):
        return self.a.has_var() or self.b.has_var()


class Add(_Binary):
    __slots__ = ()
    op, prec = "+", (10, 11, 10)

    def diff(self):
        return _add(self.a.diff(), self.b.diff())


class Sub(_Binary):
    __slots__ = ()
    op, prec = "-", (10, 11, 10)

    def diff(self):
        return _sub(self.a.diff(), self.b.diff())


class Mul(_Binary):
    __slots__ = ()
    op, prec = "*", (20, 21, 20)

    def diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))


class Div(_Binary):
    __slots__ = ()
    op, prec = "/", (20, 21, 20)

    def emit(self, em):
        num, den = em.ref(self.a), em.ref(self.b)
        if em.block:
            em.lines.append(f"_divisor({den})")
        else:
            em.lines += [f"if {den} == 0.0:",
                         f"    raise _fail('division by zero', {em.bind('n', self)}, V, x)"]
        return em.assign(f"{num} / {den}")

    def diff(self):
        num = _sub(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))
        return _div(num, _pow(self.b, Const(2.0)))


class Pow(_Binary):
    __slots__ = ()
    # exponent at precedence 25 so unary minus in it stays bare: x^-2
    op, prec = "^", (31, 25, 30)

    def emit(self, em):
        base, expo = em.ref(self.a), em.ref(self.b)
        return em.assign(f"_power({base}, {expo}, {em.bind('n', self)}, V, x)")

    def diff(self):
        a, b = self.a, self.b
        if not b.has_var():
            # d(u^c) = c*u^(c-1)*u' ; also valid for negative base, integer c
            c = _fold_const(b)
            return _mul(_mul(Const(c), _pow(a, Const(c - 1.0))), a.diff())
        if not a.has_var():
            # d(a^v) = a^v * ln(a) * v'
            return _mul(_mul(self, Call("ln", (a,))), b.diff())
        # general: u^v * (v'*ln u + v*u'/u)
        term = _add(_mul(b.diff(), Call("ln", (a,))), _mul(b, _div(a.diff(), a)))
        return _mul(self, term)


@dataclass(frozen=True, slots=True)
class Call(Node):
    name: str
    args: tuple

    def emit(self, em):
        hook = FUNCTIONS[self.name]
        hook = em.bind("h", hook if em.block else hook.evaluate)
        args = ", ".join(map(em.ref, self.args))
        return em.assign(f"_apply({hook}, {em.bind('n', self)}, V, x, {args})")

    def children(self):
        return self.args

    def key(self, em):
        return (Call, self.name, *map(em.names.__getitem__, map(id, self.args)))

    def diff(self):
        hook = FUNCTIONS[self.name]
        dargs = tuple(a.diff() for a in self.args)
        return hook.derivative(self.args, dargs)

    def text(self, prec=0):
        return f"{self.name}({','.join(a.text(0) for a in self.args)})"

    def has_var(self):
        return any(a.has_var() for a in self.args)


# ---------------------------------------------------------------------------
# folding constructors (used when building derivative trees)


def _fold_const(node: Node) -> float:
    return _compile(node, "x")(0.0)


def _is_const(node: Node, value=None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def _neg(a: Node) -> Node:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(a: Node, b: Node) -> Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# function registry


@dataclass(frozen=True)
class FunctionHook:
    name: str
    arity: int
    evaluate: Callable[..., float]  # called with the argument values
    derivative: Callable[[tuple, tuple], Node]
    constant_args: tuple = ()
    # optional: evaluate at every point of a block, called with the argument
    # values, one or more of them float64 arrays; returns a float64 array
    # whose elements are evaluate's values, or raises
    block: Callable[..., np.ndarray] | None = None


FUNCTIONS: dict[str, FunctionHook] = {}


def register_function(hook: FunctionHook) -> None:
    FUNCTIONS[hook.name] = hook


def _ln(v):
    if v <= 0.0:
        raise ValueError("ln of nonpositive argument")
    return math.log(v)


def _sqrt(v):
    if v < 0.0:
        raise ValueError("sqrt of negative argument")
    return math.sqrt(v)


def _sqrt_block(v):
    # np.sqrt is correctly rounded, as math.sqrt is
    if np.any(v < 0.0):
        raise ValueError("sqrt of negative argument")
    return np.sqrt(v)


def _cbrt_block(v):
    # _cbrt's own operations: np.abs and np.copysign are exact
    return np.copysign(_powers(np.abs(v), 1.0 / 3.0), v)


register_function(FunctionHook(
    "exp", 1, math.exp,
    lambda a, d: _mul(Call("exp", a), d[0])))
register_function(FunctionHook(
    "ln", 1, _ln,
    lambda a, d: _div(d[0], a[0])))
register_function(FunctionHook(
    "sin", 1, math.sin,
    lambda a, d: _mul(Call("cos", a), d[0])))
register_function(FunctionHook(
    "cos", 1, math.cos,
    lambda a, d: _neg(_mul(Call("sin", a), d[0]))))
register_function(FunctionHook(
    "sqrt", 1, _sqrt,
    lambda a, d: _div(d[0], _mul(Const(2.0), Call("sqrt", a))), block=_sqrt_block))
register_function(FunctionHook(
    # derivative is sign(u)*u', written u/abs(u) so that it raises at u = 0
    "abs", 1, abs,
    lambda a, d: _mul(_div(a[0], Call("abs", a)), d[0]), block=np.abs))
register_function(FunctionHook(
    "cbrt", 1, _cbrt,
    lambda a, d: _div(d[0], _mul(Const(3.0), _pow(Call("cbrt", a), Const(2.0)))),
    block=_cbrt_block))


# ---------------------------------------------------------------------------
# compilation: one straight-line Python function per tree and form
#
# Each distinct node becomes one assignment (a division also gets its zero check).
# Powers and function calls go through _power and _apply rather than having
# their branches written out per node: inlined, those branches tripled the
# compiler's peak memory on the largest derivative trees.  The block form
# runs the same lines on numpy arrays of points, with _power and _apply
# bound to _power_block and _apply_block, and each hook name to the hook's
# FunctionHook rather than its evaluate.


class _Emitter:
    """Source lines of one compiled tree, and the objects its names stand for.

    Names depend only on the tree's shape and equal subtrees: constants,
    hooks and nodes (the latter for error texts) are bound as globals of the
    function, never written into the source, so trees that differ only in
    their constants, function names or variable name share one code object.
    With `block`, the lines are those of the block form.
    """

    def __init__(self, block: bool = False):
        self.block = block
        self.lines: list[str] = []
        self.env: dict[str, object] = {}
        self.names: dict = {}  # id(node) or node.key(self) -> value name

    def value(self, root: Node) -> str:
        """The name of root's value; each distinct subtree is emitted once.

        The walk keeps its own stack, so a tree of any height emits without
        recursion: children in field order, each before its parent, as a
        recursive walk would.
        """
        names = self.names
        stack = [(root, False)]
        pop, push = stack.pop, stack.append
        while stack:
            node, ready = pop()
            if ready:
                key = node.key(self)
                name = names.get(key)
                if name is None:
                    name = names[key] = node.emit(self)
                names[id(node)] = name
            elif id(node) not in names:
                # the node again once its children, pushed above it, are named
                push((node, True))
                for child in reversed(node.children()):
                    if id(child) not in names:
                        push((child, False))
        return names[id(root)]

    def ref(self, node: Node) -> str:
        """The name of the value of a node already emitted."""
        return self.names[id(node)]

    def bind(self, prefix: str, obj) -> str:
        # interned: every compiled function keeps its own bindings dict
        name = sys.intern(f"{prefix}{len(self.env)}")
        self.env[name] = obj
        return name

    def assign(self, expression: str) -> str:
        v = f"v{len(self.lines)}"
        self.lines.append(f"{v} = {expression}")
        return v


def _fail(reason: str, node: Node, variable: str, x: float) -> EvalDomainError:
    # the fragment text is built only on the failing path
    return EvalDomainError(reason, node.text().replace("@", variable), x)


def _power(base, expo, node: "Pow", variable: str, x: float):
    if base == 0.0:
        if not expo > 0.0:
            raise _fail("zero base with nonpositive exponent", node, variable, x)
        v = 0.0
    elif not base > 0.0 and not (isinstance(expo, int) or float(expo).is_integer()):
        # a negative or NaN base; an int exponent is integral, however large
        raise _fail("negative base with fractional exponent", node, variable, x)
    else:
        try:
            v = base ** expo
        except OverflowError:
            raise _fail("overflow in power", node, variable, x) from None
    if not math.isfinite(v):
        raise _fail("nonfinite power", node, variable, x)
    return v


def _apply(hook, node: "Call", variable: str, x: float, *args):
    try:
        v = hook(*args)
    except (OverflowError, ValueError) as err:
        raise _fail(str(err), node, variable, x) from None
    if not math.isfinite(v):
        raise _fail("nonfinite function value", node, variable, x)
    return v


# The block form.  A value is a float64 array over the block's points, or,
# for a subtree without the variable, the scalar the per-point lines give.
# + - * / and negation are numpy's: each is correctly rounded, so an element
# is the float the per-point lines compute, and so is each power _powers
# takes.  _apply_block runs a hook's block form where it has one (sqrt, abs,
# cbrt, besselj, bessely) and the hook itself per element where it has none
# (numpy's exp and log differ from math's in the last bit).  Wherever an
# element may fail (a zero divisor, a power or hook that _power or _apply
# would refuse, an error from a block form, a nonfinite result) the block
# raises _Deferred, and so does a power whose exponent depends on x; a
# subtree without the variable runs _power and _apply themselves and may
# raise their EvalDomainError.  On either, evaluate_many evaluates that
# block point by point instead.

_BLOCK = 1024  # points per block: each line's array holds at most this many


class _Deferred(Exception):
    """Some element of the block may fail: evaluate it point by point."""


def _divisor(den) -> None:
    if np.any(den == 0.0):
        raise _Deferred


def _elements(v):
    # a column for map(): an array's floats, or a scalar repeated
    return v.tolist() if isinstance(v, np.ndarray) else repeat(v)


def _powers(base, expo):
    """base ** expo by elements, one operand or both float64 arrays: each
    element is ``**``'s bit for bit, and OverflowError is raised where
    ``**`` raises it.  A scalar is converted by float(), as ``**`` converts
    it.  Zero bases with negative exponents and negative bases with
    fractional exponents are the caller's to keep out.  Run it under
    np.errstate(all="ignore")."""
    if not isinstance(base, np.ndarray):
        base = float(base)
    if not isinstance(expo, np.ndarray):
        expo = float(expo)
    v = np.float_power(base, expo)
    if not np.isfinite(v).all() and np.any(
            np.isinf(v) & np.isfinite(base) & np.isfinite(expo)):
        raise OverflowError("power overflows")
    return v


def _power_block(base, expo, node: "Pow", variable: str, x):
    if isinstance(expo, np.ndarray):
        raise _Deferred  # an exponent over x: no builder emits one
    if not isinstance(base, np.ndarray):
        return _power(base, expo, node, variable, 0.0)
    try:  # OverflowError: an overflowing power, or float() of the exponent refuses
        zero = np.equal(base, 0.0)
        if (not expo > 0.0 and zero.any()) or (
                not float(expo).is_integer() and not np.all(zero | np.greater(base, 0.0))):
            raise _Deferred
        v = _powers(base, expo)
    except OverflowError:
        raise _Deferred from None
    if np.any(zero):
        v = np.where(zero, 0.0, v)  # +0.0: C's pow(-0.0, 3.0) is -0.0
    if not np.isfinite(v).all():
        raise _Deferred
    return v


def _apply_block(hook: FunctionHook, node: "Call", variable: str, x, *args):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if not arrays:
        return _apply(hook.evaluate, node, variable, 0.0, *args)
    try:
        if hook.block is not None:
            v = hook.block(*args)
        else:
            v = np.fromiter(map(hook.evaluate, *map(_elements, args)), float,
                            len(arrays[0]))
    except Exception:  # foreign code: the per-point path raises it at its point
        raise _Deferred from None
    if not np.isfinite(v).all():
        raise _Deferred
    return v


@lru_cache(maxsize=256)
def _code(source: str) -> CodeType:
    module = compile(source, "<expression>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _compile(root: Node, variable: str, block: bool = False) -> Callable:
    """root as a function of x: its value, or EvalDomainError naming the
    failing subexpression (the variable printed as `variable`).  With
    `block`, a function of a float64 array of points that runs the block
    form's lines and returns an array, or a scalar where root does not
    depend on x, or raises _Deferred or EvalDomainError."""
    em = _Emitter(block)
    result = em.value(root)
    env = {"__builtins__": builtins, "V": variable, **em.env}
    if block:
        env.update(_power=_power_block, _apply=_apply_block, _divisor=_divisor)
    else:
        env.update(_fail=_fail, _power=_power, _apply=_apply)
    body = "".join(f"    {line}\n" for line in em.lines)
    source = f"def {'_block' if block else '_f'}(x):\n{body}    return {result}\n"
    return FunctionType(_code(source), env)


def _run_block(fn, chunk):
    """fn's values at the points of chunk (an array, or a scalar where fn
    does not depend on x), or _Deferred or EvalDomainError."""
    try:  # float() of each point, as evaluate converts it
        if isinstance(chunk, np.ndarray):
            x = chunk.astype(float, copy=False)
        else:
            x = np.fromiter(map(float, chunk), float, len(chunk))
    except (TypeError, ValueError, OverflowError):
        raise _Deferred from None
    v = fn(x)
    if not (np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)):
        raise _Deferred
    return v


# ---------------------------------------------------------------------------
# the public AST wrapper


@dataclass(frozen=True)
class ExpressionAST:
    """An immutable expression over a single named free variable.

    The tree is compiled on first evaluation, once per form (one point or
    a block of points); the functions and the hash are kept on the
    instance, outside the fields, so eq, hash and repr are those of
    (root, variable_name).
    """

    root: Node
    variable_name: str = "x"

    def evaluate(self, x: float) -> float:
        try:
            fn = self._fn
        except AttributeError:
            fn = _compile(self.root, self.variable_name)
            object.__setattr__(self, "_fn", fn)
        v = fn(float(x))
        if not math.isfinite(v):
            raise EvalDomainError("nonfinite result", self.to_text(), x)
        return v

    def evaluate_many(self, xs) -> tuple:
        """evaluate's values at the points of xs, in order, up to the first
        point where it raises ExprError, and that error (None where every
        point gives a value).  The values are a float64 array, so
        len(values) is the index of the failing point.

        The points, read once in order, are evaluated by the block form in
        blocks of _BLOCK: each line runs once per block.  A block where
        some element may fail is evaluated point by point by evaluate, as
        Python floats, so the error is evaluate's at the first failing point.
        """
        try:
            fn = self._fn_block
        except AttributeError:
            fn = _compile(self.root, self.variable_name, block=True)
            object.__setattr__(self, "_fn_block", fn)
        points = xs if isinstance(xs, (list, tuple, np.ndarray)) else list(xs)
        out = np.empty(len(points))
        with np.errstate(all="ignore"):
            for start in range(0, len(points), _BLOCK):
                chunk = points[start:start + _BLOCK]
                try:
                    out[start:start + len(chunk)] = _run_block(fn, chunk)
                except (_Deferred, ExprError):
                    walk = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
                    for i, x in enumerate(walk, start):
                        try:
                            out[i] = self.evaluate(x)
                        except ExprError as err:
                            return out[:i], err
        return out, None

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.root, self.variable_name))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # only the fields: a compiled function cannot be pickled, and the
        # hash of the variable name differs from process to process
        return {"root": self.root, "variable_name": self.variable_name}

    def differentiate(self) -> "ExpressionAST":
        return ExpressionAST(self.root.diff(), self.variable_name)

    def to_text(self) -> str:
        return self.root.text(0).replace("@", self.variable_name)

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# parser (precedence climbing)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<end>\Z))"
)

_BINARY = {cls.op: cls for cls in (Add, Sub, Mul, Div)}

# the most groups open at once, and the tallest tree, parse accepts.
# Printing, hashing and differentiating recurse over the tree, and the
# invariant holds second derivatives of p and r, several times taller than
# p and r; compiling does not recurse.  With Python's 1000 frames the
# invariant of p, q or r nested as sin(sin(...)) or ((x^x)^x)... overflows
# only past about 200 levels
_MAX_NESTING = 50


class _Parser:
    """Precedence climbing.  Each method takes the number of groups open
    around it (parentheses, signs, exponents, call arguments), which bounds
    the parser's own recursion, and returns (node, height), the height
    counting node levels, which bounds the recursion over the tree."""

    def __init__(self, source: str, variable: str):
        self.source = source
        self.variable = variable
        self.tokens: list[tuple[str, str, int]] = []
        pos, kind = 0, None
        while kind != "end":
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise ParseError("unexpected character", source, pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.source, off)

    def check_nesting(self, depth: int, off: int):
        if depth > _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.source, off)

    def parse(self) -> Node:
        node, _ = self.binary(0, 0)
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", self.source, off)
        return node

    def binary(self, min_prec: int, level: int) -> tuple[Node, int]:
        left, height = self.unary(level)
        while True:
            _, val, off = self.peek()
            self.check_nesting(height, off)
            cls = _BINARY.get(val)  # only operator tokens are spelled + - * /
            if cls is None or cls.prec[2] < min_prec:
                return left, height
            self.take()
            right, right_height = self.binary(cls.prec[1], level)
            left, height = cls(left, right), 1 + max(height, right_height)

    def unary(self, level: int) -> tuple[Node, int]:
        kind, val, off = self.peek()
        self.check_nesting(level, off)
        if kind == "op" and val == "-":
            self.take()
            node, height = self.unary(level + 1)
            return Neg(node), 1 + height
        if kind == "op" and val == "+":
            self.take()
            return self.unary(level + 1)
        return self.power(level)

    def power(self, level: int) -> tuple[Node, int]:
        base, height = self.atom(level)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            expo, expo_height = self.unary(level + 1)
            return Pow(base, expo), 1 + max(height, expo_height)
        return base, height

    def atom(self, level: int) -> tuple[Node, int]:
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val)), 0
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, off, level)
            if val == self.variable:
                return Var(), 0
            raise ParseError(f"unknown identifier {val!r}", self.source, off)
        if kind == "op" and val == "(":
            group = self.binary(0, level + 1)
            self.expect_op(")")
            return group
        raise ParseError(f"unexpected token {val or 'end of input'!r}", self.source, off)

    def call(self, name: str, off: int, level: int) -> tuple[Node, int]:
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", self.source, off)
        hook = FUNCTIONS[name]
        self.expect_op("(")
        parsed = [self.binary(0, level + 1)]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.take()
                parsed.append(self.binary(0, level + 1))
            else:
                break
        self.expect_op(")")
        args = [arg for arg, _ in parsed]
        if len(args) != hook.arity:
            raise ParseError(
                f"{name} takes {hook.arity} argument(s), got {len(args)}", self.source, off)
        for idx in hook.constant_args:
            if args[idx].has_var():
                raise ParseError(
                    f"argument {idx + 1} of {name} must be constant", self.source, off)
            args[idx] = Const(_fold_const(args[idx]))
        return Call(name, tuple(args)), 1 + max(height for _, height in parsed)


def parse(source: str, variable: str = "x") -> ExpressionAST:
    """Parse expression text over the named free variable."""
    if not source or not source.strip():
        raise ParseError("empty expression", source, 0)
    return ExpressionAST(_Parser(source, variable).parse(), variable)
