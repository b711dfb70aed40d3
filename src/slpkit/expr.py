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
time and then print and re-parse like any other call.

Trees are never rewritten beyond constant folding: correctness over
canonical form.  Fractional powers require a positive base at evaluation
time; evaluation either returns a finite float or raises a domain error
naming the offending subexpression, never a silent NaN.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, source: str, offset: int):
        super().__init__(f"{message} (offset {offset} in {source!r})")
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

    def ev(self, x: float) -> float:
        raise NotImplementedError

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

    def ev(self, x):
        return self.value

    def diff(self):
        return Const(0.0)

    def text(self, prec=0):
        v = self.value
        if float(v).is_integer() and abs(v) < 1e15:
            s = str(int(v))
        else:
            s = repr(float(v))
        return self._wrap(s, prec, 100 if v >= 0 else 25)

    def has_var(self):
        return False


@dataclass(frozen=True, slots=True)
class Var(Node):
    def ev(self, x):
        return x

    def diff(self):
        return Const(1.0)

    def text(self, prec=0):
        return "@"  # replaced by the variable name at print time

    def has_var(self):
        return True


@dataclass(frozen=True, slots=True)
class Neg(Node):
    a: Node

    def ev(self, x):
        return -self.a.ev(x)

    def diff(self):
        return _neg(self.a.diff())

    def text(self, prec=0):
        return self._wrap("-" + self.a.text(25), prec, 25)

    def has_var(self):
        return self.a.has_var()


@dataclass(frozen=True, slots=True)
class Add(Node):
    a: Node
    b: Node

    def ev(self, x):
        return self.a.ev(x) + self.b.ev(x)

    def diff(self):
        return _add(self.a.diff(), self.b.diff())

    def text(self, prec=0):
        return self._wrap(self.a.text(10) + "+" + self.b.text(11), prec, 10)

    def has_var(self):
        return self.a.has_var() or self.b.has_var()


@dataclass(frozen=True, slots=True)
class Sub(Node):
    a: Node
    b: Node

    def ev(self, x):
        return self.a.ev(x) - self.b.ev(x)

    def diff(self):
        return _sub(self.a.diff(), self.b.diff())

    def text(self, prec=0):
        return self._wrap(self.a.text(10) + "-" + self.b.text(11), prec, 10)

    def has_var(self):
        return self.a.has_var() or self.b.has_var()


@dataclass(frozen=True, slots=True)
class Mul(Node):
    a: Node
    b: Node

    def ev(self, x):
        return self.a.ev(x) * self.b.ev(x)

    def diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))

    def text(self, prec=0):
        return self._wrap(self.a.text(20) + "*" + self.b.text(21), prec, 20)

    def has_var(self):
        return self.a.has_var() or self.b.has_var()


@dataclass(frozen=True, slots=True)
class Div(Node):
    a: Node
    b: Node

    def ev(self, x):
        num = self.a.ev(x)
        den = self.b.ev(x)
        if den == 0.0:
            raise EvalDomainError("division by zero", self.text(), x)
        return num / den

    def diff(self):
        num = _sub(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))
        return _div(num, _pow(self.b, Const(2.0)))

    def text(self, prec=0):
        return self._wrap(self.a.text(20) + "/" + self.b.text(21), prec, 20)

    def has_var(self):
        return self.a.has_var() or self.b.has_var()


@dataclass(frozen=True, slots=True)
class Pow(Node):
    a: Node
    b: Node

    def ev(self, x):
        base = self.a.ev(x)
        expo = self.b.ev(x)
        if base > 0.0:
            try:
                v = base ** expo
            except OverflowError:
                raise EvalDomainError("overflow in power", self.text(), x) from None
        elif base == 0.0:
            if expo > 0.0:
                v = 0.0
            else:
                raise EvalDomainError("zero base with nonpositive exponent", self.text(), x)
        else:
            if float(expo).is_integer():
                try:
                    v = base ** expo
                except OverflowError:
                    raise EvalDomainError("overflow in power", self.text(), x) from None
            else:
                raise EvalDomainError("negative base with fractional exponent", self.text(), x)
        if not math.isfinite(v):
            raise EvalDomainError("nonfinite power", self.text(), x)
        return v

    def diff(self):
        a, b = self.a, self.b
        if not b.has_var():
            # d(u^c) = c*u^(c-1)*u' ; also valid for negative base, integer c
            c = _fold_const(b)
            return _mul(_mul(Const(c), _pow(a, Const(c - 1.0))), a.diff())
        if not a.has_var():
            # d(a^v) = a^v * ln(a) * v'
            return _mul(_mul(self, _call("ln", (a,))), b.diff())
        # general: u^v * (v'*ln u + v*u'/u)
        term = _add(_mul(b.diff(), _call("ln", (a,))), _mul(b, _div(a.diff(), a)))
        return _mul(self, term)

    def text(self, prec=0):
        # exponent at precedence 25 so unary minus in it stays bare: x^-2
        return self._wrap(self.a.text(31) + "^" + self.b.text(25), prec, 30)

    def has_var(self):
        return self.a.has_var() or self.b.has_var()


@dataclass(frozen=True, slots=True)
class Call(Node):
    name: str
    args: tuple

    def ev(self, x):
        hook = FUNCTIONS[self.name]
        vals = [a.ev(x) for a in self.args]
        try:
            v = hook.evaluate(vals)
        except _DomainSignal as sig:
            raise EvalDomainError(str(sig), self.text(), x) from None
        except (OverflowError, ValueError) as err:
            raise EvalDomainError(str(err), self.text(), x) from None
        if not math.isfinite(v):
            raise EvalDomainError("nonfinite function value", self.text(), x)
        return v

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
    return node.ev(0.0)


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


def _call(name: str, args: tuple) -> Node:
    return Call(name, args)


# ---------------------------------------------------------------------------
# function registry


class _DomainSignal(ValueError):
    """Raised inside function hooks; rewrapped with expression context."""


@dataclass(frozen=True)
class FunctionHook:
    name: str
    arity: int
    evaluate: Callable[[Sequence[float]], float]
    derivative: Callable[[tuple, tuple], Node]
    constant_args: tuple = ()


FUNCTIONS: dict[str, FunctionHook] = {}


def register_function(hook: FunctionHook) -> None:
    FUNCTIONS[hook.name] = hook


def _ev_exp(v):
    return math.exp(v[0])


def _ev_ln(v):
    if v[0] <= 0.0:
        raise _DomainSignal("ln of nonpositive argument")
    return math.log(v[0])


def _ev_sqrt(v):
    if v[0] < 0.0:
        raise _DomainSignal("sqrt of negative argument")
    return math.sqrt(v[0])


def _ev_abs(v):
    return abs(v[0])


def _ev_cbrt(v):
    return _cbrt(v[0])


register_function(FunctionHook(
    "exp", 1, _ev_exp,
    lambda a, d: _mul(_call("exp", a), d[0])))
register_function(FunctionHook(
    "ln", 1, _ev_ln,
    lambda a, d: _div(d[0], a[0])))
register_function(FunctionHook(
    "sin", 1, lambda v: math.sin(v[0]),
    lambda a, d: _mul(_call("cos", a), d[0])))
register_function(FunctionHook(
    "cos", 1, lambda v: math.cos(v[0]),
    lambda a, d: _neg(_mul(_call("sin", a), d[0]))))
register_function(FunctionHook(
    "sqrt", 1, _ev_sqrt,
    lambda a, d: _div(d[0], _mul(Const(2.0), _call("sqrt", a)))))
register_function(FunctionHook(
    # derivative is sign(u)*u', written u/abs(u) so that it raises at u = 0
    "abs", 1, _ev_abs,
    lambda a, d: _mul(_div(a[0], _call("abs", a)), d[0])))
register_function(FunctionHook(
    "cbrt", 1, _ev_cbrt,
    lambda a, d: _div(d[0], _mul(Const(3.0), _pow(_call("cbrt", a), Const(2.0))))))


# ---------------------------------------------------------------------------
# the public AST wrapper


@dataclass(frozen=True)
class ExpressionAST:
    """An immutable expression over a single named free variable."""

    root: Node
    variable_name: str = "x"

    def evaluate(self, x: float) -> float:
        try:
            v = self.root.ev(float(x))
        except EvalDomainError as err:
            if "@" in err.fragment:
                raise EvalDomainError(
                    err.reason, err.fragment.replace("@", self.variable_name), err.x
                ) from None
            raise
        if not math.isfinite(v):
            raise EvalDomainError("nonfinite result", self.to_text(), x)
        return v

    def differentiate(self) -> "ExpressionAST":
        return ExpressionAST(self.root.diff(), self.variable_name)

    def to_text(self) -> str:
        return self.root.text(0).replace("@", self.variable_name)

    def __str__(self) -> str:
        return self.to_text()

    def is_constant(self) -> bool:
        return not self.root.has_var()

    def constant_value(self) -> float:
        if not self.is_constant():
            raise ExprError(f"expression {self.to_text()!r} is not constant")
        return self.root.ev(0.0)

    def substitute(self, replacement: "ExpressionAST") -> "ExpressionAST":
        """Replace the free variable by another expression's tree."""

        def rebuild(node: Node) -> Node:
            if isinstance(node, Var):
                return replacement.root
            if isinstance(node, Const):
                return node
            if isinstance(node, Neg):
                return Neg(rebuild(node.a))
            if isinstance(node, (Add, Sub, Mul, Div, Pow)):
                return type(node)(rebuild(node.a), rebuild(node.b))
            if isinstance(node, Call):
                return Call(node.name, tuple(rebuild(a) for a in node.args))
            raise ExprError(f"unknown node {node!r}")

        return ExpressionAST(rebuild(self.root), replacement.variable_name)


# ---------------------------------------------------------------------------
# parser (precedence climbing)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_BINARY_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}


class _Parser:
    def __init__(self, source: str, variable: str):
        self.source = source
        self.variable = variable
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise ParseError("unexpected character", source, pos)
            if m.lastgroup == "num":
                self.tokens.append(("num", m.group("num"), m.start("num")))
            elif m.lastgroup == "ident":
                self.tokens.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", "", len(source)))
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

    def parse(self) -> Node:
        node = self.binary(0)
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", self.source, off)
        return node

    def binary(self, min_prec: int) -> Node:
        left = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in _BINARY_PREC:
                return left
            prec = _BINARY_PREC[val]
            if prec < min_prec:
                return left
            self.take()
            right = self.binary(prec + 1)
            cls = {"+": Add, "-": Sub, "*": Mul, "/": Div}[val]
            left = cls(left, right)

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary())
        if kind == "op" and val == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, off)
            if val == self.variable:
                return Var()
            raise ParseError(f"unknown identifier {val!r}", self.source, off)
        if kind == "op" and val == "(":
            node = self.binary(0)
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val or 'end of input'!r}", self.source, off)

    def call(self, name: str, off: int) -> Node:
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", self.source, off)
        hook = FUNCTIONS[name]
        self.expect_op("(")
        args = [self.binary(0)]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.take()
                args.append(self.binary(0))
            else:
                break
        self.expect_op(")")
        if len(args) != hook.arity:
            raise ParseError(
                f"{name} takes {hook.arity} argument(s), got {len(args)}", self.source, off)
        for idx in hook.constant_args:
            if args[idx].has_var():
                raise ParseError(
                    f"argument {idx + 1} of {name} must be constant", self.source, off)
            args[idx] = Const(args[idx].ev(0.0))
        return Call(name, tuple(args))


def parse(source: str, variable: str = "x") -> ExpressionAST:
    """Parse expression text over the named free variable."""
    if not source or not source.strip():
        raise ParseError("empty expression", source, 0)
    return ExpressionAST(_Parser(source, variable).parse(), variable)
