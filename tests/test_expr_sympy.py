"""Node.diff against sympy.diff, both evaluated at 30 digits plus those a
Bessel argument's size takes, on random trees over every node class and
hook."""

import math
import operator

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slpkit import expr
from slpkit.expr import Add, Call, Const, Div, ExpressionAST, Mul, Neg, Pow, Sub, Var
from test_expr import _trees

X = sympy.Symbol("x", real=True)
_SYMPY_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
              Div: operator.truediv, Pow: operator.pow}
_SYMPY_HOOKS = {
    "exp": sympy.exp, "ln": sympy.log, "sin": sympy.sin, "cos": sympy.cos,
    "sqrt": sympy.sqrt, "besselj": sympy.besselj, "bessely": sympy.bessely,
    # through u**2, whose derivatives sympy writes without re() and im();
    # cbrt(0) is 0, where u * (u**2)**(-1/3) would read 0 * zoo = nan
    "abs": lambda u: sympy.sqrt(u ** 2),
    "cbrt": lambda u: sympy.S.Zero if u.is_zero else u * (u ** 2) ** sympy.Rational(-1, 3),
}


def _to_sympy(node):
    if isinstance(node, Const):
        return sympy.Float(node.value, 30)
    if isinstance(node, Var):
        return X
    if isinstance(node, Neg):
        return -_to_sympy(node.a)
    if isinstance(node, Call):
        return _SYMPY_HOOKS[node.name](*[_to_sympy(a) for a in node.args])
    if isinstance(node, Pow) and isinstance(node.b, Const) and float(node.b.value).is_integer():
        # an integer power stays one: sympy differentiates (-x)**1.0 as
        # 1.0*(-x)**1.0/x, which divides by zero at x = 0
        return _to_sympy(node.a) ** sympy.Integer(int(node.b.value))
    return _SYMPY_OPS[type(node)](_to_sympy(node.a), _to_sympy(node.b))


def _digits(root, x):
    """30 digits, plus enough to reduce the largest Bessel argument at x
    exactly (as in test_special's large-argument phase test)."""
    largest = 1.0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Call) and node.name in ("besselj", "bessely"):
            largest = max(largest, abs(ExpressionAST(node.args[1]).evaluate(x)))
        stack.extend(node.children())
    return 30 + int(math.log10(largest))


_small_constants = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 2.0, 0.5, 3.0, -2.5)),
                             st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(root=_trees(_small_constants, 8), x=st.floats(-3.0, 3.0))
@example(root=Call("besselj", (Const(0.5), Var())), x=5e-324)
@example(root=Add(Var(), Call("cbrt", (Const(0.0),))), x=0.0)
@example(root=Pow(Neg(Var()), Const(1.0)), x=0.0)
# a Bessel argument of 1.8e92, where every order's Hankel phase used to
# round to the argument itself: J_0.5 read J_-0.5, so the derivative
# evaluated to -0.0 instead of about 1e46
@example(root=Call("besselj", (Const(0.5), Div(Var(), Const(-7.659072931068231e-93)))),
         x=-1.3848753440932535)
# a Bessel argument of 1.5e40 with a derivative near 1, so the tree is
# not skipped; it is evaluated at 70 digits
@example(root=Mul(Const(1e-20), Call("besselj", (Const(0.5), Mul(Var(), Const(1e40))))),
         x=1.5)
def test_diff_matches_sympy(root, x):
    ast = ExpressionAST(root)
    try:
        derivative = ast.differentiate()
        values = (ast.evaluate(x), derivative.evaluate(x))
    except expr.ExprError:
        return  # outside the domain of the tree or of its derivative
    if max(abs(v) for v in values) > 1e6:
        return
    digits = _digits(root, x)
    at = {X: sympy.Float(x, digits)}
    ours = complex(_to_sympy(derivative.root).evalf(digits, subs=at))
    reference = complex(sympy.diff(_to_sympy(root), X).evalf(digits, subs=at))
    # constants the derivative folds in floating point (exponents, Bessel
    # orders) stay exact in sympy
    assert abs(ours - reference) <= 1e-12 * (1.0 + abs(reference)), (ast.to_text(), x)
