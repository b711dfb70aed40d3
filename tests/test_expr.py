import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slpkit import expr
from slpkit.expr import (Add, Call, Const, Div, EvalDomainError, ExpressionAST,
                         Mul, Neg, ParseError, Pow, Sub, Var, parse)
from slpkit.liouville import invariant_at_x
from slpkit.problems import CanonicalSLP
from slpkit.special import bessel_j, bessel_y


def test_parse_basic_values():
    assert parse("(x+2)^3").evaluate(1.0) == 27.0
    assert parse("exp(0)").evaluate(5.0) == 1.0
    assert abs(parse("1/(x+0.1)^2").evaluate(0.0) - 100.0) < 1e-12 * 100
    assert parse("sqrt(x)").evaluate(4.0) == 2.0


def test_power_binds_tighter_than_unary_minus():
    assert parse("-x^2").evaluate(3.0) == -9.0
    assert parse("2^3^2").evaluate(0.0) == 512.0  # right-associative
    assert parse("x^-2").evaluate(2.0) == 0.25


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        parse("ln(x)").evaluate(0.0)
    with pytest.raises(EvalDomainError):
        parse("sin(x)/x").evaluate(0.0)  # no limit-taking
    with pytest.raises(EvalDomainError):
        parse("sqrt(x)").evaluate(-1.0)
    with pytest.raises(EvalDomainError):
        parse("x^0.5").evaluate(-2.0)  # fractional power needs positive base
    with pytest.raises(EvalDomainError):
        parse("exp(800*x)-exp(800*x)").evaluate(2.0)  # overflow, not silent inf


def test_domain_error_names_fragment_and_point():
    with pytest.raises(EvalDomainError) as err:
        parse("1/(t-1)", variable="t").evaluate(1.0)
    assert "t-1" in str(err.value)
    assert err.value.x == 1.0


@pytest.mark.parametrize("x", [2.0, -2.0])
def test_an_int_exponent_beyond_the_float_range_overflows_in_the_domain(x):
    # only a tree built without parse (which makes floats) holds such an
    # int: its power overflows as any other does, and it prints as its digits
    ast = ExpressionAST(Pow(Var(), Const(10**400)), "x")
    digits = "1" + "0" * 400
    assert ast.to_text() == "x^" + digits
    with pytest.raises(EvalDomainError) as err:
        ast.evaluate(x)
    assert (err.value.reason, err.value.fragment, err.value.x) == (
        "overflow in power", "x^" + digits, x)
    values, many = ast.evaluate_many([0.0, x])
    assert values.tolist() == [0.0] and str(many) == str(err.value)
    # an int that converts to float keeps the float's text
    assert Const(2**53 + 1).text() == "9007199254740992.0"


@pytest.mark.parametrize("x", [2.0, -2.0])
def test_an_int_exponent_past_the_int_to_str_digit_limit_overflows_in_the_domain(x):
    # 5,001 digits: more than Python's int-to-str conversion limit (4,300
    # by default), so the tree keys and prints the int without str()
    ast = ExpressionAST(Pow(Var(), Const(10**5000)), "x")
    digits = "1" + "0" * 5000
    assert ast.to_text() == "x^" + digits
    with pytest.raises(EvalDomainError) as err:
        ast.evaluate(x)
    assert (err.value.reason, err.value.fragment, err.value.x) == (
        "overflow in power", "x^" + digits, x)
    values, many = ast.evaluate_many([0.0, x])
    assert values.tolist() == [0.0] and str(many) == str(err.value)
    assert Const(-(10**5000) - 7).text() == "-1" + "0" * 4999 + "7"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("1/(x")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("x+y")
    assert "unknown identifier" in str(err.value)
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("sin(x, 2)")
    assert "argument" in str(err.value)
    with pytest.raises(ParseError):
        parse("foo(x)")


def test_parse_error_quotes_a_bounded_window():
    with pytest.raises(ParseError) as err:
        parse("1/(x")
    assert str(err.value) == "expected ')' (offset 4 in '1/(x')"
    source = "+".join(["x"] * 5000)
    with pytest.raises(ParseError) as err:
        parse(source)
    message = str(err.value)
    assert len(message) < 200
    assert f"(offset {err.value.offset} in ...'" in message and message.endswith("...)")
    assert err.value.source == source


def test_whitespace_may_surround_every_token():
    assert parse("x^2 \t") == parse("x^2") == parse(" \n x ^ 2 \n")
    assert parse(" besselj( 1 , x ) ") == parse("besselj(1,x)")


# each shape nests one level per repetition; ((x^x)^x)... has the deepest
# second derivative per level of any shape tried
NESTED = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "signs": lambda n: "-" * n + "x",
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "quotients": lambda n: "/".join(["x"] * (n + 1)),
    "powers": lambda n: "(" * (n - 1) + "x" + "^x)" * (n - 1) + "^x",
    "exponents": lambda n: "^".join(["1.001"] * n) + "^x",
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
}


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_beyond_the_bound_is_a_parse_error(shape):
    for depth in (expr._MAX_NESTING + 1, 300, 5000):
        with pytest.raises(ParseError, match="expression nested too deeply"):
            parse(NESTED[shape](depth))


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_at_the_bound_compiles_the_invariant(shape):
    deep = parse(NESTED[shape](expr._MAX_NESTING))
    one = parse("1+x")
    for p, q, r in ((deep, one, one), (one, deep, one), (one, one, deep)):
        assert math.isfinite(invariant_at_x(CanonicalSLP(p, q, r, 0.5, 1.5), 1.1))


def test_groups_and_tree_height_are_bounded_apart():
    # 50 parentheses around a sum 50 operators tall: both bounds just met
    n = expr._MAX_NESTING
    inside = NESTED["parentheses"](n).replace("x", NESTED["sum"](n))
    assert parse(inside) == parse(NESTED["sum"](n))
    one = parse("1+x")
    assert math.isfinite(invariant_at_x(CanonicalSLP(parse(inside), one, one, 0.5, 1.5), 1.1))
    for outside in ("(" + inside + ")", inside.replace("x", "x+x", 1)):
        with pytest.raises(ParseError, match="expression nested too deeply"):
            parse(outside)


def test_bessel_hook_requires_constant_order():
    assert parse("besselj(1, x)").evaluate(1.0) == pytest.approx(0.44005058574493355)
    with pytest.raises(ParseError):
        parse("besselj(x, x)")


def test_differentiate_examples():
    dsin = parse("sin(x)").differentiate()
    assert dsin.evaluate(0.0) == 1.0
    dcube = parse("x^3").differentiate()
    assert dcube.evaluate(2.0) == 12.0

    f = parse("(x+0.447213595)^(-2)")
    df = f.differentiate()
    h = 1e-5
    fd = (f.evaluate(h) - f.evaluate(-h)) / (2 * h)
    assert abs(df.evaluate(0.0) - fd) <= 1e-8 * (1 + abs(df.evaluate(0.0)))


def test_differentiate_constant_is_zero():
    d = parse("5").differentiate()
    for x in (-3.0, 0.0, 1.7, 42.0):
        assert d.evaluate(x) == 0.0


def test_abs_derivative_is_sign_away_from_zero():
    d = parse("abs(x)").differentiate()
    assert d.evaluate(2.0) == 1.0
    assert d.evaluate(-2.0) == -1.0
    with pytest.raises(EvalDomainError):
        d.evaluate(0.0)


def test_cbrt_handles_negative_arguments():
    assert parse("cbrt(x)").evaluate(-8.0) == -2.0
    d = parse("cbrt(x)").differentiate()
    assert d.evaluate(8.0) == pytest.approx(1.0 / 12.0)


# ---------------------------------------------------------------------------
# fuzz grammar shared with the acceptance suite


def random_expression(rng, depth=3):
    """Expression source with all partial functions kept on safe arguments
    for x in [0.3, 2.7]: shifted denominators, positive ln/sqrt arguments,
    bounded exp inputs."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return "x"
        return repr(round(rng.uniform(0.2, 3.0), 6))
    shift = repr(round(rng.uniform(0.5, 2.0), 6))
    kind = rng.integers(0, 9)
    if kind == 0:
        return f"({random_expression(rng, depth - 1)}+{random_expression(rng, depth - 1)})"
    if kind == 1:
        return f"({random_expression(rng, depth - 1)}-{random_expression(rng, depth - 1)})"
    if kind == 2:
        return f"({random_expression(rng, depth - 1)}*{random_expression(rng, depth - 1)})"
    if kind == 3:
        return f"({random_expression(rng, depth - 1)}/(x+{shift}))"
    if kind == 4:
        power = repr(round(rng.uniform(-2.5, 2.5), 4))
        return f"((x+{shift})^{power})"
    if kind == 5:
        return f"sin({random_expression(rng, depth - 1)})"
    if kind == 6:
        coeff = repr(round(rng.uniform(-1.2, 1.2), 4))
        return f"exp({coeff}*x)"
    if kind == 7:
        fn = ("ln", "sqrt", "abs", "cbrt")[rng.integers(0, 4)]
        return f"{fn}(x+{shift})"
    return f"cos({random_expression(rng, depth - 1)})"


def collect_samples(count, seed=20240811):
    rng = np.random.default_rng(seed)
    samples = []
    attempts = 0
    while len(samples) < count and attempts < 40 * count:
        attempts += 1
        source = random_expression(rng)
        x = float(rng.uniform(0.3, 2.7))
        try:
            ast = parse(source)
            value = ast.evaluate(x)
            h = 1e-5
            fd = (ast.evaluate(x + h) - ast.evaluate(x - h)) / (2 * h)
            sym = ast.differentiate().evaluate(x)
        except expr.ExprError:
            continue
        if abs(value) > 1e6 or abs(fd) > 1e6:
            continue
        samples.append((source, x, value, sym, fd))
    assert len(samples) == count
    return samples


def test_fuzz_derivative_matches_finite_difference():
    for source, x, value, sym, fd in collect_samples(1000):
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(value)), (source, x)


def test_print_parse_round_trip():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        source = random_expression(rng)
        ast = parse(source)
        reparsed = parse(ast.to_text())
        xs = rng.uniform(0.3, 2.7, size=5)
        ok = True
        for x in xs:
            try:
                original = ast.evaluate(float(x))
            except expr.ExprError:
                ok = False
                break
            assert reparsed.evaluate(float(x)) == original, ast.to_text()
        if ok:
            checked += 1


def test_print_round_trip_with_bessel_factors():
    source = "4*((0.5*x)^0.25)^2*besselj(1,2*(0.5*x)^0.25)^4"
    ast = parse(source)
    again = parse(ast.to_text())
    for x in (0.5, 1.0, 2.0):
        assert again.evaluate(x) == ast.evaluate(x)


# ---------------------------------------------------------------------------
# reference evaluation: the recursive tree walk that compilation replaced;
# compiled functions must reproduce its values and its errors exactly


def _walk(node, x):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_walk(node.a, x)
    if isinstance(node, Add):
        return _walk(node.a, x) + _walk(node.b, x)
    if isinstance(node, Sub):
        return _walk(node.a, x) - _walk(node.b, x)
    if isinstance(node, Mul):
        return _walk(node.a, x) * _walk(node.b, x)
    if isinstance(node, Div):
        num = _walk(node.a, x)
        den = _walk(node.b, x)
        if den == 0.0:
            raise EvalDomainError("division by zero", node.text(), x)
        return num / den
    if isinstance(node, Pow):
        base = _walk(node.a, x)
        expo = _walk(node.b, x)
        if base > 0.0:
            try:
                v = base ** expo
            except OverflowError:
                raise EvalDomainError("overflow in power", node.text(), x) from None
        elif base == 0.0:
            if expo > 0.0:
                v = 0.0
            else:
                raise EvalDomainError("zero base with nonpositive exponent", node.text(), x)
        else:
            if float(expo).is_integer():
                try:
                    v = base ** expo
                except OverflowError:
                    raise EvalDomainError("overflow in power", node.text(), x) from None
            else:
                raise EvalDomainError("negative base with fractional exponent",
                                      node.text(), x)
        if not math.isfinite(v):
            raise EvalDomainError("nonfinite power", node.text(), x)
        return v
    assert isinstance(node, Call)
    hook = expr.FUNCTIONS[node.name]
    vals = [_walk(a, x) for a in node.args]
    try:
        v = hook.evaluate(*vals)
    except (OverflowError, ValueError) as err:
        raise EvalDomainError(str(err), node.text(), x) from None
    if not math.isfinite(v):
        raise EvalDomainError("nonfinite function value", node.text(), x)
    return v


def _walk_evaluate(ast, x):
    try:
        v = _walk(ast.root, float(x))
    except EvalDomainError as err:
        if "@" in err.fragment:
            raise EvalDomainError(
                err.reason, err.fragment.replace("@", ast.variable_name), err.x) from None
        raise
    if not math.isfinite(v):
        raise EvalDomainError("nonfinite result", ast.to_text(), x)
    return v


def _outcome(fn, x):
    """(type, repr) of the value, or of the exception with its message and x."""
    try:
        v = fn(x)
    except Exception as err:  # any exception must match, not only ExprError
        return ("raised", type(err), str(err), repr(getattr(err, "x", None)))
    return ("value", type(v), repr(v))


_UNARY_HOOKS = ("exp", "ln", "sqrt", "abs", "cbrt", "sin", "cos")
_BESSEL_HOOKS = ("besselj", "bessely")
_SPECIAL_FLOATS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0, 710.0, -710.0, 1e308,
                   -1e308, 1e-320, math.inf, -math.inf, math.nan)

# int constants stay ints through +, -, * and **; kept to -1..1 so that no
# tree within max_leaves builds a tower of integer powers too large to compute
_constants = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                       st.floats(-50.0, 50.0),
                       st.integers(-1, 1))


def _extend(children):
    binary = st.sampled_from((Add, Sub, Mul, Div, Pow))
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda cls, a, b: cls(a, b), binary, children, children),
        # one child object in both places: compiled once, walked twice
        st.builds(lambda cls, a: cls(a, a), binary, children),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(_UNARY_HOOKS), children),
        st.builds(lambda name, nu, a: Call(name, (Const(nu), a)),
                  st.sampled_from(_BESSEL_HOOKS),
                  st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, -0.5, -1.0, 0.3333, 2.00001)),
                  children),
    )


def _trees(constants, max_leaves):
    leaves = st.one_of(st.just(Var()), st.builds(Const, constants))
    return st.recursive(leaves, _extend, max_leaves=max_leaves)


trees = _trees(_constants, 10)

points = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(), st.integers(-3, 3))


@settings(max_examples=400, deadline=None)
@given(root=trees, xs=st.lists(points, min_size=1, max_size=4),
       variable=st.sampled_from(("x", "t")))
# constants that compare equal but must stay apart: 0.0 * -0.0 is -0.0, and
# 2 ** (1 * 2.0) is the float 4.0
@example(root=Mul(Const(0.0), Const(-0.0)), xs=[1.0], variable="x")
@example(root=Pow(Const(2), Mul(Var(), Const(2.0))), xs=[1], variable="x")
def test_compiled_evaluation_matches_tree_walk(root, xs, variable):
    ast = ExpressionAST(root, variable)
    checked = [ast]
    try:
        checked.append(ast.differentiate())  # shares subtrees with ast and itself
    except expr.ExprError:
        pass  # a constant exponent that does not evaluate
    for tree in checked:
        for x in xs:
            assert _outcome(tree.evaluate, x) == _outcome(
                lambda x: _walk_evaluate(tree, x), x), (tree.to_text(), x)


def _upto(tree, xs):
    """evaluate at the points of xs up to the first ExprError, and that error."""
    values = []
    for x in xs:
        try:
            values.append(tree.evaluate(x))
        except expr.ExprError as err:
            return values, err
    return values, None


def _upto_outcome(fn, xs):
    """The hex of each value and (type, message, repr of x) of the error, or
    what fn raised: -0.0 stays apart from 0.0, and every float round-trips."""
    try:
        values, err = fn(xs)
    except Exception as err:  # any exception must match, not only ExprError
        return ("raised", type(err), str(err), repr(getattr(err, "x", None)))
    return ([float(v).hex() for v in values],
            None if err is None else (type(err), str(err), repr(err.x)))


@settings(max_examples=300, deadline=None)
@given(root=trees, xs=st.lists(points, min_size=0, max_size=6),
       variable=st.sampled_from(("x", "t")))
@example(root=Mul(Var(), Const(-0.0)), xs=[1.0, -1.0], variable="x")
# a nonfinite value at the first point, an error at the second
@example(root=Mul(Var(), Call("sqrt", (Var(),))), xs=[math.inf, -1.0], variable="x")
# a -0.0 base: _power gives +0.0 where C's pow(-0.0, 3.0) is -0.0
@example(root=Pow(Var(), Const(3.0)), xs=[-0.0, 0.0, -2.0], variable="x")
# the first failure in the second block, after a block without one
@example(root=Call("ln", (Var(),)), xs=[2.0] * expr._BLOCK + [3.0, -1.0, 0.0],
         variable="x")
# int constants only: evaluate's int at every point, as a float64
@example(root=Add(Pow(Const(-1), Const(1)), Mul(Const(1), Const(0))), xs=[0.5, 2],
         variable="x")
# an overflow to inf that a later line turns finite
@example(root=Div(Const(1.0), Mul(Var(), Const(1e308))), xs=[10.0, -10.0, 0.5],
         variable="x")
# a nonfinite hook value and power, which evaluate refuses where they stand
@example(root=Div(Const(1.0), Call("exp", (Var(),))), xs=[0.0, math.inf], variable="x")
@example(root=Div(Const(1.0), Pow(Var(), Const(2.0))), xs=[1.0, math.inf], variable="x")
# a Bessel tree over two blocks, the series and Hankel lanes of both kinds,
# and a second block whose last point fails
@example(root=Mul(Call("besselj", (Const(0.75), Var())), Call("bessely", (Const(-2.7), Var()))),
         xs=[0.05 * (i + 1) for i in range(expr._BLOCK + 2)] + [0.0], variable="x")
# cbrt and abs by their block forms over two blocks of negative, subnormal
# and huge arguments, and a last point that fails
@example(root=Div(Const(1.0), Call("cbrt", (Var(),))),
         xs=[(-1.0) ** i * 1.37 * 2.0 ** (2 * i - 1074) for i in range(expr._BLOCK + 2)] + [0.0],
         variable="x")
@example(root=Sub(Call("abs", (Var(),)), Var()),
         xs=[(-1.0) ** i * 1.37 * 2.0 ** (2 * i - 1074) for i in range(expr._BLOCK + 2)]
         + [-0.0, math.inf], variable="x")
def test_evaluate_many_matches_evaluate_point_by_point(root, xs, variable):
    ast = ExpressionAST(root, variable)
    checked = [ast]
    try:
        checked.append(ast.differentiate())
    except expr.ExprError:
        pass
    for tree in checked:
        expected = _upto_outcome(lambda xs: _upto(tree, xs), xs)
        # a fresh instance compiles only the batch form; an iterator can be
        # read only once
        fresh = ExpressionAST(tree.root, variable)
        for form in (list, iter):
            for many in (fresh.evaluate_many, tree.evaluate_many):
                assert _upto_outcome(lambda xs: many(form(xs)), xs) == expected, (
                    tree.to_text(), xs, form)
                if expected[0] != "raised":
                    values, _ = many(form(xs))
                    assert type(values) is np.ndarray and values.dtype == np.float64


def test_evaluate_many_shares_the_scalar_lines():
    a = parse("2*x^3 + besselj(1, x)")
    b = parse("0.25*t^1.5 + bessely(0.5, t)", "t")
    values, err = a.evaluate_many([1.5, 2.5])
    assert values.tolist() == [a.evaluate(1.5), a.evaluate(2.5)] and err is None
    values, err = b.evaluate_many([1.5])
    assert values.tolist() == [b.evaluate(1.5)] and err is None
    # one code object per shape for each form, the forms apart
    assert a._fn_block.__code__ is b._fn_block.__code__
    assert a._fn_block.__code__ is not a._fn.__code__
    values, err = a.evaluate_many([])
    assert values.shape == (0,) and values.dtype == np.float64 and err is None


def test_a_tree_taller_than_the_frame_limit_compiles():
    # built without parse, which bounds the height at 50: the emitter keeps
    # its own stack, so 5,000 levels compile and evaluate
    root = Var()
    for i in range(5000):
        root = Pow(root, Const(1.0 if i % 2 else 3.0))
    ast = ExpressionAST(root)
    assert ast.evaluate(1.0) == 1.0
    values, err = ast.evaluate_many([1.0, -1.0])
    assert values.tolist() == [1.0, -1.0] and err is None


def test_compiled_evaluation_matches_tree_walk_on_each_failure_kind():
    cases = [
        ("1/(X-1)", 1.0),                         # division by zero
        ("(X+1)^0.5", -3.0),                      # negative base, fractional exponent
        ("X^-1", 0.0),                            # zero base, nonpositive exponent
        ("10^X", 400.0),                          # overflow in power
        ("(-10)^X", 401.0),                       # overflow, negative base
        ("X^2", math.inf),                        # nonfinite power
        ("ln(X)", -1.0),                          # hook domain signal
        ("sqrt(X-3)", 2.0),
        ("exp(X)", 710.0),                        # OverflowError in a hook
        ("sin(X)", math.inf),                     # ValueError in a hook
        ("exp(X)", math.inf),                     # nonfinite function value
        ("besselj(1, X)", -1.0),                  # SpecialFunctionError in a hook
        ("bessely(0.5, X)", 0.0),
        ("X*X", 1e200),                           # nonfinite result
        ("X-X", math.nan),
        ("-X+3", "2.5"),                          # the caller's x is converted once
    ]
    # both operands fail: the left one is evaluated first
    cases += [(f"ln(X){op}sqrt(X)", -1.0) for op in "+-*/^"]
    for source, x in cases:
        for variable in ("x", "t"):
            ast = parse(source.replace("X", variable), variable)
            outcome = _outcome(ast.evaluate, x)
            assert outcome == _outcome(lambda x: _walk_evaluate(ast, x), x), (source, x)
            assert (outcome[0] == "raised") == (source != "-X+3"), (source, outcome)


_EDGE_BASES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)
_EDGE_EXPONENTS = (0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1e-300, 400.0, math.inf, math.nan)


@pytest.mark.parametrize("base", _EDGE_BASES)
@pytest.mark.parametrize("c", _EDGE_EXPONENTS)
def test_power_at_edge_bases_matches_tree_walk(base, c):
    # each branch of _power: zero base, negative or NaN base with a
    # fractional exponent, overflow, a nonfinite result and a finite one
    ast = ExpressionAST(Pow(Var(), Const(c)), "x")
    assert _outcome(ast.evaluate, base) == _outcome(lambda x: _walk_evaluate(ast, x), base)


# ---------------------------------------------------------------------------
# _powers, the block form's power: np.float_power, each element Python's **
# bit for bit, and OverflowError where ** raises it

_pow_floats = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                     math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 0.5, -0.5,
                     10.0, -10.0, 1e300, -1e300, math.inf, -math.inf, math.nan)),
    st.floats(-1100.0, 1100.0),
    st.integers(-1100, 1100).map(float),  # negative bases take integral exponents
)
# ints as ** converts them: exactly, rounded above 2**53, or refused
_pow_scalars = st.one_of(_pow_floats, st.integers(-5, 5),
                         st.sampled_from((2**53 + 1, 3**40, -(2**60) - 1, 10**400)))


def _in_float_domain(b, e) -> bool:
    """Whether b ** e is a float or raises OverflowError: not a zero base
    with a negative exponent (ZeroDivisionError), not a finite negative base
    with a fractional exponent (a complex number, or an OverflowError from
    complex exponentiation)."""
    try:
        b, e = float(b), float(e)  # as ** converts an int
    except OverflowError:
        return True
    if b == 0.0:
        return not (e < 0.0 and math.isfinite(e))
    return not (b < 0.0 and math.isfinite(b) and math.isfinite(e) and not e.is_integer())


def _into_domain(b, e, move_base: bool):
    """(b, e), the base or the exponent moved into the float domain of **."""
    if _in_float_domain(b, e):
        return b, e
    if move_base:
        return (1.0 if b == 0 else -b), e
    return b, (-e if b == 0 else float(math.floor(e)))


def _power_outcome(fn):
    try:
        values = fn()
    except OverflowError:
        return ("raised", OverflowError)
    return ("value", [repr(v) for v in values])  # repr keeps -0.0 apart


@settings(max_examples=300, deadline=None)
@given(bases=st.lists(_pow_floats, min_size=1, max_size=12),
       expos=st.lists(_pow_floats, min_size=1, max_size=12),
       scalar=_pow_scalars, shape=st.sampled_from(("arrays", "scalar exponent", "scalar base")))
# np.power's SIMD loop differs from ** at these on numpy 2.4, x86-64
@example(bases=[4.541, 5.12, 3.742, 2.477], expos=[3.0], scalar=1.5, shape="scalar exponent")
@example(bases=[8.965, 3.233, 8.005, 9.918], expos=[-0.25], scalar=-0.25,
         shape="scalar exponent")
# subnormal results and results that underflow to 0.0 and -0.0
@example(bases=[0.5, 0.5, 2.0, -0.5, 1e-300, -5e-324, 5e-324],
         expos=[1074.0, 1075.0, -1074.0, 1075.0, 2.0, 3.0, 0.5], scalar=0, shape="arrays")
# overflow, a negative base's too
@example(bases=[2.0, -10.0], expos=[1.0, 309.0], scalar=0, shape="arrays")
@example(bases=[1.5], expos=[1e300], scalar=-10.0, shape="scalar base")
# an int base above 2**53, and one float() refuses
@example(bases=[1.0], expos=[1.0, 0.5, -3.0], scalar=2**53 + 1, shape="scalar base")
@example(bases=[1.0], expos=[0.0], scalar=10**400, shape="scalar base")
def test_powers_are_python_powers_bit_for_bit(bases, expos, scalar, shape):
    if shape == "arrays":
        pairs = [_into_domain(b, e, False) for b, e in zip(bases, expos)]
        base, expo = np.array([b for b, _ in pairs]), np.array([e for _, e in pairs])
    elif shape == "scalar exponent":
        pairs = [_into_domain(b, scalar, True) for b in bases]
        base, expo = np.array([b for b, _ in pairs]), scalar
    else:
        pairs = [_into_domain(scalar, e, False) for e in expos]
        base, expo = scalar, np.array([e for _, e in pairs])
    expected = _power_outcome(lambda: [b ** e for b, e in pairs])
    with np.errstate(all="ignore"):
        got = _power_outcome(lambda: expr._powers(base, expo).tolist())
    assert got == expected, (base, expo)


def test_abs_and_cbrt_block_forms_are_the_hooks_bit_for_bit():
    rng = np.random.default_rng(2301)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 20_000),
                         rng.standard_normal(2_000) * 10.0 ** rng.integers(-320, 308, 2_000),
                         [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf]])
    for name in ("abs", "cbrt"):
        hook = expr.FUNCTIONS[name]
        with np.errstate(all="ignore"):
            got = hook.block(xs).tolist()
        assert [v.hex() for v in got] == [hook.evaluate(x).hex() for x in xs.tolist()], name


def test_same_shape_trees_share_one_code_object():
    a = parse("2*x^3 + besselj(1, x)")
    b = parse("0.25*t^1.5 + bessely(0.5, t)", "t")
    assert a.evaluate(1.5) == 2 * 1.5 ** 3 + bessel_j(1.0, 1.5)
    assert b.evaluate(1.5) == 0.25 * 1.5 ** 1.5 + bessel_y(0.5, 1.5)
    assert a._fn.__code__ is b._fn.__code__
    # a different shape compiles its own code
    c = parse("2*x^3 - besselj(1, x)")
    c.evaluate(1.5)
    assert c._fn.__code__ is not a._fn.__code__


def test_compiled_state_leaves_eq_hash_and_repr_alone():
    a = parse("x^2+sin(x)")
    before = repr(a)
    hash(a)
    a.evaluate(0.3)
    fresh = parse("x^2+sin(x)")
    assert repr(a) == before == repr(fresh)
    assert a == fresh
    assert hash(a) == hash(fresh) == hash((a.root, a.variable_name))
    assert ExpressionAST(a.root, "t") != a
    again = pickle.loads(pickle.dumps(a))
    assert vars(again) == {"root": a.root, "variable_name": "x"}
    assert again == a and again.evaluate(0.4) == a.evaluate(0.4)


def test_constant_folding_matches_tree_walk():
    for source in ("2^3^2", "-(3/4)^2", "besselj(1, 2)*3", "2+2", "1e308*10", "0^2"):
        ast = parse(source)
        assert repr(expr._fold_const(ast.root)) == repr(_walk(ast.root, 0.0)), source
    # folded at parse time: the order of a Bessel hook
    call = parse("besselj(2^-1, x)").root
    assert call.args[0] == Const(0.5)
    with pytest.raises(EvalDomainError, match="division by zero in '1/0'"):
        parse("besselj(1/0, x)")


# ---------------------------------------------------------------------------
# printing trees built without the parser, so without parentheses

# finite floats only: -0.0 prints as 0, and an int constant re-parses as a float
_printable_constants = st.one_of(
    st.sampled_from([v for v in _SPECIAL_FLOATS if math.isfinite(v)]),
    st.floats(allow_nan=False, allow_infinity=False)).map(lambda v: v + 0.0)


@settings(max_examples=300, deadline=None)
@given(root=_trees(_printable_constants, 10),
       xs=st.lists(points, min_size=1, max_size=3), variable=st.sampled_from(("x", "t")))
def test_print_parse_print_is_a_fixpoint(root, xs, variable):
    ast = ExpressionAST(root, variable)
    text = ast.to_text()
    again = parse(text, variable)
    assert again.to_text() == text
    for x in xs:
        assert _outcome(again.evaluate, x) == _outcome(ast.evaluate, x), (text, x)
