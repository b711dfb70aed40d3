import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slpkit.errors import NumericalError
from slpkit.expr import _BLOCK, EvalDomainError, ExprError, parse
from slpkit.liouville import TransformError, forward_transform
from slpkit.problems import (CanonicalSLP, PaineSpec, SchrodingerSLP, Spectrum,
                             paine_schrodinger, validate)


def canonical(p="1", q="0", r="1", a=0.0, b=math.pi):
    return CanonicalSLP(parse(p), parse(q), parse(r), a, b)


def test_validate_accepts_constant_problem():
    assert validate(canonical()) == []


def test_validate_flags_sign_changing_weight():
    bad = validate(canonical(r="x", a=-1.0, b=1.0))
    assert any(v.code == "positivity" for v in bad)


def test_validate_flags_bad_interval():
    bad = validate(canonical(a=1.0, b=0.0))
    assert any(v.code == "interval" for v in bad)
    bad = validate(canonical(b=math.inf))
    assert any(v.code == "interval" for v in bad)


def test_validate_flags_an_interval_whose_width_overflows():
    # both ends are finite and ordered, but b - a is inf: a grid or a mesh
    # built across the interval would overflow
    message = "[interval] width must be finite, got [-1e+308, 1e+308]"
    bad = validate(canonical(a=-1e308, b=1e308))
    assert [str(v) for v in bad] == [message]
    bad = validate(SchrodingerSLP(parse("0", "t"), -1e308, 1e308))
    assert [str(v) for v in bad] == [message]
    # the widest interval whose width is a double is accepted
    assert validate(canonical(a=-8e307, b=8e307)) == []


def test_validate_flags_evaluation_failure():
    bad = validate(canonical(p="sqrt(x)", a=-1.0, b=1.0))
    assert any(v.code == "evaluation" for v in bad)


def test_validate_schrodinger_invariant_evaluability():
    good = SchrodingerSLP(parse("0", "t"), 0.0, math.pi)
    assert validate(good) == []
    bad = SchrodingerSLP(parse("ln(t-1)", "t"), 0.0, math.pi)
    assert any(v.code == "evaluation" for v in validate(bad))


def test_paine_schrodinger_values():
    prob = paine_schrodinger(PaineSpec(1.0, 0.1))
    assert prob.invariant.evaluate(0.0) == pytest.approx(100.0)
    assert prob.invariant.evaluate(math.pi) == pytest.approx(1.0 / (math.pi + 0.1) ** 2)
    assert prob.alpha == 0.0 and prob.beta == math.pi
    assert validate(prob) == []

    assert paine_schrodinger(PaineSpec(2.0, 1.0)).invariant.evaluate(0.0) == pytest.approx(2.0)
    assert paine_schrodinger(PaineSpec(0.75, 0.5)).invariant.evaluate(0.0) == pytest.approx(3.0)


def test_paine_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PaineSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        PaineSpec(1.0, -0.5)
    with pytest.raises(ValueError):
        PaineSpec(math.nan, 0.1)


def test_spectrum_requires_strict_ordering():
    Spectrum((1.0, 2.0, 3.0), 10, False, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 1.0), 10, False, (0.0, 0.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 2.0), 10, False, (0.0,))


@pytest.mark.parametrize("coefficients, message", [
    # p <= 0 at the first sample; p also raises past 0.7
    (("x - 0.3 + 0*ln(0.7 - x)", "0", "1"), "[positivity] p = -0.3 <= 0 at x=0.0"),
    # p passes; r is zero at 0.45 and raises past it
    (("1", "0", "sqrt(0.45 - x)"), "[positivity] r = 0.0 <= 0 at x=0.45"),
    (("1 + x*1e308*2", "0", "1"),
     "[evaluation] p failed at x=0.9: nonfinite result in '1+x*1e+308*2' at 0.9"),
])
def test_validate_reports_the_first_failing_sample(coefficients, message):
    p, q, r = coefficients
    assert [str(v) for v in validate(canonical(p, q, r, 0.0, 1.0))] == [message]


def test_validate_reports_the_first_failing_invariant_sample():
    bad = SchrodingerSLP(parse("1/(t-0.3) + 0*sqrt(t-0.25)", "t"), 0.0, 1.0)
    assert [str(v) for v in validate(bad)] == [
        "[evaluation] invariant failed at t=0.0: sqrt of negative argument in "
        "'sqrt(t-0.25)' at 0.0"]


# ---------------------------------------------------------------------------
# evaluate_many: the values and the error of a point-by-point loop

def _loop_upto(fn, xs, errors):
    values = []
    for x in xs:
        try:
            values.append(fn.evaluate(x))
        except errors as err:
            return values, err
    return values, None


def _outcome(values, err):
    return [float(v).hex() for v in values], type(err), str(err)


def _float64_upto(values, err):
    """(values, err), checking values is a float64 array that ends at the
    failing point; an EvalDomainError's point must be a Python float."""
    assert type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1
    if isinstance(err, EvalDomainError):
        assert type(err.x) is float
    return values, err


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3 * _BLOCK), c=st.floats(-0.25, 1.25),
       form=st.sampled_from(["sqrt({c!r} - x)", "ln(x - {c!r})", "1/(x - {c!r})",
                             "exp(800*{c!r}*x)", "{c!r}*x*1e308*10", "x + {c!r}"]),
       as_array=st.booleans())
@example(n=3000, c=0.5, form="sqrt({c!r} - x)", as_array=True)  # fails in the second block
@example(n=3000, c=0.5, form="sqrt({c!r} - x)", as_array=False)
# the walk reads Python floats: evaluate's error at an np.float64 says so
@example(n=2, c=1.0, form="{c!r}*x*1e308*10", as_array=True)
def test_evaluate_many_matches_a_point_by_point_loop(n, c, form, as_array):
    fn = parse(form.format(c=c))
    grid = np.linspace(0.0, 1.0, n)
    xs = grid if as_array else grid.tolist()
    want = _outcome(*_loop_upto(fn, grid.tolist(), ExprError))
    assert _outcome(*_float64_upto(*fn.evaluate_many(xs))) == want


@functools.lru_cache(maxsize=None)
def _tabulated_invariant():
    reduced, _ = forward_transform(canonical("1 + x", "x", "2 - x", 0.0, 1.0))
    return reduced


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40), st.booleans())
def test_evaluate_many_matches_the_loop_on_a_tabulated_invariant(offsets, as_array):
    # a t off the map raises TransformError from x_of_t
    reduced = _tabulated_invariant()
    alpha, beta = reduced.alpha, reduced.beta
    ts = [alpha + (beta - alpha) * u for u in offsets]
    errors = (ExprError, TransformError, NumericalError)
    want = _outcome(*_loop_upto(reduced.invariant, ts, errors))
    got = reduced.invariant.evaluate_many(np.array(ts) if as_array else ts)
    assert _outcome(*_float64_upto(*got)) == want
