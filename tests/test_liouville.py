import functools
import gc
import itertools
import json
import math
import operator
import re
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpkit import liouville
from slpkit.errors import NumericalError
from slpkit import expr
from slpkit.expr import (Add, Call, Const, Div, EvalDomainError, ExpressionAST, ExprError, Mul,
                         Neg, Pow, Sub, Var, parse)
from slpkit.inverse import CASE_LABELS, build_case
from slpkit.liouville import (QuadratureError, TransformError, TransformMap,
                              build_map, forward_transform, invariant_at_x)
from slpkit.problems import CanonicalSLP, PaineSpec, validate
from slpkit.verify import roundtrip_invariant

PI = math.pi


def canonical(p="1", q="0", r="1", a=0.0, b=PI):
    return CanonicalSLP(parse(p), parse(q), parse(r), a, b)


def classical_case4():
    """p=(x+s)^3, q=4(x+s), r=(x+s)^5 with s=sqrt(0.2) on (0, sqrt(2pi+.2)-s)."""
    return build_case("case4", PaineSpec(1.0, 0.1), C1=2.0).canonical


def test_identity_map():
    m = build_map(canonical(), 1e-10)
    assert m.t_of_x(1.0) == pytest.approx(1.0, abs=1e-12)
    assert m.domain_t[0] == 0.0
    assert m.domain_t[1] == pytest.approx(PI, abs=1e-12)


def test_constant_integrand_scaling():
    m = build_map(canonical(r="4", b=1.0), 1e-10)
    assert m.t_of_x(0.5) == pytest.approx(1.0, abs=1e-12)
    assert m.domain_t[1] == pytest.approx(2.0, abs=1e-12)


def test_case4_map_reaches_pi_by_quadrature():
    m = build_map(classical_case4(), 1e-10)
    assert abs(m.domain_t[1] - PI) <= 1e-9
    # interval length equals the analytic integral of sqrt(r/p) = x + sqrt(0.2)
    s = math.sqrt(0.2)
    b = classical_case4().b
    assert m.domain_t[1] - m.domain_t[0] == pytest.approx((b + s) ** 2 / 2 - s**2 / 2, abs=1e-10)


def test_map_monotone_and_self_consistent():
    m = build_map(classical_case4(), 1e-10)
    assert (np.diff(m._ts) > 0).all()
    for x in np.linspace(m.domain_x[0], m.domain_x[1], 37):
        x = float(x)
        t = m.t_of_x(x)
        assert abs(m.x_of_t(t) - x) <= 1e-10 * (1 + abs(x))
    # endpoint pinning is exact on the tabulated map
    assert m.t_of_x(m.domain_x[0]) == m.domain_t[0]
    assert m.t_of_x(m.domain_x[1]) == m.domain_t[1]


def test_build_map_rejects_invalid_problem_and_tolerance():
    with pytest.raises(TransformError):
        build_map(canonical(r="x", a=-1.0, b=1.0), 1e-10)
    with pytest.raises(TransformError):
        build_map(canonical(), -1.0)
    with pytest.raises(TransformError, match="nan"):
        build_map(canonical(), float("nan"))
    # an infinite tolerance would accept the unrefined grid as it stands
    with pytest.raises(TransformError, match="positive and finite, got inf"):
        build_map(canonical(), math.inf)


def test_build_map_reports_divergent_integrand():
    # p touches zero between validation samples; sqrt(r/p) is not integrable
    bad = canonical(p="(x-0.511)^2", b=1.0)
    assert validate(bad) == []
    with pytest.raises(QuadratureError):
        build_map(bad, 1e-10)


_CASE3_Y_ZERO = 0.745115928764406


@pytest.mark.parametrize("problem, x, message", [
    (canonical(p="(x-0.511)^2", b=1.0), 0.511,
     "sqrt(r/p) not evaluable mid-integration: division by zero in '1/(x-0.511)^2' "
     "at 0.511 on subinterval [0.511, 0.511]"),
    # p's interior zero near x = 0.745, which validate's samples miss
    (build_case("case3-Y", PaineSpec(1.0, 0.1), q0=1.0, r0=1.0).canonical, _CASE3_Y_ZERO,
     "sqrt(r/p) not evaluable mid-integration: division by zero in "
     "'1/(9.869604401089358*(x^2*bessely(1.118033988749895,3.141592653589793*x)^4))' "
     f"at {_CASE3_Y_ZERO!r} on subinterval [{_CASE3_Y_ZERO!r}, {_CASE3_Y_ZERO!r}]"),
], ids=["singular-p", "case3-Y-k1"])
def test_build_map_reaches_a_non_integrable_point_first(monkeypatch, problem, x, message):
    # the cells and halves where sqrt(r/p) is largest go first, so the walk
    # front lands on the pole after four evaluations per level instead of
    # first resolving every neighbour of it (148,122 evaluations on
    # singular-p); both fail inside the top base cell's subtree, before the
    # batch of every other base cell is evaluated
    seen = _count_sigma(monkeypatch)
    with pytest.raises(QuadratureError) as err:
        build_map(problem, 1e-10)
    assert str(err.value) == message
    assert err.value.lo == err.value.hi == x
    assert sum(seen.values()) <= 2 * 2048


def test_build_map_refuses_past_its_work_budget(monkeypatch):
    # case1 (k=2) makes 24,825 evaluations of sqrt(r/p); under a budget of
    # 20,000 it must fail loudly, naming the budget and a cell where
    # sqrt(r/p) is largest, inside the left-end base cell
    monkeypatch.setattr(liouville, "_MAX_EVALUATIONS", 20_000)
    problem = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical
    with pytest.raises(QuadratureError, match=r"^map refinement did not converge within 20000 "
                       r"evaluations of sqrt\(r/p\) on subinterval ") as err:
        build_map(problem, 1e-10)
    grid = np.linspace(problem.a, problem.b, liouville._BASE_NODES)
    assert grid[0] <= err.value.lo < err.value.hi <= grid[1]


def test_build_map_meets_a_pole_outside_the_top_base_cell():
    # r peaks near x = 0.2, so the top base cell sits there and the front
    # never sees p's zero at 0.511: the loop meets it
    problem = canonical(p="(x-0.511)^2", r="1+1e9*exp(-((x-0.2)/0.01)^2)", b=1.0)
    with pytest.raises(QuadratureError) as err:
        build_map(problem, 1e-10)
    assert str(err.value) == (
        "sqrt(r/p) not evaluable mid-integration: division by zero in "
        "'(1+1000000000*exp(-((x-0.2)/0.01)^2))/(x-0.511)^2' at 0.511 "
        "on subinterval [0.511, 0.511]")


def test_build_map_refuses_an_interval_too_narrow_for_its_grid(monkeypatch):
    # three floats cannot make 2,049 strictly increasing nodes: refused
    # before sqrt(r/p) is evaluated, not by the tabulated map's invariant
    seen = _count_sigma(monkeypatch)
    with pytest.raises(TransformError) as err:
        build_map(canonical(a=1.0, b=1.0000000000000004), 1e-10)
    assert str(err.value) == ("interval [1.0, 1.0000000000000004] holds too few floats "
                              "for a grid of 2049 nodes")
    assert not seen
    # a tiny interval of normal floats still builds
    m = build_map(canonical(b=1e-300), 1e-10)
    assert len(m._xs) == 2049 and m.domain_t == (0.0, 1e-300)


def _build_error(problem):
    with pytest.raises(QuadratureError) as err:
        build_map(problem, 1e-10)
    return type(err.value), str(err.value), err.value.lo, err.value.hi


@pytest.mark.parametrize("problem, cap, message", [
    (canonical(p="(x-0.511)^2", b=1.0), None, r"not evaluable .* at 0\.511 on"),
    # a work budget of 3 evaluations, spent before any cell is refined
    (build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical, 3,
     "map refinement did not converge"),
])
def test_batched_refinement_fails_as_the_walk_does(monkeypatch, problem, cap, message):
    # with no walk front every refined cell goes to the loop, which raises
    # the front's error, message and subinterval alike
    if cap is not None:
        monkeypatch.setattr(liouville, "_MAX_EVALUATIONS", cap)
    walked = _build_error(problem)
    assert re.search(message, walked[1])
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", 0)
    assert _build_error(problem) == walked


# the walk front's lookup budget, counted over a build: none, fewer than one
# cell's four lookups, part of the dive to singular-p's pole (the front meets
# it at its 160th lookup), past it, the default, 1,024, and more than case1's
# whole refinement takes (about 8,400 lookups), so that the front refines the
# top base cell alone
WHOLE_BUILD = 181_000
WALK_BUDGETS = (0, 1, 82, 256, liouville._WALK_LOOKUPS, 1024, WHOLE_BUILD)

# constructions whose p has a zero that no float hits, so sqrt(r/p) is not
# integrable there and the rule halves the cells about it without end:
# case2-C1 and case3-Y at the benchmark's constants, and three draws of a
# parameter sweep (seed 1)
UNBOUNDED = [
    ("case2-C1", 1.0, 0.1, {"q0": 2.0}),
    ("case3-Y", 0.75, 0.1, {"q0": 1.0, "r0": 1.0}),
    ("case3-J", 0.75, 1.0, {"q0": 1.7723202587262605, "r0": 1.2980586620981727}),
    ("case3-J", 1.0, 1.0, {"q0": -3.4541902478703603, "r0": 1.2925745748403497}),
    ("case3-Y", 2.0, 1.0, {"q0": 2.1490818462694463, "r0": 2.0646023436599354}),
]

# forward_transform on each of argv[1]'s constructions: seconds taken and the
# QuadratureError's text, then the process's peak RSS in KiB.  Linux's
# ru_maxrss would also count the RSS of the process that started this one
# (execve keeps the larger high-water mark), so VmHWM is read instead
_REFUSALS = """
import json, sys, time
from slpkit import PaineSpec, QuadratureError, build_case, forward_transform
runs = []
for label, k, m, params in json.loads(sys.argv[1]):
    problem = build_case(label, PaineSpec(k, m), **params).canonical
    start = time.perf_counter()
    try:
        forward_transform(problem, 1e-10)
        message = None
    except QuadratureError as err:
        message = str(err)
    runs.append((time.perf_counter() - start, message))
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"runs": runs, "peak_kib": peak}))
"""


def test_forward_transform_refuses_unbounded_refinement_within_its_budget():
    # in a process of its own, so that its peak RSS is that of these builds
    src = os.path.dirname(os.path.dirname(liouville.__file__))
    proc = subprocess.run([sys.executable, "-c", _REFUSALS, json.dumps(UNBOUNDED)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    budget = (f"map refinement did not converge within {liouville._MAX_EVALUATIONS} "
              "evaluations of sqrt(r/p) on subinterval ")
    for case, (seconds, message) in zip(UNBOUNDED, report["runs"]):
        assert message is not None and message.startswith(budget), (case, message)
        assert seconds < 2.0, (case, seconds)
    assert report["peak_kib"] < 150 * 1024


@pytest.mark.parametrize("x0", [0.01, -0.01, 0.5, -0.5])
def test_translated_case1_builds_and_meets_the_round_trip_bound(x0):
    # at x0 = +-0.01 the recursive Simpson quadrature, which the rule does
    # not have, failed on a cell 6e-17 wide at the left end; at +-0.5 the
    # build took seconds, in the walk the batched run fell back to
    spec = PaineSpec(2.0, 0.1)
    result = build_case("case1", spec, r0=1.0, x0=x0)
    _, m = forward_transform(result.canonical, 1e-10)
    assert abs(m.domain_t[1] - PI) <= 4e-10
    assert roundtrip_invariant(result, spec, samples=101) <= 1e-8
def test_invariant_constant_coefficients():
    prob = canonical()
    for x in (0.1, 1.0, 2.9):
        assert invariant_at_x(prob, x) == pytest.approx(0.0, abs=1e-13)
    assert invariant_at_x(canonical(q="5"), 1.3) == pytest.approx(5.0, abs=1e-12)


def test_invariant_case4_matches_target():
    prob = classical_case4()
    s = math.sqrt(0.2)
    x = 0.5
    t = -0.1 + (x + s) ** 2 / 2  # closed-form map
    assert abs(invariant_at_x(prob, x) - 1.0 / (t + 0.1) ** 2) <= 1e-8


def test_forward_transform_identity_problem():
    reduced, m = forward_transform(canonical(), 1e-10)
    assert reduced.alpha == 0.0
    assert reduced.beta == pytest.approx(PI, abs=1e-12)
    for j in range(1, 102):
        t = PI * j / 102
        assert abs(reduced.invariant.evaluate(t)) <= 1e-12


def test_forward_transform_case4_roundtrip():
    reduced, _ = forward_transform(classical_case4(), 1e-10)
    sup = 0.0
    for j in range(1, 102):
        t = PI * j / 102
        sup = max(sup, abs(reduced.invariant.evaluate(t) - 1.0 / (t + 0.1) ** 2))
    assert sup <= 1e-8


def test_forward_transform_case1_roundtrip():
    # the map has an endpoint derivative blow-up; needs the refined grid
    prob = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0, branch="plus").canonical
    reduced, _ = forward_transform(prob, 1e-12)
    sup = 0.0
    for j in range(1, 102):
        t = PI * j / 102
        sup = max(sup, abs(reduced.invariant.evaluate(t) - 2.0 / (t + 0.1) ** 2))
    assert sup <= 1e-8


def test_x_of_t_examples():
    ident = build_map(canonical(), 1e-10)
    assert ident.x_of_t(1.0) == pytest.approx(1.0, abs=1e-12)
    assert ident.x_of_t(0.0) == 0.0  # endpoint pinning

    res = build_case("case4", PaineSpec(1.0, 0.1), C1=2.0)
    b_expected = math.sqrt(2 * PI + 0.2) - math.sqrt(0.2)
    assert abs(res.map.x_of_t(PI) - b_expected) <= 1e-10

    with pytest.raises(TransformError):
        ident.x_of_t(4.0)


def test_x_of_t_raises_instead_of_returning_an_unconverged_point():
    # at x ~ 1000 a 1e-6 cell cannot resolve t to 1e-13: the best point is
    # ~6e-8 off, and x_of_t must say so rather than return it
    steep = TransformMap.tabulated([1000.0, 1000.0 + 1e-6], [0.0, 1.0], [1e6, 1e6])
    with pytest.raises(NumericalError, match=r"t=0\.5"):
        steep.x_of_t(0.5)


def _x_of_t_many_and_one_by_one(map_, ts, form=list):
    """The outcomes of x_of_t_many(form(ts)) and of x_of_t at each t of ts
    in turn, up to the first t that fails: the values' hex (None where an
    error is raised), and the error's type and text there."""
    try:
        xs, err = map_.x_of_t_many(form(ts))
    except Exception as raised:
        many = None, type(raised), str(raised)
    else:
        assert type(xs) is np.ndarray and xs.dtype == np.float64
        many = [x.hex() for x in xs.tolist()], type(err), str(err)
    one_by_one = []
    for t in ts:
        try:
            one_by_one.append(map_.x_of_t(t).hex())
        except (TransformError, NumericalError) as failure:
            return many, (one_by_one, type(failure), str(failure))
        except Exception as raised:
            return many, (None, type(raised), str(raised))
    return many, (one_by_one, type(None), "None")


def _case4_maps():
    return (build_map(classical_case4(), 1e-10),
            build_case("case4", PaineSpec(1.0, 0.1), C1=2.0).map)


def test_x_of_t_many_reads_any_iterable_of_numbers_once():
    for map_ in _case4_maps():
        alpha, beta = map_.domain_t
        ts = [alpha + (beta - alpha) * i / 20 for i in range(21)]
        for form in (list, tuple, np.array, lambda ts: (t for t in ts)):
            many, one_by_one = _x_of_t_many_and_one_by_one(map_, ts, form)
            assert many == one_by_one and len(many[0]) == 21
        for ts in ([], [np.float64(0.5), np.float32(0.25), 1, np.int64(2), 3]):
            many, one_by_one = _x_of_t_many_and_one_by_one(map_, ts)
            assert many == one_by_one and many[1] is type(None)
        # float() refuses a t: raised, unless a t before it is off the map
        for ts in ([0.5, "half"], [0.5, 4.0, "half"], [0.5, None]):
            many, one_by_one = _x_of_t_many_and_one_by_one(map_, ts)
            assert many == one_by_one, ts


def test_x_of_t_many_takes_a_float64_array_as_a_list():
    # a float64 array is read without float() per element: values, errors
    # and texts stay those of the list, and the array is left as it was
    steep = TransformMap.tabulated([1000.0, 1000.0 + 1e-6], [0.0, 1.0], [1e6, 1e6])
    for map_ in _case4_maps() + (steep,):
        alpha, beta = map_.domain_t
        on_map = [alpha + (beta - alpha) * i / 8 for i in range(9)]
        for t in (math.nan, beta + 1.0, -0.0, None):
            ts = on_map if t is None else on_map[:4] + [t] + on_map[4:]
            array = np.array(ts)
            kept = array.tobytes()
            outcomes = [_x_of_t_many_and_one_by_one(map_, ts, form)
                        for form in (list, tuple, lambda ts: array)]
            assert outcomes[0] == outcomes[1] == outcomes[2], (map_, t)
            assert outcomes[0][0] == outcomes[0][1], (map_, t)
            assert array.tobytes() == kept
    # off the map: the text gives the t as the float it is
    many, _ = _x_of_t_many_and_one_by_one(_case4_maps()[1], [0.5, math.nan], np.array)
    assert many[1] is TransformError and many[2].startswith("t=nan outside")


def test_x_of_t_many_edges_match_x_of_t():
    # x(t) = t keeps the sign of t = -0.0, which _clip keeps; a copy made
    # by the constructor has no node arrays from tabulated() and makes them
    identity = TransformMap.closed_form(parse("x"), parse("t", "t"), (0.0, PI), (0.0, PI))
    tabulated, closed = _case4_maps()
    for map_ in (tabulated, closed, identity, replace(tabulated)):
        alpha, beta = map_.domain_t
        span = beta - alpha
        # _clip's slack: 1e-10 of the domain's scale beyond each end
        low = alpha - 1e-10 * (1 + abs(alpha) + span)
        high = beta + 1e-10 * (1 + abs(beta) + span)
        inside = [alpha, beta, -0.0, low, high]
        beyond = [math.nan, math.inf, -math.inf, np.nextafter(low, -math.inf),
                  np.nextafter(high, math.inf)]
        for t in inside + beyond:
            many, one_by_one = _x_of_t_many_and_one_by_one(map_, [1.0, t, 2.0])
            assert many == one_by_one, t
            assert len(many[0]) == (3 if t in inside else 1), t
            assert many[1] is (type(None) if t in inside else TransformError), t


def test_x_of_t_many_gives_the_unconverged_point_error():
    steep = TransformMap.tabulated([1000.0, 1000.0 + 1e-6], [0.0, 1.0], [1e6, 1e6])
    for ts in ([0.0, 0.5, 2.0], [0.0, 2.0, 0.5], [1.0, 0.25, 0.5]):
        many, one_by_one = _x_of_t_many_and_one_by_one(steep, ts)
        assert many == one_by_one, ts
    assert many[1] is NumericalError and "t=0.25" in many[2]


def test_x_of_t_many_raises_a_closed_form_error_before_the_t_off_the_map():
    failing = TransformMap.closed_form(parse("x"), parse("1/(t-0.5)", "t"), (0.0, 1.0), (0.0, 1.0))
    many, one_by_one = _x_of_t_many_and_one_by_one(failing, [0.25, 0.5, 2.0])
    assert many == one_by_one
    assert many == (None, EvalDomainError, "division by zero in '1/(t-0.5)' at 0.5")
    many, one_by_one = _x_of_t_many_and_one_by_one(failing, [0.25, 2.0, 0.5])
    assert many == one_by_one
    assert many[0] == [(-4.0).hex()] and many[1] is TransformError


@st.composite
def _tabulated_maps(draw):
    n = draw(st.integers(2, 12))
    steps = st.lists(st.floats(1e-6, 10.0), min_size=n - 1, max_size=n - 1)
    xs = itertools.accumulate(draw(steps), initial=draw(st.floats(-1e3, 1e3)))
    ts = itertools.accumulate(draw(steps), initial=draw(st.floats(-10.0, 10.0)))
    slopes = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    return TransformMap.tabulated(list(xs), list(ts), slopes)


def _queries(domain):
    """Lists of t mostly on the map, some near its ends, and special values."""
    alpha, beta = domain
    slack = 1e-9 * (1.0 + abs(alpha) + abs(beta) + (beta - alpha))
    on_map = st.floats(alpha, beta)
    return st.lists(st.one_of(
        on_map, on_map, on_map, st.floats(alpha - slack, beta + slack),
        st.sampled_from([alpha, beta, -0.0, math.nan, math.inf, -math.inf])), max_size=40)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_x_of_t_many_is_x_of_t_bit_for_bit_on_random_maps(data):
    map_ = data.draw(_tabulated_maps())
    many, one_by_one = _x_of_t_many_and_one_by_one(map_, data.draw(_queries(map_.domain_t)))
    assert many == one_by_one


@functools.lru_cache(maxsize=None)
def _forward_map(label, k):
    params = {"C1": 2.0} if label == "case4" else {"r0": 1.0}
    return forward_transform(build_case(label, PaineSpec(k, 0.1), **params).canonical, 1e-10)[1]


@pytest.mark.parametrize("label, k", [("case4", 1.0), ("case1", 2.0)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_x_of_t_many_is_x_of_t_bit_for_bit_on_transformed_maps(label, k, data):
    map_ = _forward_map(label, k)
    many, one_by_one = _x_of_t_many_and_one_by_one(map_, data.draw(_queries(map_.domain_t)))
    assert many == one_by_one


def test_forward_transform_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        forward_transform(classical_case4(), 1e-10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_schrodinger_invariant_wrapper_validates():
    reduced, _ = forward_transform(classical_case4(), 1e-10)
    assert validate(reduced) == []


def _many_and_one_by_one(invariant, ts):
    """The outcomes of evaluate_many(ts) and of evaluate at each t in turn,
    up to the first t that fails: the values' hex, and the error's type and
    text there."""
    values, err = invariant.evaluate_many(ts)
    assert type(values) is np.ndarray and values.dtype == np.float64
    many = [v.hex() for v in values.tolist()], type(err), str(err)
    one_by_one = []
    for t in ts:
        try:
            one_by_one.append(invariant.evaluate(t).hex())
        except (EvalDomainError, TransformError, NumericalError) as failure:
            return many, (one_by_one, type(failure), str(failure))
    return many, (one_by_one, type(None), "None")


def test_tabulated_invariant_evaluate_many_matches_evaluate():
    reduced, _ = forward_transform(classical_case4(), 1e-10)
    ts = [reduced.alpha + (reduced.beta - reduced.alpha) * i / 200 for i in range(201)]
    many, one_by_one = _many_and_one_by_one(reduced.invariant, ts)
    assert many == one_by_one
    # q/r fails at x = 0.5, which the linear map puts at t = 0.5, and t = 2.0
    # is off the map: whichever comes first is the error, as point by point
    invariant = liouville.TabulatedInvariant(
        canonical(q="1/(x-0.5)", b=1.0), TransformMap.tabulated([0.0, 1.0], [0.0, 1.0], [1.0, 1.0]))
    for ts in ([0.25, 0.5, 2.0], [2.0, 0.25, 0.5], [0.25, 2.0, 0.5], [0.25, 0.75, 2.0],
               [0.25, 0.75]):
        many, one_by_one = _many_and_one_by_one(invariant, ts)
        assert many == one_by_one, ts


def test_tabulated_invariant_evaluate_many_stops_at_the_first_t_off_the_map(monkeypatch):
    # x(t) is one x_of_t_many batch, with no scalar x_of_t call, and the
    # invariant one batch of the x before the t that fails, not of every t
    invariant = liouville.TabulatedInvariant(
        canonical(b=1.0), TransformMap.tabulated([0.0, 1.0], [0.0, 1.0], [1.0, 1.0]))
    calls, batches = [], []
    x_of_t = invariant.map.x_of_t
    monkeypatch.setattr(invariant.map, "x_of_t", lambda t: calls.append(t) or x_of_t(t))
    evaluate_many = invariant._invariant.evaluate_many
    monkeypatch.setattr(invariant, "_invariant", SimpleNamespace(
        evaluate_many=lambda xs: batches.append(xs.tolist()) or evaluate_many(xs)))
    values, err = invariant.evaluate_many([0.25, 0.75, 2.0, 0.5])
    assert len(values) == 2
    assert isinstance(err, TransformError) and "t=2.0 outside map domain" in str(err)
    assert calls == []
    assert batches == [[0.25, 0.75]]


# ---------------------------------------------------------------------------
# reference construction: the acceptance rule, on floats, cell by cell from
# the left, evaluating sqrt(r/p) afresh wherever it needs it; build_map must
# reproduce its nodes bit for bit


def _oracle_simpson(fn, a, b, eps):
    """One step of adaptive Simpson on [a, b]: the halves' sum plus its
    Richardson term, and whether the step passes."""
    m = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(m), fn(b)
    flm, frm = fn(0.5 * (a + m)), fn(0.5 * (m + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    passes = abs(delta) <= 15.0 * eps or abs(delta) <= 60.0 * 2.2e-16 * (abs(left) + abs(right))
    return left + right + delta / 15.0, passes


def _oracle_build_map(problem, quad_tol, base_nodes=2049):
    evaluate = liouville._sigma_ast(problem).evaluate

    def sigma(x):
        # a point where sqrt(r/p) fails, named as build_map names it
        try:
            return evaluate(x)
        except ExprError as err:
            raise QuadratureError(f"sqrt(r/p) not evaluable mid-integration: {err}",
                                  x, x) from None

    a, b = problem.a, problem.b
    ncells = base_nodes - 1
    cell_tol = quad_tol / ncells
    cells = []
    grid = np.linspace(a, b, base_nodes)
    for x in grid:  # a failing node is reported before any point between nodes
        sigma(float(x))
    for i in range(ncells):
        stack = [(float(grid[i]), float(grid[i + 1]))]
        while stack:
            x0, x1 = stack.pop()
            xm = 0.5 * (x0 + x1)
            left, left_passes = _oracle_simpson(sigma, x0, xm, 0.5 * cell_tol)
            right, right_passes = _oracle_simpson(sigma, xm, x1, 0.5 * cell_tol)
            predicted = liouville._hermite_value(xm, x0, x1, 0.0, left + right,
                                                 sigma(x0), sigma(x1))
            # a cell too narrow to halve is accepted as it stands
            if not x0 < xm < x1 or (left_passes and right_passes
                                    and abs(predicted - left) <= quad_tol):
                cells.append((x1, left + right))
            else:
                stack += [(xm, x1), (x0, xm)]
    xs = np.empty(len(cells) + 1)
    ts = np.empty(len(cells) + 1)
    xs[0], ts[0] = a, 0.0
    acc = 0.0
    for i, (x1, integral) in enumerate(cells):
        acc += integral
        xs[i + 1], ts[i + 1] = x1, acc
    ds = np.array([sigma(float(x)) for x in xs])
    sec = np.diff(ts) / np.diff(xs)
    limit = 3.0 * np.minimum(np.concatenate([sec[:1], sec]),
                             np.concatenate([sec, sec[-1:]]))
    ds = np.minimum(ds, limit)
    return SimpleNamespace(_xs=xs.tolist(), _ts=ts.tolist(), _ds=ds.tolist())


@pytest.mark.parametrize("label, k, params, nodes", [
    ("case4", 1.0, {"C1": 2.0}, 2049),
    ("case1", 2.0, {"r0": 1.0}, 3104),
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}, None),
    ("case4-general", 1.0, {"C1": 2.0, "n_r": 2.99}, None),
    ("case3-J", 0.75, {"q0": 1.0, "r0": 1.0}, None),
])
def test_build_map_matches_reference_bit_for_bit(label, k, params, nodes):
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    m = build_map(problem, 1e-10)
    oracle = _oracle_build_map(problem, 1e-10)
    assert m._xs == oracle._xs
    assert m._ts == oracle._ts
    assert m._ds == oracle._ds
    if nodes is not None:
        assert len(m._xs) == nodes


# ---------------------------------------------------------------------------
# an independent oracle: t at the map's nodes against an mpmath quadrature of
# sqrt(r/p), every operation of the expression done in mpmath at 30 digits

_MP_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv,
           Pow: operator.pow}
_MP_HOOKS = {"exp": mpmath.exp, "ln": mpmath.log, "sin": mpmath.sin, "cos": mpmath.cos,
             "sqrt": mpmath.sqrt, "besselj": mpmath.besselj, "bessely": mpmath.bessely,
             "abs": abs, "cbrt": lambda u: mpmath.sign(u) * mpmath.cbrt(abs(u))}


def _mp_function(node):
    """The expression tree `node` as a function of an mpmath x."""
    if isinstance(node, Const):
        value = mpmath.mpf(node.value)
        return lambda x: value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        a = _mp_function(node.a)
        return lambda x: -a(x)
    if isinstance(node, Call):
        hook, args = _MP_HOOKS[node.name], [_mp_function(arg) for arg in node.args]
        return lambda x: hook(*(arg(x) for arg in args))
    op, a, b = _MP_OPS[type(node)], _mp_function(node.a), _mp_function(node.b)
    return lambda x: op(a(x), b(x))


def _assert_nodes_match(m, t_between, bound):
    """t at nine of m's nodes, evenly spread by index (nodes crowd where
    sqrt(r/p) is steep), against the running sum of t_between(x0, x1),
    the integral of sqrt(r/p) between successive ones, at 30 digits."""
    picked = np.unique(np.linspace(0, len(m._xs) - 1, 9).astype(int)).tolist()
    with mpmath.workdps(30):
        t = mpmath.mpf(m._ts[0])
        for i, j in zip(picked, picked[1:]):
            t += t_between(mpmath.mpf(m._xs[i]), mpmath.mpf(m._xs[j]))
            assert abs(t - m._ts[j]) <= bound, (m._xs[j], float(t - m._ts[j]))


# every construction forward_transform accepts at the constants of
# INVERSE_CASES, the other case1 variants and translated case1
ACCEPTED_CASES = [
    ("case1", 2.0, 0.1, {"r0": 1.0}),
    ("case1", 2.0, 0.1, {"r0": 1.0, "branch": "minus"}),
    ("case1", 0.75, 0.1, {"r0": 1.0}),
    ("case1", 0.75, 0.1, {"r0": 1.0, "k34_branch": "exponential"}),
    ("case1", 2.0, 0.1, {"r0": 1.0, "x0": 0.01}),
    ("case2-A1", 0.75, 0.1, {"q0": 1.0}),
    ("case2-A2", 0.75, 1.5, {"q0": 1.0}),
    ("case2-B", 3.0, 0.1, {"q0": 1.0}),
    ("case2-C2", 1.0, 1.2, {"q0": 2.0}),
    ("case3-J", 0.75, 0.1, {"q0": 1.0, "r0": 1.0}),
    ("case4", 1.0, 0.1, {"C1": 2.0}),
    ("case4-general", 1.0, 0.1, {"C1": 2.0, "n_r": 2.99}),
]


@pytest.mark.parametrize("label, k, m, params", ACCEPTED_CASES)
def test_map_nodes_match_an_mpmath_quadrature(label, k, m, params):
    # the map's own error budget is quad_tol; twice that covers the
    # rounding of the running sum over a few thousand cells
    problem = build_case(label, PaineSpec(k, m), **params).canonical
    integrand = _mp_function(liouville._sigma_ast(problem).root)
    _assert_nodes_match(build_map(problem, 1e-10),
                        lambda x0, x1: mpmath.quad(integrand, [x0, x1]), 2e-10)


# the shapes of the benchmark's transform workload, each constant fixed
TRANSFORM_SHAPES = [
    ("case4", 1.0, {"C1": 2.0}),
    ("case1", 2.0, {"r0": 1.0}),
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}),
    ("case4-general", 1.0, {"C1": 2.0, "n_r": 2.99}),
    ("case3-J", 0.75, {"q0": 1.0, "r0": 1.0}),
]


def _outcome(build, problem):
    """build(problem, 1e-10)'s nodes, or its QuadratureError's text and
    subinterval."""
    try:
        m = build(problem, 1e-10)
    except QuadratureError as err:
        return str(err), err.lo, err.hi
    return m._xs, m._ts, m._ds


def _recording_refinements(monkeypatch):
    """The list of the cells passed to each _refine call."""
    runs = []
    refine = liouville._refine

    def recording(cells, *args):
        runs.append(cells)
        return refine(cells, *args)

    monkeypatch.setattr(liouville, "_refine", recording)
    return runs


_BUDGET_PROBLEMS = {
    "case1": build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical,
    "singular-p": canonical(p="(x-0.511)^2", b=1.0),
}


@pytest.fixture(scope="module")
def budget_oracles():
    return {name: _outcome(_oracle_build_map, problem)
            for name, problem in _BUDGET_PROBLEMS.items()}


@pytest.mark.parametrize("budget", WALK_BUDGETS)
@pytest.mark.parametrize("name", sorted(_BUDGET_PROBLEMS))
def test_build_map_matches_reference_at_every_walk_budget(monkeypatch, budget_oracles,
                                                          name, budget):
    # the front and the loop apply one rule to cells that depend on nothing
    # else, so where the front stops changes no bit of a map or an error
    problem = _BUDGET_PROBLEMS[name]
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", budget)
    runs = _recording_refinements(monkeypatch)
    assert _outcome(build_map, problem) == budget_oracles[name]
    # the loop gets the other base cells whole and the cells the front
    # leaves, each inside one base cell and no wider than it
    grid = np.linspace(problem.a, problem.b, liouville._BASE_NODES)
    for cells in runs:
        x0, x1 = cells[:2]
        i = np.searchsorted(grid, x0, side="right") - 1
        assert (x1 <= grid[i + 1]).all() and (x1 - x0 <= grid[i + 1] - grid[i]).all()
    if name == "singular-p":
        # from its 160th lookup the front itself meets the pole
        assert not runs if budget >= 256 else len(runs) == 1
        return
    assert len(runs) == 1


@pytest.mark.parametrize("label, k, params", TRANSFORM_SHAPES)
def test_build_map_hands_over_once_within_its_budget(monkeypatch, label, k, params):
    # one loop per build at most, and no more scalar evaluations of
    # sqrt(r/p) than the front's lookup budget for the whole build
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    scalar = Counter()
    _count_sigma(monkeypatch, scalar)
    runs = _recording_refinements(monkeypatch)
    build_map(problem, 1e-10)
    assert len(runs) <= 1
    assert sum(scalar.values()) <= liouville._WALK_LOOKUPS


class _FailingSigma:
    """sqrt(r/p) failing at the points of `fails`, one by one and in batches."""

    def __init__(self, expr, fails):
        self.expr, self.fails = expr, fails

    def evaluate(self, x):
        if x in self.fails:
            raise EvalDomainError("made to fail", "sqrt(r/p)", x)
        return self.expr.evaluate(x)

    def evaluate_many(self, xs):
        xs = xs.tolist()
        for i, x in enumerate(xs):
            if x in self.fails:
                values, _ = self.expr.evaluate_many(xs[:i])
                return values, EvalDomainError("made to fail in a batch", "sqrt(r/p)", x)
        return self.expr.evaluate_many(xs)


# sqrt(r/p) fails at both points: the later one, a depth-0 point of the
# batch of every base cell but the top one, is reached before the loop
# reaches the one in the left-end cell's refinement, which the reference,
# left to right, meets first
@pytest.mark.parametrize("fails", [("late", "later")], ids=["two-points-fail"])
def test_build_map_raises_at_the_first_failing_point_it_reaches(monkeypatch, fails):
    problem = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical
    grid = np.linspace(problem.a, problem.b, liouville._BASE_NODES).tolist()
    # a point of the left-end cell (the top one) that only the loop
    # reaches, past the front's budget, and the midpoint of another cell
    late = grid[0]
    for _ in range(9):
        late = 0.5 * (late + grid[1])
    points = {"late": late, "later": 0.5 * (grid[10] + grid[11])}
    sigma_ast = liouville._sigma_ast
    monkeypatch.setattr(liouville, "_sigma_ast", lambda problem: _FailingSigma(
        sigma_ast(problem), {points[p] for p in fails}))
    oracle = _outcome(_oracle_build_map, problem)
    outcome = _outcome(build_map, problem)
    assert oracle[1:] == (late, late)
    assert outcome[1:] == (points["later"], points["later"])
    assert outcome[0].startswith("sqrt(r/p) not evaluable mid-integration: made to fail in")


@settings(max_examples=6, deadline=None)
@given(c=st.floats(0.0, 1.0), w=st.floats(1e-3, 0.03))
def test_build_map_matches_reference_on_a_peaked_integrand(c, w):
    # sqrt(r/p) = 1/sqrt((x-c)^2 + w^2) peaks at c: cells there refine (from
    # w = 0.03 down), in the front or in the loop wherever the front's budget
    # runs out.  The rule keeps 1-2 more nodes here than the recursive Simpson
    # quadrature did, so t at the nodes is also checked against the exact
    # integral asinh((x-c)/w) + asinh(c/w)
    problem = CanonicalSLP(parse(f"(x-{c!r})^2+{w!r}^2"), parse("0"), parse("1"), 0.0, 1.0)
    oracle = _oracle_build_map(problem, 1e-10)
    for budget in WALK_BUDGETS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(liouville, "_WALK_LOOKUPS", budget)
            m = build_map(problem, 1e-10)
        assert len(m._xs) > 2049  # some cell refined
        assert m._xs == oracle._xs
        assert m._ts == oracle._ts
        assert m._ds == oracle._ds
    with mpmath.workdps(30):
        center, width = mpmath.mpf(c), mpmath.mpf(w)
        _assert_nodes_match(m, lambda x0, x1: (mpmath.asinh((x1 - center) / width)
                                               - mpmath.asinh((x0 - center) / width)), 2e-10)


def _count_sigma(monkeypatch, scalar=None):
    """Counter of the points at which build_map evaluates sqrt(r/p), one
    by one or in batches; the Counter `scalar`, where given, counts those
    evaluated one by one."""
    seen = Counter()
    sigma_ast = liouville._sigma_ast

    class Counting:
        def __init__(self, expr):
            self.expr = expr

        def evaluate(self, x):
            seen[x] += 1
            if scalar is not None:
                scalar[x] += 1
            return self.expr.evaluate(x)

        def evaluate_many(self, xs):
            xs = [float(x) for x in xs]
            seen.update(xs)
            return self.expr.evaluate_many(xs)

    monkeypatch.setattr(liouville, "_sigma_ast", lambda problem: Counting(sigma_ast(problem)))
    return seen


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-1.0, 2.0), w=st.floats(1e-3, 1.0), a=st.floats(-1.0, 0.9),
       width=st.floats(1e-3, 1.0), tol=st.floats(1e-12, 1e-7))
def test_batched_trees_give_the_walks_values_at_every_node(c, w, a, width, tol):
    # the walk front applies the rule to floats, the loop to arrays: on a
    # tree of a cell and its halves three levels down, the loop gives every
    # node the walk's integral and verdict, bit for bit
    def fn(x):
        return 1.0 / ((x - c) ** 2 + w * w)

    xm, q1, q3 = liouville._points(a, a + width)[:3]
    level = [(a, a + width, fn(a), fn(a + width), fn(xm), fn(q1), fn(q3))]
    cells, eighths = [], []
    for _ in range(4):
        below = []
        for cell in level:
            values = [fn(x) for x in liouville._points(cell[0], cell[1])[3:]]
            cells.append(cell)
            eighths.append(values)
            below += liouville._halves(cell, values)
        level = below
    floats = [liouville._rule(cell, liouville._points(cell[0], cell[1]), values, tol, 1e-10)
              for cell, values in zip(cells, eighths)]
    columns, values = np.array(cells).T, np.array(eighths).T
    with np.errstate(all="ignore"):
        total, ok = liouville._rule(columns, liouville._points(columns[0], columns[1]),
                                    values, tol, 1e-10)
    assert [(v.hex(), bool(passes)) for v, passes in floats] == [
        (v.hex(), bool(passes)) for v, passes in zip(total.tolist(), ok)]


def test_rule_accepts_a_cell_too_narrow_to_halve():
    # with finite arithmetic a cell one ulp wide passes the rule anyway; where
    # the arithmetic overflows no test passes, and the ulp floor still
    # accepts a cell whose midpoint is at an end, while a cell two ulps wide,
    # with the same values, splits
    x0, s = 1e300, 1e154
    for width, accepted in ((1, True), (2, False)):
        x1 = x0
        for _ in range(width):
            x1 = math.nextafter(x1, math.inf)
        cell = (x0, x1, s, s, s, s, s)
        _, ok = liouville._rule(cell, liouville._points(x0, x1), [s] * 4, 1e-14, 1e-10)
        assert ok is accepted


def test_build_map_evaluates_sqrt_r_over_p_once_per_point(monkeypatch):
    seen = _count_sigma(monkeypatch)
    m = build_map(classical_case4(), 1e-10)
    assert len(m._xs) == 2049  # no cell refined
    assert set(m._xs) <= set(seen)
    assert max(seen.values()) == 1


@pytest.mark.parametrize("label, k, params, total, budget", [
    # refined cells that re-evaluated their parent's points would make 203,963;
    # case1's top base cell is left to the loop at a budget of 1 and in part
    # at the default, and refined by the front alone at WHOLE_BUILD
    *[("case1", 2.0, {"r0": 1.0}, 24_825, budget)
      for budget in (1, liouville._WALK_LOOKUPS, WHOLE_BUILD)],
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}, None, liouville._WALK_LOOKUPS),
])
def test_build_map_evaluates_a_refined_cell_at_most_twice_per_point(monkeypatch, label, k,
                                                                   params, total, budget):
    # a cell carries sqrt(r/p) at its ends, midpoint and quarter points to
    # its halves, in the front and in the loop alike: each point is
    # evaluated once
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", budget)
    seen = _count_sigma(monkeypatch)
    m = build_map(problem, 1e-10)
    assert len(m._xs) > 2049  # some cell refined
    assert max(seen.values()) == 1
    if total is not None:
        assert sum(seen.values()) == total


@pytest.mark.parametrize("budget", [0, liouville._WALK_LOOKUPS, WHOLE_BUILD])
@pytest.mark.parametrize("label, k, params", [
    ("case1", 2.0, {"r0": 1.0}),
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}),
    ("case3-J", 0.75, {"q0": 1.0, "r0": 1.0}),
])
def test_batched_refinement_evaluates_only_points_never_evaluated(monkeypatch, label, k,
                                                                   params, budget):
    # the loop's evaluate_many batches hold only eighth points of its cells,
    # none evaluated before in the build and none twice; so the points of
    # every accepted cell (its ends, midpoint, quarter and eighth points)
    # are each evaluated once
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", budget)
    seen = Counter()
    again, batched, refining = [], [], []
    sigma_ast = liouville._sigma_ast

    class Recording:
        def __init__(self, expr):
            self.expr = expr

        def evaluate(self, x):
            seen[x] += 1
            return self.expr.evaluate(x)

        def evaluate_many(self, xs):
            xs = [float(x) for x in xs]
            if refining:
                again.extend(x for x in xs if seen[x])
                batched.extend(xs)
            seen.update(xs)
            return self.expr.evaluate_many(xs)

    monkeypatch.setattr(liouville, "_sigma_ast", lambda problem: Recording(sigma_ast(problem)))
    refine = liouville._refine

    def recording(*args):
        refining.append(True)
        try:
            return refine(*args)
        finally:
            refining.pop()

    monkeypatch.setattr(liouville, "_refine", recording)
    m = build_map(problem, 1e-10)
    assert again == []
    assert max(Counter(batched).values(), default=1) == 1
    if budget == 0:
        assert batched  # the loop evaluated deeper levels
    points = {x for lo, hi in zip(m._xs, m._xs[1:]) for x in (lo, hi, *liouville._points(lo, hi))}
    assert all(seen[x] == 1 for x in points)


def _assert_float_queries(m):
    (a, b), (alpha, beta) = m.domain_x, m.domain_t
    for x in (a, 0.3 * a + 0.7 * b, b):
        assert type(m.t_of_x(x)) is float
    for t in (alpha, 0.7 * alpha + 0.3 * beta, beta):
        assert type(m.x_of_t(t)) is float


def test_map_queries_return_python_floats():
    _assert_float_queries(build_map(classical_case4(), 1e-10))
    _assert_float_queries(build_case("case4", PaineSpec(1.0, 0.1), C1=2.0).map)
    # a cubic cell the first iterate misses, so x comes from a Newton step
    _assert_float_queries(TransformMap.tabulated([0.0, 1.0], [0.0, 1.0], [0.5, 2.0]))


def test_map_queries_reject_nan():
    tabulated = build_map(classical_case4(), 1e-10)
    closed = build_case("case4", PaineSpec(1.0, 0.1), C1=2.0).map
    for map_ in (tabulated, closed):
        for query in (map_.t_of_x, map_.x_of_t):
            with pytest.raises(TransformError, match=r"=nan outside map domain"):
                query(float("nan"))


def test_invariant_at_x_hashes_no_node_after_the_first_call(monkeypatch):
    problem = classical_case4()
    first = invariant_at_x(problem, 0.7)
    hashed = Counter()

    def counting(original):
        def __hash__(self):
            hashed[type(self).__name__] += 1
            return original(self)
        return __hash__

    for cls in (expr.Const, expr.Var, expr.Neg, expr.Add, expr.Sub, expr.Mul,
                expr.Div, expr.Pow, expr.Call):
        monkeypatch.setattr(cls, "__hash__", counting(cls.__hash__))
    assert invariant_at_x(problem, 0.7) == first
    assert hashed == Counter()


# ---------------------------------------------------------------------------
# the invariant as one expression against its eight components

# the constants of `slp invert` in the benchmark's INVERT_ARGS
INVERSE_CASES = {
    "case1": (2.0, 0.1, {"r0": 1.0}),
    "case2-A1": (0.75, 0.1, {"q0": 1.0}),
    "case2-A2": (0.75, 1.5, {"q0": 1.0}),
    "case2-B": (3.0, 0.1, {"q0": 1.0}),
    "case2-C1": (1.0, 0.1, {"q0": 2.0}),
    "case2-C2": (1.0, 1.2, {"q0": 2.0}),
    "case3-J": (0.75, 0.1, {"q0": 1.0, "r0": 1.0}),
    "case3-Y": (0.75, 0.1, {"q0": 1.0, "r0": 1.0}),
    "case4": (1.0, 0.1, {"C1": 2.0}),
    "case4-general": (1.0, 0.1, {"C1": 2.0, "n_r": 2.99}),
}


def _inverse_problem(label):
    k, m, params = INVERSE_CASES[label]
    return build_case(label, PaineSpec(k, m), **params).canonical


def _componentwise_invariant(problem, x):
    """p, q, r, w, w', w'', s, s' evaluated one by one, then
    I = q/r + (2 R^2 - w''/w) (p/r) - R s s',  R = w'/w,  s = sqrt(p/r)."""
    w = liouville.weight_ast(problem)
    wp = w.differentiate()
    s = ExpressionAST(Call("sqrt", (Div(problem.p.root, problem.r.root),)),
                      problem.p.variable_name)
    pv, qv, rv = problem.p.evaluate(x), problem.q.evaluate(x), problem.r.evaluate(x)
    wv, wpv, wppv = w.evaluate(x), wp.evaluate(x), wp.differentiate().evaluate(x)
    sv, spv = s.evaluate(x), s.differentiate().evaluate(x)
    ratio = wpv / wv
    return qv / rv + (2.0 * ratio * ratio - wppv / wv) * (pv / rv) - ratio * sv * spv


@pytest.mark.parametrize("label", CASE_LABELS)
def test_invariant_matches_componentwise_reference(label):
    problem = _inverse_problem(label)
    a, b = problem.a, problem.b
    # 201 points of the interval, and points off it where components fail
    xs = [a + (b - a) * j / 200 for j in range(201)] + [0.0, a - 1.0, b + 1.0, 1e300, -1e300]
    failures = 0
    for x in xs:
        try:
            expected = _componentwise_invariant(problem, x)
        except (EvalDomainError, ArithmeticError):
            expected = math.nan
        if math.isfinite(expected):
            assert invariant_at_x(problem, x).hex() == expected.hex(), x
        else:
            failures += 1
            with pytest.raises(EvalDomainError):
                invariant_at_x(problem, x)
    assert failures > 0


@pytest.mark.parametrize("label, name", [("case3-J", "besselj"), ("case3-Y", "bessely")])
def test_invariant_evaluates_each_bessel_factor_once(monkeypatch, label, name):
    # orders nu-2 .. nu+2 of p, p' and p'' (nu = 1): five distinct calls
    problem = _inverse_problem(label)
    x = 0.5 * (problem.a + problem.b)
    # the cached expression, compiled (if not yet) before the counting hook goes in
    expected = invariant_at_x(problem, x)
    calls = []
    hook = expr.FUNCTIONS[name]

    def counting(*args):
        calls.append(args)
        return hook.evaluate(*args)

    monkeypatch.setitem(expr.FUNCTIONS, name, replace(hook, evaluate=counting))
    # a fresh expression, past the cache, so it compiles with the counting hook
    value = liouville._invariant.__wrapped__(problem).evaluate(x)
    assert value == expected
    assert len(calls) <= 5
    assert len(set(calls)) == len(calls)
