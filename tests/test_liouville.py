import gc
import math
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpkit import liouville
from slpkit.errors import NumericalError
from slpkit import expr
from slpkit.expr import Call, Div, EvalDomainError, ExpressionAST, ExprError, parse
from slpkit.inverse import CASE_LABELS, build_case
from slpkit.liouville import (QuadratureError, TransformError, TransformMap,
                              build_map, forward_transform, invariant_at_x)
from slpkit.problems import CanonicalSLP, PaineSpec, validate

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


def test_build_map_reaches_a_non_integrable_point_first(monkeypatch):
    # the cells and halves where sqrt(r/p) is largest go first, so the
    # descent lands on the pole after about two evaluations per level
    # instead of first resolving every neighbour of it (148,122 evaluations)
    seen = _count_sigma(monkeypatch)
    with pytest.raises(QuadratureError, match=r"at 0\.511 ") as err:
        build_map(canonical(p="(x-0.511)^2", b=1.0), 1e-10)
    assert err.value.lo == err.value.hi == 0.511
    assert sum(seen.values()) <= 2 * 2048


def test_build_map_refuses_a_cell_at_the_depth_cap(monkeypatch):
    # case1 (k=2) refines to depth 20 at its left end; a cap of 3 must fail
    # loudly there rather than accept an unconverged cell
    monkeypatch.setattr(liouville, "_MAX_CELL_DEPTH", 3)
    problem = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical
    with pytest.raises(QuadratureError, match="map refinement did not converge") as err:
        build_map(problem, 1e-10)
    assert err.value.lo == problem.a
    assert err.value.hi - err.value.lo == pytest.approx((problem.b - problem.a) / 2048 / 8)


def _build_error(problem):
    with pytest.raises(QuadratureError) as err:
        build_map(problem, 1e-10)
    return type(err.value), str(err.value), err.value.lo, err.value.hi


@pytest.mark.parametrize("problem, cap, message", [
    (canonical(p="(x-0.511)^2", b=1.0), None, r"not evaluable .* at 0\.511 on"),
    (build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical, 3,
     "map refinement did not converge"),
    # on a cell about 6e-17 wide near the translated left end
    (build_case("case1", PaineSpec(2.0, 0.1), r0=1.0, x0=0.01).canonical, None,
     r"quadrature did not converge on subinterval \[-0\.0099979833328126"),
    (build_case("case1", PaineSpec(2.0, 0.1), r0=1.0, x0=-0.01).canonical, None,
     r"quadrature did not converge on subinterval \[0\.0100020166671873"),
])
def test_batched_refinement_fails_as_the_walk_does(monkeypatch, problem, cap, message):
    # with no walk before the hand-over every refined cell goes to the
    # batches first; where they fail, the cells are walked and raise the
    # walk's error, message and subinterval alike
    if cap is not None:
        monkeypatch.setattr(liouville, "_MAX_CELL_DEPTH", cap)
    walked = _build_error(problem)
    assert re.search(message, walked[1])
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", 0)
    assert _build_error(problem) == walked


# the walk's lookup budget, counted over a build: none, one lookup, exactly
# the 82 lookups in which the walk meets singular-p's pole, the default,
# 1,024 (so that the cell the walk drops is walked deeper), and past case1's
# first chunk (its left-end cell, about 178,000 lookups), so that the budget
# runs out in its second
LATER_CHUNK = 181_000
WALK_BUDGETS = (0, 1, 82, liouville._WALK_LOOKUPS, 1024, LATER_CHUNK)


def _same_map(a, b):
    return (a._xs, a._ts, a._ds) == (b._xs, b._ts, b._ds)


def test_batched_refinement_past_its_node_bound_is_walked(monkeypatch):
    # batches that would hold more nodes than _MAX_NODES stop, and the
    # cells handed over are walked instead
    problem = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical
    m = build_map(problem, 1e-10)
    stopped = []
    refine = liouville._refine_batched

    def recording(*args):
        try:
            return refine(*args)
        except liouville._Fallback:
            stopped.append(args)
            raise

    monkeypatch.setattr(liouville, "_refine_batched", recording)
    monkeypatch.setattr(liouville, "_MAX_NODES", 3000)
    assert _same_map(build_map(problem, 1e-10), m)
    assert stopped


def test_a_chunk_is_walked_again_without_what_its_batches_accepted(monkeypatch):
    # batches that stop after accepting pieces leave none of them behind,
    # nor any piece the walk accepted in the cell it handed over (past
    # case1's first chunk, the walk accepts pieces in the cell where it stops)
    problem = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical
    m = build_map(problem, 1e-10)
    refine = liouville._refine_batched

    def stopping_at_the_end(*args):
        refine(*args)
        raise liouville._Fallback

    monkeypatch.setattr(liouville, "_refine_batched", stopping_at_the_end)
    for budget in (liouville._WALK_LOOKUPS, LATER_CHUNK):
        monkeypatch.setattr(liouville, "_WALK_LOOKUPS", budget)
        assert _same_map(build_map(problem, 1e-10), m)


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
    """The outcomes of evaluate_many(ts) and of evaluate at each t in turn:
    the values' hex, or the error's type and text."""
    outcomes = []
    for fn in (invariant.evaluate_many, lambda ts: [invariant.evaluate(t) for t in ts]):
        try:
            outcomes.append([v.hex() for v in fn(ts)])
        except (EvalDomainError, TransformError, NumericalError) as err:
            outcomes.append((type(err), str(err)))
    return outcomes


def test_tabulated_invariant_evaluate_many_matches_evaluate():
    reduced, _ = forward_transform(classical_case4(), 1e-10)
    ts = [reduced.alpha + (reduced.beta - reduced.alpha) * i / 200 for i in range(201)]
    many, one_by_one = _many_and_one_by_one(reduced.invariant, ts)
    assert many == one_by_one
    # q/r fails at x = 0.5, which the linear map puts at t = 0.5, and t = 2.0
    # is off the map: whichever comes first raises, as point by point
    invariant = liouville.TabulatedInvariant(
        canonical(q="1/(x-0.5)", b=1.0), TransformMap.tabulated([0.0, 1.0], [0.0, 1.0], [1.0, 1.0]))
    for ts in ([0.25, 0.5, 2.0], [2.0, 0.25, 0.5], [0.25, 2.0, 0.5], [0.25, 0.75, 2.0],
               [0.25, 0.75]):
        many, one_by_one = _many_and_one_by_one(invariant, ts)
        assert many == one_by_one, ts


def test_tabulated_invariant_evaluate_many_stops_at_the_first_t_off_the_map(monkeypatch):
    # x_of_t runs up to the t that fails, and no further: the invariant at
    # the x before it is one batch, not a second walk of every t
    invariant = liouville.TabulatedInvariant(
        canonical(b=1.0), TransformMap.tabulated([0.0, 1.0], [0.0, 1.0], [1.0, 1.0]))
    calls = []
    x_of_t = invariant.map.x_of_t
    monkeypatch.setattr(invariant.map, "x_of_t", lambda t: calls.append(t) or x_of_t(t))
    with pytest.raises(TransformError, match=r"t=2\.0 outside map domain"):
        invariant.evaluate_many([0.25, 0.75, 2.0, 0.5])
    assert calls == [0.25, 0.75, 2.0]


# ---------------------------------------------------------------------------
# reference construction: the earlier build_map, which evaluated sqrt(r/p) up
# to four times per point; build_map must reproduce its nodes bit for bit


def _oracle_simpson_step(fn, a, b, fa, fm, fb, estimate, eps, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - estimate
    if abs(delta) <= 15.0 * eps or abs(delta) <= 60.0 * 2.2e-16 * (abs(left) + abs(right)):
        return left + right + delta / 15.0
    if depth >= max_depth:
        raise QuadratureError("quadrature did not converge", a, b)
    half = 0.5 * eps
    return (_oracle_simpson_step(fn, a, m, fa, flm, fm, left, half, depth + 1, max_depth)
            + _oracle_simpson_step(fn, m, b, fm, frm, fb, right, half, depth + 1, max_depth))


def _oracle_adaptive_simpson(fn, lo, hi, tol, max_depth=48):
    flo, fhi = fn(lo), fn(hi)
    mid = 0.5 * (lo + hi)
    fmid = fn(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _oracle_simpson_step(fn, lo, hi, flo, fmid, fhi, whole, tol, 0, max_depth)


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
    svals = [sigma(float(x)) for x in grid]
    for i in range(ncells):
        stack = [(float(grid[i]), float(grid[i + 1]), svals[i], svals[i + 1], 0)]
        while stack:
            x0, x1, s0, s1, depth = stack.pop()
            xm = 0.5 * (x0 + x1)
            left = _oracle_adaptive_simpson(sigma, x0, xm, 0.5 * cell_tol)
            right = _oracle_adaptive_simpson(sigma, xm, x1, 0.5 * cell_tol)
            sm = sigma(xm)
            predicted = liouville._hermite_value(xm, x0, x1, 0.0, left + right, s0, s1)
            if abs(predicted - left) <= quad_tol or depth >= 45:
                cells.append((x1, left + right))
            else:
                stack.append((xm, x1, sm, s1, depth + 1))
                stack.append((x0, xm, s0, sm, depth + 1))
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
    """The list of the cells passed to each _refine_batched call."""
    runs = []
    refine = liouville._refine_batched

    def recording(lookup, cells, *args):
        runs.append(cells)
        return refine(lookup, cells, *args)

    monkeypatch.setattr(liouville, "_refine_batched", recording)
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
    # the budget is the build's: once it is spent, later chunks are not
    # walked, and the cells handed over run in one batch
    problem = _BUDGET_PROBLEMS[name]
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", budget)
    runs = _recording_refinements(monkeypatch)
    assert _outcome(build_map, problem) == budget_oracles[name]
    # the walk hands over whole base cells, never one it has begun
    grid = np.linspace(problem.a, problem.b, liouville._BASE_NODES).tolist()
    base_cells = set(zip(grid, grid[1:]))
    for cells in runs:
        assert all(depth == 0 and (x0, x1) in base_cells for x0, x1, _, _, depth, *_ in cells)
    if name == "singular-p":
        # from 82 lookups on the walk itself meets the pole
        assert not runs if budget >= 82 else len(runs) == 1
        return
    assert len(runs) == 1
    if budget == LATER_CHUNK:
        # the walk finished the left-end cell, the first chunk
        assert all(x0 != grid[0] for x0, *_ in runs[0])


@pytest.mark.parametrize("label, k, params", TRANSFORM_SHAPES)
def test_build_map_hands_over_once_within_its_budget(monkeypatch, label, k, params):
    # one batched run per build at most, and no more scalar evaluations of
    # sqrt(r/p) than the walk's lookup budget for the whole build
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    scalar = Counter()
    _count_sigma(monkeypatch, scalar)
    runs = _recording_refinements(monkeypatch)
    build_map(problem, 1e-10)
    assert len(runs) <= 1
    assert sum(scalar.values()) <= liouville._WALK_LOOKUPS


class _FailingSigma:
    """sqrt(r/p) failing at the points of `fails`, one by one and in
    batches, and in a batch that holds a point of `batch_fails`; each scalar
    evaluation at a point of either goes to `events`."""

    def __init__(self, expr, fails, batch_fails, events):
        self.expr, self.fails, self.events = expr, fails, events
        self.batch_fails = fails | batch_fails

    def evaluate(self, x):
        if x in self.batch_fails:
            self.events.append(("scalar", x))
        if x in self.fails:
            raise EvalDomainError("made to fail", "sqrt(r/p)", x)
        return self.expr.evaluate(x)

    def evaluate_many(self, xs):
        xs = [float(x) for x in xs]
        failing = self.batch_fails.intersection(xs)
        if failing:
            raise EvalDomainError("made to fail in a batch", "sqrt(r/p)", min(failing))
        return self.expr.evaluate_many(xs)


@pytest.mark.parametrize("fails, batch_fails", [
    # only the later chunk's depth-0 batch fails: the chunk is walked point
    # by point, after the work handed over before it has run
    ((), ("later",)),
    # sqrt(r/p) fails at both points: the one in the work handed over comes
    # first in the walk's order, and in x order, so it is the one reported
    (("late", "later"), ()),
], ids=["a-batch-fails", "two-points-fail"])
def test_work_handed_over_runs_before_a_chunk_walked_point_by_point(monkeypatch, fails,
                                                                    batch_fails):
    problem = build_case("case1", PaineSpec(2.0, 0.1), r0=1.0).canonical
    grid = np.linspace(problem.a, problem.b, liouville._BASE_NODES).tolist()
    # a point of the left-end cell (the first chunk) that its walk reaches
    # only past its budget, and the midpoint of a cell of the third chunk
    late = grid[0]
    for _ in range(10):
        late = 0.5 * (late + grid[1])
    points = {"late": late, "later": 0.5 * (grid[10] + grid[11])}
    events = []
    sigma_ast = liouville._sigma_ast
    monkeypatch.setattr(liouville, "_sigma_ast", lambda problem: _FailingSigma(
        sigma_ast(problem), {points[p] for p in fails}, {points[p] for p in batch_fails},
        events))
    oracle = _outcome(_oracle_build_map, problem)
    events.clear()
    refine = liouville._refine_batched

    def recording(*args):
        events.append(("refine",))
        return refine(*args)

    monkeypatch.setattr(liouville, "_refine_batched", recording)
    assert _outcome(build_map, problem) == oracle
    if fails:
        assert oracle[1:] == (late, late)
    else:
        assert events.index(("refine",)) < events.index(("scalar", points["later"]))


@settings(max_examples=6, deadline=None)
@given(c=st.floats(0.0, 1.0), w=st.floats(1e-3, 0.03))
def test_build_map_matches_reference_on_a_peaked_integrand(c, w):
    # sqrt(r/p) = 1/sqrt((x-c)^2 + w^2) peaks at c: cells there refine below
    # depth 0 (from w = 0.03 down), after the walk's hand-over wherever its
    # budget runs out, and with every refined chunk handed over at once
    problem = CanonicalSLP(parse(f"(x-{c!r})^2+{w!r}^2"), parse("0"), parse("1"), 0.0, 1.0)
    try:
        oracle = _oracle_build_map(problem, 1e-10)
    except QuadratureError as err:
        oracle = err
    for budget in WALK_BUDGETS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(liouville, "_WALK_LOOKUPS", budget)
            if isinstance(oracle, QuadratureError):
                with pytest.raises(QuadratureError) as err:
                    build_map(problem, 1e-10)
                assert str(err.value) == str(oracle)
                continue
            m = build_map(problem, 1e-10)
        assert len(m._xs) > 2049  # some cell refined
        assert m._xs == oracle._xs
        assert m._ts == oracle._ts
        assert m._ds == oracle._ds


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
@given(c=st.floats(-1.0, 2.0), w=st.floats(1e-3, 1.0),
       a=st.floats(-1.0, 0.9), width=st.floats(1e-3, 1.0))
def test_simpson_step_matches_x_order_bit_for_bit(c, w, a, width):
    # visiting the larger half first must change neither the result's bits
    # nor the points evaluated, only the order in which they are reached
    b = a + width
    results = []
    for step in (liouville._simpson_step, _oracle_simpson_step):
        seen = Counter()

        def fn(x):
            seen[x] += 1
            return 1.0 / ((x - c) ** 2 + w * w)

        fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        extra = () if step is liouville._simpson_step else (liouville._MAX_DEPTH,)
        try:
            results.append((step(fn, a, b, fa, fm, fb, whole, 1e-10, 0, *extra).hex(), seen))
        except QuadratureError:
            # a cell a few ulps wide cannot meet the floor (c = a, w = 1e-3
            # does it); either order stops at the first such cell it reaches
            results.append(None)
    assert results[0] == results[1]


def _levels_of(node, fn):
    """The nodes of a Simpson tree, level by level in x order, as the walk
    splits them (node: _simpson_step's arguments after fn)."""
    levels = [[node]]
    while levels[-1]:
        below = []
        for a, b, fa, fm, fb, estimate, eps, depth in levels[-1]:
            m = 0.5 * (a + b)
            flm, frm = fn(0.5 * (a + m)), fn(0.5 * (m + b))
            left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
            delta = left + right - estimate
            if not (abs(delta) <= 15.0 * eps
                    or abs(delta) <= 60.0 * 2.2e-16 * (abs(left) + abs(right))):
                below += [(a, m, fa, flm, fm, left, 0.5 * eps, depth + 1),
                          (m, b, fm, frm, fb, right, 0.5 * eps, depth + 1)]
        levels.append(below)
    return levels[:-1]


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-1.0, 2.0), w=st.floats(1e-2, 1.0), a=st.floats(-1.0, 0.9),
       width=st.floats(1e-3, 1.0), tol=st.floats(1e-12, 1e-7))
def test_batched_trees_give_the_walks_values_at_every_node(c, w, a, width, tol):
    # a tree run level by level gives its root's value, and each node's
    # value as the root of a tree with the root's tolerance: the value
    # _simpson_step gives it, which is what a child cell's tree needs
    def fn(x):
        return 1.0 / ((x - c) ** 2 + w * w)

    def lookup(xs):
        return np.array([fn(x) for x in xs.tolist()])

    b = a + width
    root = liouville._simpson_root(a, b, fn(a), fn(0.5 * (a + b)), fn(b), tol)
    try:
        nodes = liouville._sampled(lookup, np.array([root], dtype=float).T)
        levels = liouville._simpson_levels(lookup, nodes, 10**6)
    except liouville._Fallback:
        with pytest.raises(QuadratureError):
            liouville._simpson_step(fn, *root)
        return
    tols = [tol]
    while len(tols) < len(levels):
        tols.append(0.5 * tols[-1])
    assert liouville._tree_values(levels, 0).tolist() == [liouville._simpson_step(fn, *root)]
    for top, nodes in enumerate(_levels_of(root, fn)):
        walked = [liouville._simpson_step(fn, *node[:6], tol, 0) for node in nodes]
        assert liouville._tree_values(levels, top, tols).tolist() == walked


def test_build_map_evaluates_sqrt_r_over_p_once_per_point(monkeypatch):
    seen = _count_sigma(monkeypatch)
    m = build_map(classical_case4(), 1e-10)
    assert len(m._xs) == 2049  # no cell refined
    assert set(m._xs) <= set(seen)
    assert max(seen.values()) == 1


@pytest.mark.parametrize("label, k, params, total, budget", [
    # refined cells that re-evaluated their parent's points would make 203,963;
    # a budget of 1 or the default runs out in case1's first chunk, LATER_CHUNK in its second
    *[("case1", 2.0, {"r0": 1.0}, 75_000, budget)
      for budget in (1, liouville._WALK_LOOKUPS, LATER_CHUNK)],
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}, None, liouville._WALK_LOOKUPS),
])
def test_build_map_evaluates_a_refined_cell_at_most_twice_per_point(monkeypatch, label, k,
                                                                   params, total, budget):
    # a refined base cell's walk starts from a table seeded with its depth-0
    # batch, and deeper points are shared: each point is evaluated once, and
    # the points of a cell the walk drops reach the batched run in its table
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    monkeypatch.setattr(liouville, "_WALK_LOOKUPS", budget)
    seen = _count_sigma(monkeypatch)
    m = build_map(problem, 1e-10)
    assert len(m._xs) > 2049  # some cell refined
    assert max(seen.values()) == 1
    if total is not None:
        assert sum(seen.values()) <= total


@pytest.mark.parametrize("budget", [0, liouville._WALK_LOOKUPS, LATER_CHUNK])
@pytest.mark.parametrize("label, k, params", [
    ("case1", 2.0, {"r0": 1.0}),
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}),
    ("case3-J", 0.75, {"q0": 1.0, "r0": 1.0}),
])
def test_batched_refinement_evaluates_only_points_never_evaluated(monkeypatch, label, k,
                                                                   params, budget):
    # each cell carries sqrt(r/p) at its midpoint and quarter points, and
    # generation 0's trees take their first points' values from the depth-0
    # batch: the batched run's evaluate_many batches hold no point evaluated
    # before in the build, neither a cell's midpoint nor a tree root's, and
    # none twice; inside the cell the walk dropped, its values are reused
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
                # x = 0 aside, which is evaluated each time
                again.extend(x for x in xs if seen[x] and x)
                batched.extend(xs)
            seen.update(xs)
            return self.expr.evaluate_many(xs)

    monkeypatch.setattr(liouville, "_sigma_ast", lambda problem: Recording(sigma_ast(problem)))
    refine = liouville._refine_batched

    def recording(*args):
        refining.append(True)
        try:
            return refine(*args)
        finally:
            refining.pop()

    monkeypatch.setattr(liouville, "_refine_batched", recording)
    m = build_map(problem, 1e-10)
    assert again == []
    assert max(Counter(batched).values(), default=1) == 1
    if budget == 0 or label == "case1":
        assert batched  # the run evaluated deeper levels
    # so the midpoints of the cells (the map's nodes, where a cell split)
    # and of the accepted cells' tree roots are each evaluated once
    halves = [(lo, 0.5 * (lo + hi), hi) for lo, hi in zip(m._xs, m._xs[1:])]
    points = {*m._xs, *(mid for _, mid, _ in halves), *(0.5 * (lo + mid) for lo, mid, _ in halves),
              *(0.5 * (mid + hi) for _, mid, hi in halves)}
    assert all(seen[x] == 1 for x in points if x)


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
    calls = []
    hook = expr.FUNCTIONS[name]

    def counting(*args):
        calls.append(args)
        return hook.evaluate(*args)

    monkeypatch.setitem(expr.FUNCTIONS, name, replace(hook, evaluate=counting))
    # a fresh expression, past the cache, so it compiles with the counting hook
    value = liouville._invariant.__wrapped__(problem).evaluate(x)
    assert value == invariant_at_x(problem, x)
    assert len(calls) <= 5
    assert len(set(calls)) == len(calls)
