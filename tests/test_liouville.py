import gc
import math
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
from slpkit.expr import Call, Div, EvalDomainError, ExpressionAST, parse
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
    for ts in ([0.25, 0.5, 2.0], [0.25, 2.0, 0.5], [0.25, 0.75]):
        many, one_by_one = _many_and_one_by_one(invariant, ts)
        assert many == one_by_one, ts


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
    sigma = liouville._sigma_ast(problem).evaluate
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


def _count_sigma(monkeypatch):
    """Counter of the points at which build_map evaluates sqrt(r/p), one
    by one or in batches."""
    seen = Counter()
    sigma_ast = liouville._sigma_ast

    class Counting:
        def __init__(self, expr):
            self.expr = expr

        def evaluate(self, x):
            seen[x] += 1
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


def test_build_map_evaluates_sqrt_r_over_p_once_per_point(monkeypatch):
    seen = _count_sigma(monkeypatch)
    m = build_map(classical_case4(), 1e-10)
    assert len(m._xs) == 2049  # no cell refined
    assert set(m._xs) <= set(seen)
    assert max(seen.values()) == 1


@pytest.mark.parametrize("label, k, params, total", [
    # refined cells that re-evaluated their parent's points would make 203,963
    ("case1", 2.0, {"r0": 1.0}, 75_000),
    ("case2-B", 3.0, {"q0": 1.0, "x0": 0.3}, None),
])
def test_build_map_evaluates_a_refined_cell_at_most_twice_per_point(monkeypatch, label, k,
                                                                   params, total):
    # a refined base cell's walk starts from a table seeded with its depth-0
    # batch, and deeper points are shared: each point is evaluated once
    problem = build_case(label, PaineSpec(k, 0.1), **params).canonical
    seen = _count_sigma(monkeypatch)
    m = build_map(problem, 1e-10)
    assert len(m._xs) > 2049  # some cell refined
    assert max(seen.values()) == 1
    if total is not None:
        assert sum(seen.values()) <= total


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
