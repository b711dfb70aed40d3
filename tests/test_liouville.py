import gc
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from slpkit import liouville
from slpkit.errors import NumericalError
from slpkit.expr import parse
from slpkit.inverse import build_case, case1_build, case4_build
from slpkit.liouville import (QuadratureError, TransformError, TransformMap,
                              build_map, forward_transform, invariant_at_x,
                              reduce_constant_coeff)
from slpkit.problems import CanonicalSLP, PaineSpec, validate

PI = math.pi


def canonical(p="1", q="0", r="1", a=0.0, b=PI):
    return CanonicalSLP(parse(p), parse(q), parse(r), a, b)


def classical_case4():
    """p=(x+s)^3, q=4(x+s), r=(x+s)^5 with s=sqrt(0.2) on (0, sqrt(2pi+.2)-s)."""
    return case4_build(PaineSpec(1.0, 0.1), C1=2.0).canonical


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


def test_build_map_reports_divergent_integrand():
    # p touches zero between validation samples; sqrt(r/p) is not integrable
    bad = canonical(p="(x-0.511)^2", b=1.0)
    assert validate(bad) == []
    with pytest.raises(QuadratureError):
        build_map(bad, 1e-10)


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
    prob = case1_build(PaineSpec(2.0, 0.1), r0=1.0, branch="plus").canonical
    reduced, _ = forward_transform(prob, 1e-12)
    sup = 0.0
    for j in range(1, 102):
        t = PI * j / 102
        sup = max(sup, abs(reduced.invariant.evaluate(t) - 2.0 / (t + 0.1) ** 2))
    assert sup <= 1e-8


def test_reduce_constant_coeff():
    reduced = reduce_constant_coeff(canonical())
    assert (reduced.alpha, reduced.beta) == (0.0, PI)
    assert reduced.invariant.evaluate(1.0) == 0.0

    reduced = reduce_constant_coeff(canonical(p="4", q="1", r="1", b=1.0))
    assert (reduced.alpha, reduced.beta) == (0.0, 0.5)
    assert reduced.invariant.evaluate(0.3) == pytest.approx(4.0)

    reduced = reduce_constant_coeff(canonical(p="1", q="x", r="4", b=1.0))
    assert (reduced.alpha, reduced.beta) == (0.0, 2.0)
    assert reduced.invariant.evaluate(1.0) == pytest.approx(1.0 / 16.0 * 0.5)

    with pytest.raises(TransformError):
        reduce_constant_coeff(canonical(p="x+1"))


def test_x_of_t_examples():
    ident = build_map(canonical(), 1e-10)
    assert ident.x_of_t(1.0) == pytest.approx(1.0, abs=1e-12)
    assert ident.x_of_t(0.0) == 0.0  # endpoint pinning

    res = case4_build(PaineSpec(1.0, 0.1), C1=2.0)
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


def test_build_map_evaluates_sqrt_r_over_p_once_per_point(monkeypatch):
    seen = Counter()
    sigma_ast = liouville._sigma_ast

    class Counting:
        def __init__(self, expr):
            self.expr = expr

        def evaluate(self, x):
            seen[x] += 1
            return self.expr.evaluate(x)

    monkeypatch.setattr(liouville, "_sigma_ast", lambda problem: Counting(sigma_ast(problem)))
    m = build_map(classical_case4(), 1e-10)
    assert len(m._xs) == 2049  # no cell refined
    assert set(m._xs) <= set(seen)
    assert max(seen.values()) == 1


def _assert_float_queries(m):
    (a, b), (alpha, beta) = m.domain_x, m.domain_t
    for x in (a, 0.3 * a + 0.7 * b, b):
        assert type(m.t_of_x(x)) is float
    for t in (alpha, 0.7 * alpha + 0.3 * beta, beta):
        assert type(m.x_of_t(t)) is float


def test_map_queries_return_python_floats():
    _assert_float_queries(build_map(classical_case4(), 1e-10))
    _assert_float_queries(case4_build(PaineSpec(1.0, 0.1), C1=2.0).map)
    # a cubic cell the first iterate misses, so x comes from a Newton step
    _assert_float_queries(TransformMap.tabulated([0.0, 1.0], [0.0, 1.0], [0.5, 2.0]))
