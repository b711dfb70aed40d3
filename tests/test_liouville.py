import gc
import math

import numpy as np
import pytest

from slpkit.errors import NumericalError
from slpkit.expr import parse
from slpkit.inverse import case1_build, case4_build
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
    steep = TransformMap.tabulated([1000.0, 1000.0 + 1e-6], [0.0, 1.0],
                                   [1e6, 1e6], parse("1", "x"))
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
