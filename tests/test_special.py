import math

import numpy as np
import pytest

from slpkit import special
from slpkit.expr import parse
from slpkit.special import (SpecialFunctionError, bessel_j, bessel_j_zeros,
                            bessel_y, bessel_y_zeros, gamma_fn)


def test_gamma_classical_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    # recurrence across the reflection split
    for x in (0.1, 0.3, 1.7, 10.5, 29.5):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_gamma_poles():
    for x in (0.0, -1.0, -3.0):
        with pytest.raises(SpecialFunctionError):
            gamma_fn(x)


def test_bessel_j_half_order_values():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin(x)
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-12)
    # J_{3/2}(x) = sqrt(2/(pi x)) (sin(x)/x - cos(x))
    closed = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
    assert bessel_j(1.5, 1.0) == pytest.approx(closed, abs=1e-12)
    assert bessel_j(1.5, 1.0) == pytest.approx(0.2402978392, abs=1e-9)


def test_bessel_j_small_argument_limit():
    assert abs(bessel_j(0.0, 1e-8) - 1.0) < 1e-12


def test_bessel_j_at_the_smallest_subnormal_arguments():
    # 0.5 * x underflows to 0 here; J_{-1/2}(x) = sqrt(2/(pi x)) cos(x)
    for x in (5e-324, 1e-323):
        assert bessel_j(-0.5, x) == pytest.approx(math.sqrt(2.0 / math.pi) / math.sqrt(x))
        assert bessel_j(0.5, x) == pytest.approx(math.sqrt(2.0 / math.pi) * math.sqrt(x))
    with pytest.raises(OverflowError):
        bessel_j(-2.5, 5e-324)


def test_bessel_j_requires_positive_argument():
    with pytest.raises(SpecialFunctionError):
        bessel_j(1.0, 0.0)


def test_bessel_y_half_order_values():
    # Y_{1/2}(x) = -sqrt(2/(pi x)) cos(x)
    assert bessel_y(0.5, math.pi) == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-12)
    assert abs(bessel_y(0.5, math.pi / 2)) < 1e-10
    assert bessel_y(1.0, 1.0) == pytest.approx(-0.7812128213, abs=1e-9)


def test_half_order_closed_forms_on_grid():
    for x in np.linspace(0.1, 20.0, 180):
        x = float(x)
        amp = math.sqrt(2.0 / (math.pi * x))
        assert abs(bessel_j(0.5, x) - amp * math.sin(x)) <= 1e-10
        assert abs(bessel_j(1.5, x) - amp * (math.sin(x) / x - math.cos(x))) <= 1e-10
        assert abs(bessel_y(0.5, x) + amp * math.cos(x)) <= 1e-10
        assert abs(bessel_y(1.5, x) + amp * (math.cos(x) / x + math.sin(x))) <= 1e-10


def test_wronskian_and_recurrence_random_sample():
    rng = np.random.default_rng(42)
    for _ in range(200):
        nu = float(rng.uniform(0.0, 4.0))
        x = float(rng.uniform(0.5, 40.0))
        wron = (bessel_j(nu + 1.0, x) * bessel_y(nu, x)
                - bessel_j(nu, x) * bessel_y(nu + 1.0, x))
        assert abs(wron - 2.0 / (math.pi * x)) <= 1e-9, (nu, x)
        rec = (bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
               - (2.0 * nu / x) * bessel_j(nu, x))
        assert abs(rec) <= 1e-9, (nu, x)


@pytest.mark.parametrize("k", [0.75, 2.0])
@pytest.mark.parametrize("kind", ["J", "Y"])
def test_scaled_bessel_satisfies_reduced_ode(k, kind):
    # w(tau) = sqrt(tau) * Z_nu(tau) solves tau^2 w'' + (tau^2 - k) w = 0
    nu = 0.5 * math.sqrt(4.0 * k + 1.0)
    fn = bessel_j if kind == "J" else bessel_y

    def w(tau):
        return math.sqrt(tau) * fn(nu, tau)

    h = 0.01
    for tau in np.linspace(1.0, 10.0, 41):
        tau = float(tau)
        d2 = (-w(tau - 2 * h) + 16 * w(tau - h) - 30 * w(tau)
              + 16 * w(tau + h) - w(tau + 2 * h)) / (12 * h * h)
        residual = tau * tau * d2 + (tau * tau - k) * w(tau)
        assert abs(residual) <= 1e-6, (k, kind, tau, residual)


# ---------------------------------------------------------------------------
# mpmath oracle: the bounds are the accuracy the README states

J_ABS_TOL = 2e-12
Y_TOL = 5e-9  # relative to max(1, |Y|)
GAMMA_REL_TOL = 1e-13


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _check_bessel(mpmath, nu, x):
    with mpmath.workdps(30):
        ref_j = float(mpmath.besselj(nu, x))
        ref_y = float(mpmath.bessely(nu, x))
    assert abs(bessel_j(nu, x) - ref_j) <= J_ABS_TOL, (nu, x)
    assert abs(bessel_y(nu, x) - ref_y) <= Y_TOL * max(1.0, abs(ref_y)), (nu, x)


def test_bessel_matches_mpmath_on_random_sample():
    import mpmath

    rng = np.random.default_rng(7)
    for _ in range(300):
        _check_bessel(mpmath, float(rng.uniform(0.0, 5.0)), _log_uniform(rng, 1e-3, 50.0))


def test_bessel_matches_mpmath_near_integer_orders():
    import mpmath

    rng = np.random.default_rng(11)
    # inside the 2e-4 blend window, at any argument
    for _ in range(150):
        n = int(rng.integers(0, 6))
        nu = max(0.0, n + float(rng.uniform(-2e-4, 2e-4)))
        _check_bessel(mpmath, nu, _log_uniform(rng, 1e-3, 50.0))
    # the window's edges below the series/asymptotic crossover at x = 12,
    # where the connection formula's 1/|nu - n| loss is largest
    for n in range(6):
        for delta in (-2.0001e-4, -1.999e-4, 1.999e-4, 2.0001e-4):
            if n + delta < 0.0:
                continue
            for x in np.linspace(11.0, 12.0, 11):
                _check_bessel(mpmath, n + delta, float(x))


def test_gamma_matches_mpmath_across_reflection_split():
    import mpmath

    rng = np.random.default_rng(13)
    checked = 0
    while checked < 300:
        x = float(rng.uniform(-4.5, 30.0))
        if x < 0.5 and abs(x - round(x)) < 0.01:
            continue  # the reflection's sin(pi x) loses digits next to a pole
        with mpmath.workdps(30):
            ref = float(mpmath.gamma(x))
        assert abs(gamma_fn(x) - ref) <= GAMMA_REL_TOL * abs(ref), x
        checked += 1


def test_zero_finding_matches_literature():
    zeros = bessel_j_zeros(1.0, 0.5, 14.0)
    # j_{1,1..4} = 3.8317059702, 7.0155866698, 10.1734681351, 13.3236919363
    assert len(zeros) == 4
    assert zeros[0] == pytest.approx(3.8317059702, abs=1e-8)
    assert zeros[3] == pytest.approx(13.3236919363, abs=1e-8)
    yzeros = bessel_y_zeros(1.0, 0.5, 12.0)
    # y_{1,1..3} = 2.1971413260, 5.4296810407, 8.5960058683
    assert yzeros[0] == pytest.approx(2.1971413260, abs=1e-8)
    assert yzeros[2] == pytest.approx(8.5960058683, abs=1e-8)


def test_zero_scan_refuses_intervals_over_its_point_cap(monkeypatch):
    # at 0.05 steps, [1e-9, 5000.1] takes 100,003 points
    with pytest.raises(SpecialFunctionError, match=r"zero scan of \[1e-09, 5000\.1\]"):
        bessel_j_zeros(1.0, 0.0, 5000.1)
    with pytest.raises(SpecialFunctionError, match="more than 100000 points"):
        bessel_y_zeros(1.0, 1.0, 1e300)
    # the cap itself is allowed: [1, 11] takes 201 points
    monkeypatch.setattr(special, "_SCAN_MAX_POINTS", 201)
    assert len(bessel_j_zeros(1.0, 1.0, 11.0)) == 3
    with pytest.raises(SpecialFunctionError, match="more than 201 points"):
        bessel_j_zeros(1.0, 1.0, 11.01)


def test_bessel_derivative_hooks_match_finite_differences():
    h = 1e-3
    for name in ("besselj", "bessely"):
        f = parse(f"{name}(1.5,2*x)")
        df = f.differentiate()
        assert df.to_text() == f"0.5*({name}(0.5,2*x)-{name}(2.5,2*x))*2"
        for x in (0.3, 0.8, 1.7, 3.2, 6.5):
            fd = (f.evaluate(x - 2 * h) - 8 * f.evaluate(x - h)
                  + 8 * f.evaluate(x + h) - f.evaluate(x + 2 * h)) / (12 * h)
            assert df.evaluate(x) == pytest.approx(fd, rel=1e-8, abs=1e-8)
