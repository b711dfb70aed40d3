import math

import numpy as np
import pytest

from slpkit import special
from slpkit.expr import EvalDomainError, parse
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


def test_bessel_functions_refuse_a_nan_argument_before_any_series(monkeypatch):
    def refuse(nu, x):
        raise AssertionError(f"series entered at x={x!r}")

    monkeypatch.setattr(special, "_series_j", refuse)
    for fn in (bessel_j, bessel_y):
        with pytest.raises(SpecialFunctionError) as err:
            fn(0.5, math.nan)
        assert str(err.value) == f"{fn.__name__} requires x > 0, got nan"


def test_bessel_y_at_the_smallest_subnormal_argument():
    # 0.5 * x underflows to 0 here, so log(x/2) is taken as log(x) - log(2)
    import mpmath
    with mpmath.workdps(30):
        want = float(mpmath.bessely(0, 5e-324))  # -473.9990734230043
    assert bessel_y(0.0, 5e-324) == pytest.approx(want, rel=4e-16)
    assert parse("bessely(0,x)").evaluate(5e-324) == bessel_y(0.0, 5e-324)
    # Y_n is -inf there for n >= 1: an overflow, as at 1e-323, and so an
    # evaluation error in an expression rather than a ZeroDivisionError
    for n in (1.0, 2.0, 3.0):
        for x in (5e-324, 1e-323):
            with pytest.raises(OverflowError):
                bessel_y(n, x)
        with pytest.raises(EvalDomainError):
            parse(f"bessely({n!r},x)").evaluate(5e-324)


def test_bessel_y_half_order_values():
    # Y_{1/2}(x) = -sqrt(2/(pi x)) cos(x)
    assert bessel_y(0.5, math.pi) == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-12)
    assert abs(bessel_y(0.5, math.pi / 2)) < 1e-10
    assert bessel_y(1.0, 1.0) == pytest.approx(-0.7812128213, abs=1e-9)


def test_bessel_y_negative_half_odd_order_is_plus_or_minus_j():
    # Y_{-v} = (-1)^(v - 1/2) J_v for half-odd v, with no Y_v term leaking in
    import mpmath

    xs = [1e-300, 1e-200, 1e-100, 1e-20, 1e-8, 1e-3]
    xs += [float(x) for x in np.linspace(0.1, 30.0, 60)]
    for v, sign in ((0.5, 1.0), (1.5, -1.0), (2.5, 1.0), (3.5, -1.0)):
        for x in xs:
            assert bessel_y(-v, x).hex() == (sign * bessel_j(v, x)).hex(), (v, x)
        for x in (1e-20, 1e-3):
            with mpmath.workdps(30):
                ref = float(mpmath.bessely(-v, x))
            assert bessel_y(-v, x) == pytest.approx(ref, rel=1e-14, abs=0.0), (v, x)


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


@pytest.mark.parametrize("x", [2000.0, 1e20, 1e40])
def test_bessel_keeps_its_phase_at_large_arguments(x):
    # x - (nu/2 + 1/4) pi rounds to x itself from about 1e17 on; each
    # order must keep its own phase there
    import mpmath

    for nu in (0.0, 0.5, 1.0, 2.5, -0.5, -3.0):
        # digits enough to reduce x exactly
        with mpmath.workdps(30 + int(math.log10(x))):
            ref_j = float(mpmath.besselj(nu, x))
            ref_y = float(mpmath.bessely(nu, x))
        amp = math.sqrt(2.0 / (math.pi * x))
        assert abs(bessel_j(nu, x) - ref_j) <= 1e-14 * amp, (nu, x)
        assert abs(bessel_y(nu, x) - ref_y) <= 1e-14 * amp, (nu, x)


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


# ---------------------------------------------------------------------------
# the series loops against copies of their first, uncached form


def _series_j_oracle(nu, x):
    half = 0.5 * x
    term = (half**nu if half > 0.0 else x**nu * 2.0**-nu) * special._rgamma(nu + 1.0)
    total = term
    q = half * half
    for m in range(1, 400):
        term *= -q / (m * (nu + m))
        total += term
        if abs(term) <= 1e-17 * (1.0 + abs(total)):
            return total
    raise SpecialFunctionError(f"Bessel series did not converge (nu={nu}, x={x})")


def _y_integer_series_oracle(n, x):
    half = 0.5 * x
    log_part = (2.0 / math.pi) * math.log(half) * _series_j_oracle(float(n), x)
    finite = 0.0
    for m in range(n):
        finite += math.factorial(n - m - 1) / math.factorial(m) * half ** (2 * m - n)
    finite /= math.pi
    h_m = 0.0
    h_mn = sum(1.0 / i for i in range(1, n + 1))
    term = half**n / math.factorial(n)
    total = (-2.0 * 0.5772156649015329 + h_m + h_mn) * term
    q = half * half
    sign = 1.0
    for m in range(1, 400):
        term *= q / (m * (m + n))
        sign = -sign
        h_m += 1.0 / m
        h_mn += 1.0 / (m + n)
        piece = sign * (-2.0 * 0.5772156649015329 + h_m + h_mn) * term
        total += piece
        if abs(piece) <= 1e-17 * (1.0 + abs(total)):
            break
    return log_part - finite - total / math.pi


def test_series_loops_match_their_uncached_form_bit_for_bit():
    rng = np.random.default_rng(19)
    for nu in (0.0, 0.5, 1, 1.0615528128088303, 2.0001, -0.5, -2.3, 5.7, 20.25):
        xs = [_log_uniform(rng, 1e-6, special._crossover(nu)) for _ in range(2000)]
        xs += [5e-324, 1e-320, special._crossover(nu)]
        for x in xs:
            try:
                want = _series_j_oracle(nu, x).hex()
            except OverflowError:
                with pytest.raises(OverflowError):
                    special._series_j(nu, x)
                continue
            assert special._series_j(nu, x).hex() == want, (nu, x)
    for n in range(7):
        for x in [_log_uniform(rng, 1e-3, 12.0) for _ in range(500)]:
            assert (special._y_integer_series(n, x).hex()
                    == _y_integer_series_oracle(n, x).hex()), (n, x)


# ---------------------------------------------------------------------------
# block forms: the scalar function's value in every lane, its error in the
# first failing one

# J: negative integers are a sign times the positive order; Y: negative
# half-odd orders are +-J, other negative orders the reflection formula, and
# orders within 2e-4 of an integer the blend window
_BLOCK_ORDERS = (0.0, 0.5, 1, 1.0615528128088303, 2.0, 7.5, 9.25, -1.0, -2.0, -3.0,
                 -0.5, -1.5, -2.5, -0.3, -2.7, -9.25, 2.0 + 1e-4, 3.0 - 1.5e-4, 1e-5)
_BLOCKS = ((bessel_j, special._bessel_j_block), (bessel_y, special._bessel_y_block))


def _lane_points(nu):
    # log-spaced, so lanes stop at different terms, and the neighbours of the
    # series/Hankel crossover at max(12, 2|nu|), of 12 and of 2|nu|
    xs = list(np.geomspace(1e-3, 40.0, 1500))
    # with numpy 2.4 on x86-64, np.log(x/2) differs from math.log(x/2) at these
    # in the last bit, and so would Y_0, Y_1 and Y_2 by a numpy logarithm
    xs += [0.001664471230748766, 0.7824181434651084, 1.6854259909492755]
    for edge in {12.0, 2.0 * abs(nu), special._crossover(nu)}:
        if edge > 0.0:
            xs += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return np.array(xs)


def _outcomes(fn, *args):
    try:
        values = fn(*args)
    except Exception as err:
        return ("raised", type(err), str(err))
    return ("value", [float(v).hex() for v in values])


@pytest.mark.parametrize("nu", _BLOCK_ORDERS)
def test_block_forms_match_the_scalar_functions_bit_for_bit(nu):
    xs = _lane_points(nu)
    for scalar, block in _BLOCKS:
        want = [scalar(nu, x).hex() for x in xs.tolist()]
        assert _outcomes(block, nu, xs) == ("value", want), (scalar.__name__, nu)
        # evaluate_many runs the block form over blocks of expr._BLOCK points
        tree = parse(f"{scalar.__name__.replace('_', '')}({nu!r},x)")
        values, err = tree.evaluate_many(xs)
        assert [v.hex() for v in values.tolist()] == want and err is None


def test_series_blocks_take_python_powers():
    # the series' (x/2)**nu, (x/2)**n and (x/2)**(2m - n), int exponents
    # too, run through expr._powers; with np.power, which differs from ** in
    # the last bit on a few percent of these, the sums would differ
    rng = np.random.default_rng(2302)
    xs = rng.uniform(1e-3, 12.0, 4000)
    for k in (0.5, 1.0615528128088303, 7.5, -2.7, 3, -5, 0):
        assert ([v.hex() for v in special._powers(0.5 * xs, k).tolist()]
                == [((0.5 * x) ** k).hex() for x in xs.tolist()]), k
    for nu in (0.5, 2.0, 7.5, 1.0615528128088303):
        assert ([v.hex() for v in special._series_j_block(nu, xs).tolist()]
                == [special._series_j(nu, x).hex() for x in xs.tolist()]), nu
    for n in range(7):
        assert ([v.hex() for v in special._y_integer_block(n, xs).tolist()]
                == [special._y_integer_series(n, x).hex() for x in xs.tolist()]), n


@pytest.mark.parametrize("nu", _BLOCK_ORDERS)
def test_a_failing_lane_raises_the_scalar_functions_error(nu):
    regular = np.geomspace(0.01, 30.0, 40)
    edges = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
             5e-324, 1e-320, 2.5e-308, 1e-200)
    for scalar, block in _BLOCKS:
        for edge in edges:
            xs = np.concatenate([regular[:20], [edge], regular[20:]])
            want = _outcomes(lambda xs: [scalar(nu, x) for x in xs.tolist()], xs)
            assert _outcomes(block, nu, xs) == want, (scalar.__name__, nu, edge)
        # two failing lanes: the first one's error
        xs = np.concatenate([regular, [1e-320, 0.0, math.inf]])
        want = _outcomes(lambda xs: [scalar(nu, x) for x in xs.tolist()], xs)
        assert _outcomes(block, nu, xs) == want, (scalar.__name__, nu)


def test_a_series_that_does_not_converge_raises_the_scalar_error(monkeypatch):
    # with three terms only, the lanes past x ~ 1e-4 run out of them
    monkeypatch.setattr(special, "_denominators",
                        lambda nu: [m * (nu + m) for m in range(1, 4)])
    xs = np.array([1e-6, 1e-5, 0.5, 2.0, 20.0])
    for nu in (0.5, 2.0, -2.5, 2.0 + 1e-4):
        for scalar, block in _BLOCKS:
            want = _outcomes(lambda xs: [scalar(nu, x) for x in xs.tolist()], xs)
            assert want[0] == "raised" and "did not converge" in want[2]
            assert _outcomes(block, nu, xs) == want, (scalar.__name__, nu)


def test_block_forms_call_the_scalar_function_only_past_the_series(monkeypatch):
    calls = []
    for name in ("bessel_j", "bessel_y"):
        original = getattr(special, name)
        monkeypatch.setattr(special, name,
                            lambda nu, x, original=original: calls.append((nu, x))
                            or original(nu, x))
    xs = np.array([0.5, 11.5, 12.0, 12.5, 30.0])
    for block in (special._bessel_j_block, special._bessel_y_block):
        for nu in (0.5, -2.0, -0.3, 1.0):
            calls.clear()
            block(nu, xs)
            # a negative order's scalar call reflects to the positive order
            assert [x for order, x in calls if order == nu] == [12.5, 30.0], (
                block.__name__, nu)


# ---------------------------------------------------------------------------
# zero scans: the grid by the block form, the bisection point by point


def _zeros_oracle(fn, lo, hi, stop_when_stuck=False):
    """Scan and 80 bisection steps per sign change, point by point; with
    stop_when_stuck, a bisection stops once its midpoint is an end of its
    bracket, as the scan's does (the later steps would keep that point)."""
    zeros = []
    count = max(2, math.ceil((hi - lo) / special._SCAN_STEP) + 1)
    prev_x = lo
    prev_f = fn(prev_x)
    for i in range(1, count):
        cur_x = lo + (hi - lo) * i / (count - 1)
        cur_f = fn(cur_x)
        if prev_f == 0.0:
            zeros.append(prev_x)
        elif prev_f * cur_f < 0.0:
            a, b, fa = prev_x, cur_x, prev_f
            for _ in range(80):
                mid = 0.5 * (a + b)
                if stop_when_stuck and (mid == a or mid == b):
                    break
                fm = fn(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        prev_x, prev_f = cur_x, cur_f
    return zeros


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0615528128088303, 2.0, -1.5, 20.5])
def test_zero_scans_match_a_point_by_point_scan(nu):
    for zeros_of, fn, lo in ((bessel_j_zeros, bessel_j, 1e-9), (bessel_y_zeros, bessel_y, 1e-2)):
        got = zeros_of(nu, 0.0, 60.3)
        assert got == _zeros_oracle(lambda z: fn(nu, z), lo, 60.3), (fn.__name__, nu)
        assert len(got) >= 10


def test_zero_scan_falls_back_point_by_point_when_the_block_raises():
    def fn(z):
        seen.append(z)
        if z > 7.3:
            raise ValueError(f"refused at {z!r}")
        return math.sin(z)

    def block(zs):
        raise ValueError("refused")

    seen = []
    with pytest.raises(ValueError) as scan:
        special._zeros_of(fn, block, 0.5, 10.0)
    scan_calls, seen = seen, []
    with pytest.raises(ValueError) as oracle:
        _zeros_oracle(fn, 0.5, 10.0, stop_when_stuck=True)
    # the same points in the same order, bisections included, to the same error
    assert scan_calls == seen
    assert str(scan.value) == str(oracle.value)
