"""Gamma and real-order Bessel functions of the first and second kinds.

Self-contained double-precision implementations sized for the needs of the
inverse constructions: gamma via the Lanczos approximation (g = 7, nine
coefficients, reflection below 1/2), J_nu by the ascending power series up
to x = max(12, 2|nu|) and Hankel large-argument asymptotics beyond, and
Y_nu through the connection formula (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi)
with near-integer orders evaluated at nu +- 1e-6 and linearly interpolated.

Accuracy against mpmath for nu in [0, 5], x in [1e-3, 50]: J within 2e-12
absolute, Y within 5e-9 relative to max(1, |Y|) (worst for orders near the
edge of the 2e-4 blend window as x approaches the crossover at 12), gamma
within 1e-13 relative at least 0.01 from a pole.  Negative x and complex
anything are out of scope.

The functions are registered with the expression layer as ``besselj(nu, u)``
and ``bessely(nu, u)`` (constant order), so coefficient functions built from
Bessel factors print, re-parse and differentiate like any other expression.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .expr import Call, Const, FunctionHook, Mul, Sub, _fold_const, register_function


class SpecialFunctionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# gamma

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for real x away from the poles at 0, -1, -2, ..."""
    if x <= 0.0 and float(x).is_integer():
        raise SpecialFunctionError(f"gamma pole at nonpositive integer {x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum on the well-conditioned half-line
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


@lru_cache(maxsize=256)
def _rgamma(x: float) -> float:
    """1/gamma, zero at the poles (so series terms vanish there).

    Cached: the series calls it with nu + 1 for the few constant orders of
    an expression, once per evaluation.
    """
    if x <= 0.0 and float(x).is_integer():
        return 0.0
    return 1.0 / gamma_fn(x)


# ---------------------------------------------------------------------------
# Bessel functions


def _series_j(nu: float, x: float) -> float:
    # ascending series; caller guarantees nu is not a negative integer
    half = 0.5 * x
    # below 1e-323 the halving underflows to 0, which a negative order
    # cannot be raised to; x**nu / 2**nu is the same power without it
    term = (half**nu if half > 0.0 else x**nu * 2.0**-nu) * _rgamma(nu + 1.0)
    total = term
    q = half * half
    for m in range(1, 400):
        term *= -q / (m * (nu + m))
        total += term
        if abs(term) <= 1e-17 * (1.0 + abs(total)):
            return total
    raise SpecialFunctionError(f"Bessel series did not converge (nu={nu}, x={x})")


def _hankel_pq(nu: float, x: float) -> tuple[float, float]:
    # large-argument amplitude series, optimally truncated
    mu = 4.0 * nu * nu
    p_sum, q_sum = 1.0, 0.0
    c = 1.0
    j = 0
    while j < 80:
        c_next = c * (mu - (2 * j + 1) ** 2) / (8.0 * x * (j + 1))
        if j >= 2 and abs(c_next) >= abs(c):
            break
        c = c_next
        j += 1
        r = j % 4
        if r == 0:
            p_sum += c
        elif r == 1:
            q_sum += c
        elif r == 2:
            p_sum -= c
        else:
            q_sum -= c
        if abs(c) < 1e-18:
            break
    return p_sum, q_sum


def _hankel_jy(nu: float, x: float) -> tuple[float, float]:
    p_sum, q_sum = _hankel_pq(nu, x)
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    cj = amp * (p_sum * math.cos(chi) - q_sum * math.sin(chi))
    cy = amp * (p_sum * math.sin(chi) + q_sum * math.cos(chi))
    return cj, cy


def _crossover(nu: float) -> float:
    return max(12.0, 2.0 * abs(nu))


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order, x > 0."""
    if x <= 0.0:
        raise SpecialFunctionError(f"bessel_j requires x > 0, got {x}")
    n = round(nu)
    if nu == n and n < 0:
        sign = -1.0 if n % 2 else 1.0
        return sign * bessel_j(float(-n), x)
    if x <= _crossover(nu):
        return _series_j(nu, x)
    return _hankel_jy(nu, x)[0]


def _y_connection(nu: float, x: float) -> float:
    s = math.sin(math.pi * nu)
    c = math.cos(math.pi * nu)
    return (_series_j(nu, x) * c - _series_j(-nu, x)) / s


_EULER_GAMMA = 0.5772156649015329


def _y_integer_series(n: int, x: float) -> float:
    # ascending series with the logarithmic term, nonnegative integer order
    half = 0.5 * x
    log_part = (2.0 / math.pi) * math.log(half) * _series_j(float(n), x)
    finite = 0.0
    for m in range(n):
        finite += math.factorial(n - m - 1) / math.factorial(m) * half ** (2 * m - n)
    finite /= math.pi
    # sum of (-1)^m [psi(m+1) + psi(m+n+1)] / (m! (m+n)!) * half^(2m+n)
    h_m = 0.0
    h_mn = sum(1.0 / i for i in range(1, n + 1))
    term = half**n / math.factorial(n)
    total = (-2.0 * _EULER_GAMMA + h_m + h_mn) * term
    q = half * half
    sign = 1.0
    for m in range(1, 400):
        term *= q / (m * (m + n))
        sign = -sign
        h_m += 1.0 / m
        h_mn += 1.0 / (m + n)
        piece = sign * (-2.0 * _EULER_GAMMA + h_m + h_mn) * term
        total += piece
        if abs(piece) <= 1e-17 * (1.0 + abs(total)):
            break
    return log_part - finite - total / math.pi


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, real order, x > 0."""
    if x <= 0.0:
        raise SpecialFunctionError(f"bessel_y requires x > 0, got {x}")
    if nu < 0.0:
        # Y_{-v} = cos(v pi) Y_v + sin(v pi) J_v
        v = -nu
        return math.cos(math.pi * v) * bessel_y(v, x) + math.sin(math.pi * v) * bessel_j(v, x)
    if x > _crossover(nu):
        return _hankel_jy(nu, x)[1]
    n = round(nu)
    delta = nu - n
    if delta == 0.0:
        return _y_integer_series(n, x)
    # the connection formula loses ~1/|delta| in accuracy close to integer
    # orders; blend through the integer-order series across a small window
    window = 2e-4
    if abs(delta) < window:
        y_mid = _y_integer_series(n, x)
        y_lo = _y_connection(n - window, x)
        y_hi = _y_connection(n + window, x)
        curv = (y_hi - 2.0 * y_mid + y_lo) / (2.0 * window * window)
        slope = (y_hi - y_lo) / (2.0 * window)
        return y_mid + slope * delta + curv * delta * delta
    return _y_connection(nu, x)


_SCAN_STEP = 0.05
# about 0.4 s of Bessel evaluations; case3 builds with q0/r0 near 1 scan < 100
_SCAN_MAX_POINTS = 100_000


def _zeros_of(fn, lo: float, hi: float) -> list[float]:
    """Zeros of a smooth oscillatory function by scan + bisection."""
    zeros = []
    if hi <= lo:
        return zeros
    count = max(2, math.ceil((hi - lo) / _SCAN_STEP) + 1)
    if count > _SCAN_MAX_POINTS:
        raise SpecialFunctionError(
            f"zero scan of [{lo!r}, {hi!r}] at step {_SCAN_STEP} needs more than "
            f"{_SCAN_MAX_POINTS} points")
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
                fm = fn(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        prev_x, prev_f = cur_x, cur_f
    return zeros


def bessel_j_zeros(nu: float, lo: float, hi: float) -> list[float]:
    return _zeros_of(lambda z: bessel_j(nu, z), max(lo, 1e-9), hi)


def bessel_y_zeros(nu: float, lo: float, hi: float) -> list[float]:
    return _zeros_of(lambda z: bessel_y(nu, z), max(lo, 1e-2), hi)


# ---------------------------------------------------------------------------
# expression-layer hooks: besselj(nu, u), bessely(nu, u) with constant order


def _d_bessel(name):
    """Derivative hook of name(nu, u): (name(nu-1, u) - name(nu+1, u)) / 2 * u'."""
    def hook(args, dargs):
        nu = _fold_const(args[0])
        inner = args[1]
        lower = Call(name, (Const(nu - 1.0), inner))
        upper = Call(name, (Const(nu + 1.0), inner))
        return Mul(Mul(Const(0.5), Sub(lower, upper)), dargs[1])
    return hook


register_function(FunctionHook(
    "besselj", 2, lambda v: bessel_j(v[0], v[1]), _d_bessel("besselj"), constant_args=(0,)))
register_function(FunctionHook(
    "bessely", 2, lambda v: bessel_y(v[0], v[1]), _d_bessel("bessely"), constant_args=(0,)))
