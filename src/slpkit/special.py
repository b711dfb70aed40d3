"""Gamma and real-order Bessel functions of the first and second kinds.

Self-contained double-precision implementations sized for the needs of the
inverse constructions: gamma via the Lanczos approximation (g = 7, nine
coefficients, reflection below 1/2), J_nu by the ascending power series up
to x = max(12, 2|nu|) and Hankel large-argument asymptotics beyond (the
phase added to the exactly reduced x by the angle-sum formulas), and
Y_nu through the connection formula (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi)
with orders within 2e-4 of an integer n blended quadratically through the
integer-order series at n and the connection formula at n +- 2e-4.

Accuracy against mpmath for nu in [0, 5], x in [1e-3, 50]: J within 2e-12
absolute, Y within 5e-9 relative to max(1, |Y|) (worst for orders near the
edge of the 2e-4 blend window as x approaches the crossover at 12), gamma
within 1e-13 relative at least 0.01 from a pole.  Negative x and complex
anything are out of scope.

The functions are registered with the expression layer as ``besselj(nu, u)``
and ``bessely(nu, u)`` (constant order), so coefficient functions built from
Bessel factors print, re-parse and differentiate like any other expression.

Both also have a block form over a float64 array of arguments, which
``evaluate_many`` and the zero scans use: the ascending series run over
all lanes at once, each lane stopping at its own last term, with the scalar
functions' operations in the scalar functions' order, so every element is
the scalar value bit for bit.  Lanes in the Hankel range, and lanes the
series cannot serve exactly, go through the scalar functions one at a
time, so a failing lane raises the scalar error.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .expr import (_BLOCK, Call, Const, FunctionHook, Mul, Sub, _fold_const,
                   _powers, register_function)


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


@lru_cache(maxsize=32)
def _denominators(nu: float) -> list:
    # m * (nu + m) for the terms m = 1..399, as the series loop computed
    # them; 13 KiB an order, so the cache holds at most 0.4 MiB
    return [m * (nu + m) for m in range(1, 400)]


def _half_power(x: float, half: float, k: float) -> float:
    # (x/2)**k.  Below 1e-323 the halving underflows to 0, which a negative
    # power cannot be taken of; x**k / 2**k is the same power without it
    return half**k if half > 0.0 else x**k * 2.0**-k


def _series_j(nu: float, x: float) -> float:
    # ascending series; caller guarantees nu is not a negative integer
    half = 0.5 * x
    term = _half_power(x, half, nu) * _rgamma(nu + 1.0)
    total = term
    nq = -(half * half)
    for d in _denominators(nu):
        term *= nq / d
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
    # cos and sin of x - phase by the angle-sum formulas: math.cos and
    # math.sin reduce x exactly, where x - phase would round away up to
    # ulp(x)/2 of the phase, and from x ~ 1e17 on all of it
    phase = (0.5 * nu + 0.25) * math.pi
    cx, sx, cp, sp = math.cos(x), math.sin(x), math.cos(phase), math.sin(phase)
    cos_chi, sin_chi = cx * cp + sx * sp, sx * cp - cx * sp
    amp = math.sqrt(2.0 / (math.pi * x))
    cj = amp * (p_sum * cos_chi - q_sum * sin_chi)
    cy = amp * (p_sum * sin_chi + q_sum * cos_chi)
    return cj, cy


def _crossover(nu: float) -> float:
    return max(12.0, 2.0 * abs(nu))


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order, x > 0."""
    if not x > 0.0:  # NaN too
        raise SpecialFunctionError(f"bessel_j requires x > 0, got {x}")
    n = round(nu)
    if nu == n and n < 0:
        sign = -1.0 if n % 2 else 1.0
        return sign * bessel_j(float(-n), x)
    if x <= _crossover(nu):
        return _series_j(nu, x)
    return _hankel_jy(nu, x)[0]


# The Y pieces below take the series as arguments, so that one body serves
# scalars and blocks alike (see the block forms further down).


def _y_connection(nu: float, x, series):
    s = math.sin(math.pi * nu)
    c = math.cos(math.pi * nu)
    return (series(nu, x) * c - series(-nu, x)) / s


_EULER_GAMMA = 0.5772156649015329


@lru_cache(maxsize=8)
def _y_integer_terms(n: int) -> tuple:
    # psi(1) + psi(n+1), then for m = 1..399 the denominators m (m + n) and
    # the coefficients (-1)^m [psi(m+1) + psi(m+n+1)], summed as the series
    # loop summed them; 28 KiB an order, so the cache holds at most 0.22 MiB
    h_m = 0.0
    h_mn = sum(1.0 / i for i in range(1, n + 1))
    first = -2.0 * _EULER_GAMMA + h_m + h_mn
    dens, coefs, sign = [], [], 1.0
    for m in range(1, 400):
        sign = -sign
        h_m += 1.0 / m
        h_mn += 1.0 / (m + n)
        dens.append(m * (m + n))
        coefs.append(sign * (-2.0 * _EULER_GAMMA + h_m + h_mn))
    return first, dens, coefs


def _y_integer_series(n: int, x: float) -> float:
    # ascending series with the logarithmic term, nonnegative integer order
    half = 0.5 * x
    # where the halving underflows, log(x/2) is log(x) - log(2), and the
    # finite sum's (x/2)**-n overflows for n >= 1, as it does at 1e-323
    log_half = math.log(half) if half > 0.0 else math.log(x) - math.log(2.0)
    log_part = (2.0 / math.pi) * log_half * _series_j(float(n), x)
    finite = 0.0
    for m in range(n):
        finite += math.factorial(n - m - 1) / math.factorial(m) * _half_power(x, half, 2 * m - n)
    finite /= math.pi
    # sum of (-1)^m [psi(m+1) + psi(m+n+1)] / (m! (m+n)!) * half^(2m+n)
    first, dens, coefs = _y_integer_terms(n)
    term = half**n / math.factorial(n)
    total = first * term
    q = half * half
    for d, c in zip(dens, coefs):
        term *= q / d
        piece = c * term
        total += piece
        if abs(piece) <= 1e-17 * (1.0 + abs(total)):
            break
    return log_part - finite - total / math.pi


def _y_small(nu: float, x, series, integer_series):
    # Y_nu for nu >= 0 at 0 < x <= the crossover
    n = round(nu)
    delta = nu - n
    if delta == 0.0:
        return integer_series(n, x)
    # the connection formula loses ~1/|delta| in accuracy close to integer
    # orders; blend through the integer-order series across a small window
    window = 2e-4
    if abs(delta) < window:
        y_mid = integer_series(n, x)
        y_lo = _y_connection(n - window, x, series)
        y_hi = _y_connection(n + window, x, series)
        curv = (y_hi - 2.0 * y_mid + y_lo) / (2.0 * window * window)
        slope = (y_hi - y_lo) / (2.0 * window)
        return y_mid + slope * delta + curv * delta * delta
    return _y_connection(nu, x, series)


def _y_reflected(v: float, x, y, j):
    # Y_{-v} = cos(v pi) Y_v + sin(v pi) J_v
    if (2.0 * v) % 2.0 == 1.0:
        # half-odd v: cos(v pi) is 0, which math.cos misses by ~6e-17,
        # enough for the large Y_v to swamp J_v at small x
        jv = j(v, x)
        return jv if (v - 0.5) % 2.0 == 0.0 else -jv
    return math.cos(math.pi * v) * y(v, x) + math.sin(math.pi * v) * j(v, x)


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, real order, x > 0."""
    if not x > 0.0:  # NaN too
        raise SpecialFunctionError(f"bessel_y requires x > 0, got {x}")
    if nu < 0.0:
        return _y_reflected(-nu, x, bessel_y, bessel_j)
    if x > _crossover(nu):
        return _hankel_jy(nu, x)[1]
    return _y_small(nu, x, _series_j, _y_integer_series)


# ---------------------------------------------------------------------------
# block forms: bessel_j and bessel_y over a float64 array of arguments
#
# The ascending series run over the lanes with 0 < x/2 and x <= the
# crossover, each operation the scalar form's in the scalar form's order:
# numpy's + - * / are correctly rounded, powers run through expr._powers,
# whose np.float_power calls the C library's pow as Python's ** does, and
# logarithms run per element through math.log, since np.log differs from
# it in the last bit.  Each lane stops at its own last term.  Every other
# lane (the Hankel range, x <= 0, NaN, inf, a halving that underflows) goes
# through the scalar function one element at a time, and where the series
# raise (an overflowing power, a series that does not converge) every lane
# does.  So each element is the scalar function's value there, and a
# failing lane raises the scalar function's error.


_GROUP = 8  # series terms between two stop tests of the lanes


def _sum_lanes(term: np.ndarray, total: np.ndarray, ratio: np.ndarray, dens,
               coefs=None) -> tuple:
    """The series loop on every lane: for each d of dens, term *= ratio / d,
    the piece is term (or the next of coefs times term), total += piece,
    and a lane stops at the first piece with |piece| <= 1e-17 (1 + |total|).

    The stop test runs once per _GROUP terms, over the pieces and totals of
    all of them, and the lanes that stopped leave the arrays then, each
    with its total at its own first stop.  Returns the totals and whether
    every lane stopped.
    """
    out = np.empty(len(total))
    lanes = np.arange(len(total))
    for start in range(0, len(dens), _GROUP):
        group = dens[start:start + _GROUP]
        pieces = np.empty((len(group), len(lanes)))
        totals = np.empty_like(pieces)
        for i, d in enumerate(group):
            if coefs is None:
                term = piece = np.multiply(term, ratio / d, out=pieces[i])
            else:
                term *= ratio / d
                piece = np.multiply(term, coefs[start + i], out=pieces[i])
            total = np.add(total, piece, out=totals[i])
        stop = np.abs(pieces) <= 1e-17 * (1.0 + np.abs(totals))
        hit = stop.any(axis=0)
        if hit.any():
            cols = np.flatnonzero(hit)
            out[lanes[cols]] = totals[stop[:, cols].argmax(axis=0), cols]
            if len(cols) == len(lanes):
                return out, True
            go = ~hit
            lanes, term, total, ratio = lanes[go], term[go], total[go], ratio[go]
    out[lanes] = total
    return out, False


def _series_j_block(nu: float, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    term = _powers(half, nu) * _rgamma(nu + 1.0)
    total, converged = _sum_lanes(term, term.copy(), -(half * half), _denominators(nu))
    if not converged:
        raise SpecialFunctionError(f"Bessel series did not converge (nu={nu})")
    return total


def _j_block(nu: float, x: np.ndarray) -> np.ndarray:
    n = round(nu)
    if nu == n and n < 0:
        return (-1.0 if n % 2 else 1.0) * _series_j_block(float(-n), x)
    return _series_j_block(nu, x)


def _y_integer_block(n: int, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    logs = np.fromiter(map(math.log, half.tolist()), float, len(half))
    log_part = (2.0 / math.pi) * logs * _series_j_block(float(n), x)
    finite = np.zeros(len(x))
    for m in range(n):
        finite += math.factorial(n - m - 1) / math.factorial(m) * _powers(half, 2 * m - n)
    finite /= math.pi
    first, dens, coefs = _y_integer_terms(n)
    term = _powers(half, n) / float(math.factorial(n))
    total, _ = _sum_lanes(term, first * term, half * half, dens, coefs)
    return log_part - finite - total / math.pi


def _y_block(nu: float, x: np.ndarray) -> np.ndarray:
    if nu < 0.0:
        return _y_reflected(-nu, x, _y_block, _j_block)
    return _y_small(nu, x, _series_j_block, _y_integer_block)


def _lanes(scalar, series, nu: float, x: np.ndarray) -> np.ndarray:
    """scalar(nu, .) at each element of x: series on the lanes the
    ascending series serves, scalar one element at a time elsewhere."""
    out = np.empty(len(x))
    with np.errstate(all="ignore"):
        inner = (x <= _crossover(nu)) & (0.5 * x > 0.0)
        if inner.any():
            try:
                out[inner] = series(nu, x[inner])
            except (ArithmeticError, ValueError):
                inner[:] = False
    for i in np.flatnonzero(~inner).tolist():
        out[i] = scalar(nu, float(x[i]))
    return out


def _bessel_j_block(nu: float, x: np.ndarray) -> np.ndarray:
    return _lanes(bessel_j, _j_block, nu, x)


def _bessel_y_block(nu: float, x: np.ndarray) -> np.ndarray:
    return _lanes(bessel_y, _y_block, nu, x)


_SCAN_STEP = 0.05
# about 0.4 s of Bessel evaluations; case3 builds with q0/r0 near 1 scan < 100
_SCAN_MAX_POINTS = 100_000


def _scan(fn, block, lo: float, hi: float, count: int):
    """(x, fn(x)) at the grid points lo + (hi - lo) * i / (count - 1), each
    computed as a loop over i would compute it.  block, fn's block form,
    evaluates them by blocks; where it raises, fn does, one point at a time
    as the scan reaches it, so a failing point raises after the zeros
    before it, as in a scan point by point."""
    for start in range(0, count, _BLOCK):
        xs = lo + (hi - lo) * np.arange(start, min(start + _BLOCK, count)) / (count - 1)
        try:
            fs = block(xs).tolist()
        except (ArithmeticError, ValueError):
            fs = map(fn, xs.tolist())
        yield from zip(xs.tolist(), fs)


def _zeros_of(fn, block, lo: float, hi: float) -> list[float]:
    """Zeros of a smooth oscillatory function by scan + bisection; block is
    fn's block form, which evaluates the scan.  A bisection takes at most
    80 steps, and stops once its midpoint is an end of its bracket: the
    later steps would keep that point."""
    zeros = []
    if hi <= lo:
        return zeros
    count = max(2, math.ceil((hi - lo) / _SCAN_STEP) + 1)
    if count > _SCAN_MAX_POINTS:
        raise SpecialFunctionError(
            f"zero scan of [{lo!r}, {hi!r}] at step {_SCAN_STEP} needs more than "
            f"{_SCAN_MAX_POINTS} points")
    points = _scan(fn, block, lo, hi, count)
    prev_x, prev_f = next(points)
    for cur_x, cur_f in points:
        if prev_f == 0.0:
            zeros.append(prev_x)
        elif prev_f * cur_f < 0.0:
            a, b, fa = prev_x, cur_x, prev_f
            for _ in range(80):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break  # the bracket cannot shrink: every later step keeps it
                fm = fn(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        prev_x, prev_f = cur_x, cur_f
    return zeros


def bessel_j_zeros(nu: float, lo: float, hi: float) -> list[float]:
    return _zeros_of(lambda z: bessel_j(nu, z), lambda zs: _bessel_j_block(nu, zs),
                     max(lo, 1e-9), hi)


def bessel_y_zeros(nu: float, lo: float, hi: float) -> list[float]:
    return _zeros_of(lambda z: bessel_y(nu, z), lambda zs: _bessel_y_block(nu, zs),
                     max(lo, 1e-2), hi)


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
    "besselj", 2, bessel_j, _d_bessel("besselj"), constant_args=(0,),
    block=_bessel_j_block))
register_function(FunctionHook(
    "bessely", 2, bessel_y, _d_bessel("bessely"), constant_args=(0,),
    block=_bessel_y_block))
