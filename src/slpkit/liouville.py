"""Forward Liouville transformation and the x <-> t correspondence.

The change of variable t = integral of sqrt(r/p) dx together with the
substitution u = w v, w = (p r)^(-1/4), takes a canonical problem to the
reduced form -v'' + I(t) v = lambda v while preserving eigenvalues.  This
module builds that map numerically (tabulated with monotone cubic Hermite
interpolation between nodes, exact slopes sqrt(r/p) at the nodes), exposes
the potential I through its x-space expression, and inverts the map.

The positive branch dx/dt = +sqrt(p/r) is always taken, so t is strictly
increasing and interval orientation is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .expr import Call, Const, Div, Mul, Pow, Var, ExpressionAST, ExprError
from .problems import CanonicalSLP, SchrodingerSLP, validate


class TransformError(ValueError):
    """Invalid input to a transformation (validation failures, bad domain)."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge; carries the worst subinterval."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message} on subinterval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature


def _simpson_step(fn, a, b, fa, fm, fb, estimate, eps, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - estimate
    # second condition: rounding floor, the estimate cannot improve further
    if abs(delta) <= 15.0 * eps or abs(delta) <= 60.0 * 2.2e-16 * (abs(left) + abs(right)):
        return left + right + delta / 15.0
    if depth >= max_depth:
        raise QuadratureError("quadrature did not converge", a, b)
    half = 0.5 * eps
    return (_simpson_step(fn, a, m, fa, flm, fm, left, half, depth + 1, max_depth)
            + _simpson_step(fn, m, b, fm, frm, fb, right, half, depth + 1, max_depth))


def _adaptive_simpson(fn, lo, hi, tol, max_depth=48):
    flo, fhi = fn(lo), fn(hi)
    mid = 0.5 * (lo + hi)
    fmid = fn(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _simpson_step(fn, lo, hi, flo, fmid, fhi, whole, tol, 0, max_depth)


# ---------------------------------------------------------------------------
# the map object


def _hermite_value(x, x0, x1, t0, t1, d0, d1):
    h = x1 - x0
    s = (x - x0) / h
    s2 = s * s
    s3 = s2 * s
    return (t0 * (2 * s3 - 3 * s2 + 1) + h * d0 * (s3 - 2 * s2 + s)
            + t1 * (-2 * s3 + 3 * s2) + h * d1 * (s3 - s2))


def _hermite_slope(x, x0, x1, t0, t1, d0, d1):
    h = x1 - x0
    s = (x - x0) / h
    s2 = s * s
    return (t0 * (6 * s2 - 6 * s) / h + d0 * (3 * s2 - 4 * s + 1)
            + t1 * (6 * s - 6 * s2) / h + d1 * (3 * s2 - 2 * s))


@dataclass
class TransformMap:
    """The x <-> t correspondence of a Liouville transformation.

    Either closed form (t_fn/x_fn callables, exact=True) or tabulated
    (strictly increasing node arrays with clamped Hermite interpolation).
    Endpoints are pinned: t_of_x(a) = alpha and t_of_x(b) = beta exactly.
    """

    w_of_x: ExpressionAST
    domain_x: tuple
    domain_t: tuple
    exact: bool
    _t_fn: object = None
    _x_fn: object = None
    _xs: object = None
    _ts: object = None
    _ds: object = None
    t_text: str | None = None
    x_text: str | None = None

    @classmethod
    def closed_form(cls, t_fn, x_fn, w_of_x, domain_x, domain_t,
                    t_text=None, x_text=None):
        return cls(w_of_x=w_of_x, domain_x=tuple(domain_x), domain_t=tuple(domain_t),
                   exact=True, _t_fn=t_fn, _x_fn=x_fn, t_text=t_text, x_text=x_text)

    @classmethod
    def tabulated(cls, xs, ts, slopes, w_of_x):
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        ds = np.asarray(slopes, dtype=float)
        if not (np.diff(xs) > 0).all() or not (np.diff(ts) > 0).all():
            raise TransformError("tabulated map must be strictly increasing")
        # Fritsch-Carlson style clamp keeps the cubic monotone: each node
        # slope at most 3x the adjacent secants (slopes are >= 0 already).
        sec = np.diff(ts) / np.diff(xs)
        limit = 3.0 * np.minimum(np.concatenate([sec[:1], sec]),
                                 np.concatenate([sec, sec[-1:]]))
        ds = np.minimum(ds, limit)
        return cls(w_of_x=w_of_x, domain_x=(float(xs[0]), float(xs[-1])),
                   domain_t=(float(ts[0]), float(ts[-1])), exact=False,
                   _xs=xs, _ts=ts, _ds=ds)

    # -- queries ------------------------------------------------------------

    def _clip_x(self, x):
        a, b = self.domain_x
        span = b - a
        if x < a - 1e-12 * (1 + abs(a) + span) or x > b + 1e-12 * (1 + abs(b) + span):
            raise TransformError(f"x={x!r} outside map domain [{a!r}, {b!r}]")
        return min(max(x, a), b)

    def _clip_t(self, t):
        alpha, beta = self.domain_t
        span = beta - alpha
        if t < alpha - 1e-10 * (1 + abs(alpha) + span) or t > beta + 1e-10 * (1 + abs(beta) + span):
            raise TransformError(f"t={t!r} outside map domain [{alpha!r}, {beta!r}]")
        return min(max(t, alpha), beta)

    def t_of_x(self, x: float) -> float:
        x = self._clip_x(float(x))
        if self._t_fn is not None:
            return float(self._t_fn(x))
        xs, ts, ds = self._xs, self._ts, self._ds
        if x == xs[0]:
            return float(ts[0])
        if x == xs[-1]:
            return float(ts[-1])
        i = int(np.searchsorted(xs, x, side="right")) - 1
        i = min(max(i, 0), len(xs) - 2)
        return _hermite_value(x, xs[i], xs[i + 1], ts[i], ts[i + 1], ds[i], ds[i + 1])

    def x_of_t(self, t: float) -> float:
        t = self._clip_t(float(t))
        if self._x_fn is not None:
            return float(self._x_fn(t))
        xs, ts, ds = self._xs, self._ts, self._ds
        if t == ts[0]:
            return float(xs[0])
        if t == ts[-1]:
            return float(xs[-1])
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(max(i, 0), len(ts) - 2)
        lo, hi = float(xs[i]), float(xs[i + 1])
        args = (xs[i], xs[i + 1], ts[i], ts[i + 1], ds[i], ds[i + 1])
        x = 0.5 * (lo + hi)
        target = 1e-13 * (1.0 + abs(t))
        for _ in range(120):
            f = _hermite_value(x, *args) - t
            if abs(f) <= target:
                return x
            if f > 0.0:
                hi = x
            else:
                lo = x
            slope = _hermite_slope(x, *args)
            step = x - f / slope if slope > 0.0 else None
            x = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
        raise NumericalError(f"x_of_t did not converge at t={t!r}: |t(x) - t| = "
                             f"{abs(float(f))!r} after 120 steps")


# ---------------------------------------------------------------------------
# map construction


def _sigma_ast(problem: CanonicalSLP) -> ExpressionAST:
    # dt/dx = sqrt(r/p), the positive branch
    return ExpressionAST(Call("sqrt", (Div(problem.r.root, problem.p.root),)),
                         problem.p.variable_name)


def weight_ast(problem: CanonicalSLP) -> ExpressionAST:
    """w = (p*r)^(-1/4) as an expression over x."""
    return ExpressionAST(Pow(Mul(problem.p.root, problem.r.root), Const(-0.25)),
                         problem.p.variable_name)


def build_map(problem: CanonicalSLP, quad_tol: float = 1e-10,
              alpha_offset: float = 0.0, base_nodes: int = 2049) -> TransformMap:
    """Tabulate t(x) = offset + integral_a^x sqrt(r/p) on a refined grid.

    Starts from a uniform grid and bisects any cell whose cubic Hermite
    interpolant misses the quadrature value at the cell midpoint by more
    than quad_tol, so endpoint derivative blow-ups (the power-law maps)
    stay resolved.
    """
    if quad_tol <= 0.0:
        raise TransformError("quad_tol must be positive")
    bad = validate(problem)
    if bad:
        raise TransformError("problem failed validation: " + "; ".join(map(str, bad)))
    sigma_expr = _sigma_ast(problem)

    def sigma(x: float) -> float:
        try:
            return sigma_expr.evaluate(x)
        except ExprError as err:
            raise QuadratureError(f"sqrt(r/p) not evaluable mid-integration: {err}", x, x) from None

    a, b = problem.a, problem.b
    ncells = base_nodes - 1
    cell_tol = quad_tol / ncells

    cells: list = []  # (x1, integral) with x0 implicit from the previous entry
    grid = np.linspace(a, b, base_nodes)
    svals = [sigma(float(x)) for x in grid]
    for i in range(ncells):
        # depth-first, left half first, so cells come out in x order
        stack = [(float(grid[i]), float(grid[i + 1]), svals[i], svals[i + 1], 0)]
        while stack:
            x0, x1, s0, s1, depth = stack.pop()
            xm = 0.5 * (x0 + x1)
            left = _adaptive_simpson(sigma, x0, xm, 0.5 * cell_tol)
            right = _adaptive_simpson(sigma, xm, x1, 0.5 * cell_tol)
            sm = sigma(xm)
            predicted = _hermite_value(xm, x0, x1, 0.0, left + right, s0, s1)
            if abs(predicted - left) <= quad_tol or depth >= 45:
                cells.append((x1, left + right))
            else:
                stack.append((xm, x1, sm, s1, depth + 1))
                stack.append((x0, xm, s0, sm, depth + 1))

    xs = np.empty(len(cells) + 1)
    ts = np.empty(len(cells) + 1)
    xs[0], ts[0] = a, alpha_offset
    acc = alpha_offset
    for i, (x1, integral) in enumerate(cells):
        acc += integral
        xs[i + 1], ts[i + 1] = x1, acc
    ds = np.array([sigma(float(x)) for x in xs])
    return TransformMap.tabulated(xs, ts, ds, weight_ast(problem))


# ---------------------------------------------------------------------------
# the invariant in x-space


class _InvariantEvaluator:
    """I at t(x), computed from symbolic x-derivatives:

    I = q/r + [2 (w'/w)^2 - w''/w] (p/r) - (w'/w) * s * s',  s = sqrt(p/r).
    """

    def __init__(self, problem: CanonicalSLP):
        self.problem = problem
        self.w = weight_ast(problem)
        self.wp = self.w.differentiate()
        self.wpp = self.wp.differentiate()
        var = problem.p.variable_name
        self.s = ExpressionAST(Call("sqrt", (Div(problem.p.root, problem.r.root),)), var)
        self.sp = self.s.differentiate()

    def value(self, x: float) -> float:
        pv = self.problem.p.evaluate(x)
        qv = self.problem.q.evaluate(x)
        rv = self.problem.r.evaluate(x)
        wv = self.w.evaluate(x)
        wpv = self.wp.evaluate(x)
        wppv = self.wpp.evaluate(x)
        sv = self.s.evaluate(x)
        spv = self.sp.evaluate(x)
        ratio = wpv / wv
        return (qv / rv + (2.0 * ratio * ratio - wppv / wv) * (pv / rv)
                - ratio * sv * spv)


@lru_cache(maxsize=128)
def _cached_evaluator(problem: CanonicalSLP) -> _InvariantEvaluator:
    return _InvariantEvaluator(problem)


def invariant_at_x(problem: CanonicalSLP, x: float) -> float:
    """The reduced-form potential I at t = t(x), for any Liouville map of problem.

    The value is computed purely from p, q, r and their symbolic
    derivatives at x; the map fixes only where on the t-axis it lives.
    """
    return _cached_evaluator(problem).value(float(x))


class TabulatedInvariant:
    """Map-backed evaluator of I(t) produced by forward_transform."""

    def __init__(self, problem: CanonicalSLP, map_: TransformMap):
        self.problem = problem
        self.map = map_
        self._eval = _cached_evaluator(problem)

    def evaluate(self, t: float) -> float:
        return self._eval.value(self.map.x_of_t(t))


# ---------------------------------------------------------------------------
# the forward transformation


def forward_transform(problem: CanonicalSLP, quad_tol: float = 1e-10):
    """Canonical -> reduced form; returns (SchrodingerSLP, TransformMap).

    u = w v vanishes exactly where v does (w > 0), so the Dirichlet
    conditions of the canonical problem carry over to the reduced one.
    """
    map_ = build_map(problem, quad_tol)
    alpha, beta = map_.domain_t
    reduced = SchrodingerSLP(
        invariant=TabulatedInvariant(problem, map_),
        alpha=alpha,
        beta=beta,
    )
    return reduced, map_


def reduce_constant_coeff(problem: CanonicalSLP) -> SchrodingerSLP:
    """Constant p and r: rescale t = eta*x, eta = sqrt(r/p), potential p*q/r^2."""
    if not problem.p.is_constant() or not problem.r.is_constant():
        raise TransformError("reduce_constant_coeff requires constant p and r")
    p0 = problem.p.constant_value()
    r0 = problem.r.constant_value()
    if p0 <= 0.0 or r0 <= 0.0:
        raise TransformError(f"constant p and r must be positive, got p={p0}, r={r0}")
    eta = math.sqrt(r0 / p0)
    t_over_eta = ExpressionAST(Div(Var(), Const(eta)), "t")
    q_sub = problem.q.substitute(t_over_eta)
    potential = ExpressionAST(Mul(Const(p0 / (r0 * r0)), q_sub.root), "t")
    return SchrodingerSLP(
        invariant=potential,
        alpha=eta * problem.a,
        beta=eta * problem.b,
    )
