"""Forward Liouville transformation and the x <-> t correspondence.

The change of variable t = integral of sqrt(r/p) dx together with the
substitution u = w v, w = (p r)^(-1/4), takes a canonical problem to the
reduced form -v'' + I(t) v = lambda v while preserving eigenvalues.  This
module builds that map numerically (tabulated with monotone cubic Hermite
interpolation between nodes, exact slopes sqrt(r/p) at the nodes; nodes,
slopes and quadrature come from one sqrt(r/p) evaluation per point), exposes
the potential I through its x-space expression, and inverts the map.

The positive branch dx/dt = +sqrt(p/r) is always taken, so t is strictly
increasing and interval orientation is preserved.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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

_MAX_DEPTH = 48


def _simpson_step(fn, a, b, fa, fm, fb, estimate, eps, depth):
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
    if depth >= _MAX_DEPTH:
        raise QuadratureError("quadrature did not converge", a, b)
    half = 0.5 * eps
    return (_simpson_step(fn, a, m, fa, flm, fm, left, half, depth + 1)
            + _simpson_step(fn, m, b, fm, frm, fb, right, half, depth + 1))


def _adaptive_simpson(fn, lo, hi, flo, fhi, tol):
    """Integral of fn over [lo, hi]; flo and fhi are fn(lo) and fn(hi)."""
    fmid = fn(0.5 * (lo + hi))
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _simpson_step(fn, lo, hi, flo, fmid, fhi, whole, tol, 0)


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


def _clip(name, value, domain, rel):
    lo, hi = domain
    span = hi - lo
    if value < lo - rel * (1 + abs(lo) + span) or value > hi + rel * (1 + abs(hi) + span):
        raise TransformError(f"{name}={value!r} outside map domain [{lo!r}, {hi!r}]")
    return min(max(value, lo), hi)


@dataclass
class TransformMap:
    """The x <-> t correspondence of a Liouville transformation.

    Either closed form (expression trees for t(x) and x(t)) or tabulated
    (strictly increasing node lists with clamped Hermite interpolation).
    Endpoints are pinned: t_of_x(a) = alpha and t_of_x(b) = beta exactly.
    """

    domain_x: tuple
    domain_t: tuple
    _t_ast: ExpressionAST | None = None
    _x_ast: ExpressionAST | None = None
    _xs: list | None = None
    _ts: list | None = None
    _ds: list | None = None

    @classmethod
    def closed_form(cls, t_ast, x_ast, domain_x, domain_t):
        return cls(tuple(domain_x), tuple(domain_t), _t_ast=t_ast, _x_ast=x_ast)

    @classmethod
    def tabulated(cls, xs, ts, slopes):
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
        xs, ts = xs.tolist(), ts.tolist()
        return cls((xs[0], xs[-1]), (ts[0], ts[-1]),
                   _xs=xs, _ts=ts, _ds=ds.tolist())

    @property
    def t_text(self) -> str | None:
        return None if self._t_ast is None else self._t_ast.to_text()

    @property
    def x_text(self) -> str | None:
        return None if self._x_ast is None else self._x_ast.to_text()

    # -- queries ------------------------------------------------------------

    def t_of_x(self, x: float) -> float:
        x = _clip("x", float(x), self.domain_x, 1e-12)
        if self._t_ast is not None:
            return self._t_ast.evaluate(x)
        xs, ts, ds = self._xs, self._ts, self._ds
        if x == xs[0]:
            return ts[0]
        if x == xs[-1]:
            return ts[-1]
        i = min(bisect_right(xs, x) - 1, len(xs) - 2)
        return _hermite_value(x, xs[i], xs[i + 1], ts[i], ts[i + 1], ds[i], ds[i + 1])

    def x_of_t(self, t: float) -> float:
        t = _clip("t", float(t), self.domain_t, 1e-10)
        if self._x_ast is not None:
            return self._x_ast.evaluate(t)
        xs, ts, ds = self._xs, self._ts, self._ds
        if t == ts[0]:
            return xs[0]
        if t == ts[-1]:
            return xs[-1]
        i = min(bisect_right(ts, t) - 1, len(ts) - 2)
        lo, hi = xs[i], xs[i + 1]
        args = (lo, hi, ts[i], ts[i + 1], ds[i], ds[i + 1])
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
                             f"{abs(f)!r} after 120 steps")


# ---------------------------------------------------------------------------
# map construction

_BASE_NODES = 2049


def _sigma_ast(problem: CanonicalSLP) -> ExpressionAST:
    # dt/dx = sqrt(r/p), the positive branch
    return ExpressionAST(Call("sqrt", (Div(problem.r.root, problem.p.root),)),
                         problem.p.variable_name)


def weight_ast(problem: CanonicalSLP) -> ExpressionAST:
    """w = (p*r)^(-1/4) as an expression over x."""
    return ExpressionAST(Pow(Mul(problem.p.root, problem.r.root), Const(-0.25)),
                         problem.p.variable_name)


def build_map(problem: CanonicalSLP, quad_tol: float = 1e-10) -> TransformMap:
    """Tabulate t(x) = integral_a^x sqrt(r/p) on a refined grid.

    Starts from a uniform grid and bisects any cell whose cubic Hermite
    interpolant misses the quadrature value at the cell midpoint by more
    than quad_tol, so endpoint derivative blow-ups (the power-law maps)
    stay resolved.  sqrt(r/p) is evaluated once per point: the node slopes
    and the quadrature share the same values.
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

    half_tol = 0.5 * (quad_tol / (_BASE_NODES - 1))
    grid = np.linspace(problem.a, problem.b, _BASE_NODES).tolist()
    # the whole grid first: a failing node is reported before any point between nodes
    svals = [sigma(x) for x in grid]
    xs, ts, ds = [grid[0]], [0.0], [svals[0]]
    t = 0.0
    for i in range(_BASE_NODES - 1):
        # depth-first, left half first, so cells come out in x order
        stack = [(grid[i], grid[i + 1], svals[i], svals[i + 1], 0)]
        while stack:
            x0, x1, s0, s1, depth = stack.pop()
            xm = 0.5 * (x0 + x1)
            sm = sigma(xm)
            left = _adaptive_simpson(sigma, x0, xm, s0, sm, half_tol)
            right = _adaptive_simpson(sigma, xm, x1, sm, s1, half_tol)
            predicted = _hermite_value(xm, x0, x1, 0.0, left + right, s0, s1)
            if abs(predicted - left) <= quad_tol or depth >= 45:
                t += left + right
                xs.append(x1)
                ts.append(t)
                ds.append(s1)
            else:
                stack.append((xm, x1, sm, s1, depth + 1))
                stack.append((x0, xm, s0, sm, depth + 1))
    return TransformMap.tabulated(xs, ts, ds)


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
