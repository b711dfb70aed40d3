"""Forward Liouville transformation and the x <-> t correspondence.

The change of variable t = integral of sqrt(r/p) dx together with the
substitution u = w v, w = (p r)^(-1/4), takes a canonical problem to the
reduced form -v'' + I(t) v = lambda v while preserving eigenvalues.  This
module builds that map numerically (tabulated with monotone cubic Hermite
interpolation between nodes, exact slopes sqrt(r/p) at the nodes), exposes
the potential I through its x-space expression, and inverts the map.

The map's cells are refined by one acceptance rule: one Simpson step on
each half and a Hermite test at the midpoint; a failing cell is halved,
each half reusing three of its parent's seven values of sqrt(r/p).  A
short scalar walk front applies the rule first to the base cell where
sqrt(r/p) is largest, depth first, so a non-integrable point there fails
within a few hundred lookups; one numpy loop then applies it to every
other base cell and every cell the front leaves, a generation at a time.
A work budget bounds a build's evaluations, and a cell too narrow to
halve is accepted (the ulp floor).

The map is inverted by Newton's method on each t's own Hermite piece,
safeguarded by bisection; `x_of_t_many` runs those steps for a batch of
t at once, elementwise, so every x is the scalar `x_of_t`'s bit for bit,
and `TabulatedInvariant.evaluate_many` inverts its batch that way.

The positive branch dx/dt = +sqrt(p/r) is always taken, so t is strictly
increasing and interval orientation is preserved.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericalError
from .expr import Add, Call, Const, Div, Mul, Pow, Sub, ExpressionAST, ExprError
from .problems import CanonicalSLP, SchrodingerSLP, validate


class TransformError(ValueError):
    """Invalid input to a transformation (validation failures, bad domain)."""


class QuadratureError(NumericalError):
    """The map quadrature failed: sqrt(r/p) not evaluable, or the work
    budget spent; carries the subinterval."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message} on subinterval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi


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


def _inside(value, domain, rel):
    """Whether value (a float, or elementwise a float64 array) lies in
    domain widened by rel of its scale at each end; NaN does not."""
    lo, hi = domain
    span = hi - lo
    return (lo - rel * (1 + abs(lo) + span) <= value) & (value <= hi + rel * (1 + abs(hi) + span))


def _outside(name, value, domain):
    lo, hi = domain
    return TransformError(f"{name}={value!r} outside map domain [{lo!r}, {hi!r}]")


def _clip(name, value, domain, rel):
    if not _inside(value, domain, rel):
        raise _outside(name, value, domain)
    lo, hi = domain
    return min(max(value, lo), hi)


@dataclass
class TransformMap:
    """The x <-> t correspondence of a Liouville transformation.

    Either closed form (expression trees for t(x) and x(t)) or tabulated
    (strictly increasing node lists with clamped Hermite interpolation).
    Endpoints are pinned: t_of_x(a) = alpha and t_of_x(b) = beta exactly.
    A tabulated map also keeps its nodes as float64 arrays for
    x_of_t_many, on the instance, outside the fields, so eq and repr are
    those of the fields.
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
        # copies: the arrays are kept, and the caller's must not alias them
        xs = np.array(xs, dtype=float)
        ts = np.array(ts, dtype=float)
        ds = np.asarray(slopes, dtype=float)
        if not (np.diff(xs) > 0).all() or not (np.diff(ts) > 0).all():
            raise TransformError("tabulated map must be strictly increasing")
        # Fritsch-Carlson style clamp keeps the cubic monotone: each node
        # slope at most 3x the adjacent secants (slopes are >= 0 already).
        sec = np.diff(ts) / np.diff(xs)
        limit = 3.0 * np.minimum(np.concatenate([sec[:1], sec]),
                                 np.concatenate([sec, sec[-1:]]))
        ds = np.minimum(ds, limit)
        nodes = xs, ts, ds
        xs, ts = xs.tolist(), ts.tolist()
        map_ = cls((xs[0], xs[-1]), (ts[0], ts[-1]), _xs=xs, _ts=ts, _ds=ds.tolist())
        map_._nodes = nodes
        return map_

    @cached_property
    def _nodes(self):
        """The node lists as float64 arrays; tabulated() sets them."""
        return np.array(self._xs), np.array(self._ts), np.array(self._ds)

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

    def x_of_t_many(self, ts) -> tuple:
        """x_of_t's values at the points of ts, in order, up to the first t
        where it fails, as a float64 array, and its error there (None where
        none fails): TransformError off the map, NumericalError where the
        Newton iteration does not converge.  An ExprError of a closed-form
        x(t) is raised, as x_of_t raises it.

        ts is read once, each t converted by float() as x_of_t converts it.
        A closed-form map evaluates x(t) as one evaluate_many batch; a
        tabulated one runs x_of_t's iteration on every t at once,
        elementwise, which is bit for bit the scalar's arithmetic."""
        points, refused = [], None
        try:
            for t in ts:
                points.append(float(t))
        except (TypeError, ValueError, OverflowError) as err:
            refused = err  # x_of_t raises it there, unless a t before it fails first
        t = np.array(points, dtype=float)
        error = None
        off = np.flatnonzero(~_inside(t, self.domain_t, 1e-10))
        if len(off):
            t, error = t[:off[0]], _outside("t", points[off[0]], self.domain_t)
        lo, hi = self.domain_t
        t = np.where(lo > t, lo, t)  # _clip's min(max(t, lo), hi), -0.0 kept
        t = np.where(hi < t, hi, t)
        if self._x_ast is not None:
            xs, failure = self._x_ast.evaluate_many(t)
            if failure is not None:
                raise failure
        else:
            xs, unconverged = self._newton_many(t)
            if unconverged is not None:  # at a t before the one off the map
                error = unconverged
        if error is None and refused is not None:
            raise refused
        return xs, error

    @np.errstate(all="ignore")
    def _newton_many(self, t):
        """x_of_t's tabulated branch at the points of t, which lie on the
        map, up to the first that does not converge, and the NumericalError
        there (or None).  Every t takes the scalar's steps, each element of
        the arrays one t's floats; its x is taken at the step where it
        converges (the later steps' values are never read)."""
        xs, ts, ds = self._nodes
        out = np.empty(len(t))
        out[t == ts[0]] = xs[0]
        out[t == ts[-1]] = xs[-1]
        free = np.flatnonzero((t != ts[0]) & (t != ts[-1]))
        t = t[free]
        i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
        lo, hi = xs[i], xs[i + 1]
        args = (lo, hi, ts[i], ts[i + 1], ds[i], ds[i + 1])
        x = 0.5 * (lo + hi)
        target = 1e-13 * (1.0 + np.abs(t))
        pending = np.ones(len(t), dtype=bool)
        for _ in range(120):
            f = _hermite_value(x, *args) - t
            done = pending & (np.abs(f) <= target)
            out[free[done]] = x[done]
            pending &= ~done
            if not pending.any():
                return out, None
            above = f > 0.0
            hi = np.where(above, x, hi)
            lo = np.where(above, lo, x)
            slope = _hermite_slope(x, *args)
            step = x - f / slope
            x = np.where((slope > 0.0) & (lo < step) & (step < hi), step, 0.5 * (lo + hi))
        k = np.argmax(pending)  # the first t that did not converge
        return out[:free[k]], NumericalError(
            f"x_of_t did not converge at t={t[k].item()!r}: |t(x) - t| = "
            f"{abs(f[k].item())!r} after 120 steps")


# ---------------------------------------------------------------------------
# map construction

_BASE_NODES = 2049
_WALK_LOOKUPS = 384  # sqrt(r/p) lookups the walk front makes in a build, at most
_MAX_EVALUATIONS = 1 << 20  # sqrt(r/p) evaluations a build makes, at most


def _sigma_ast(problem: CanonicalSLP) -> ExpressionAST:
    # dt/dx = sqrt(r/p), the positive branch
    return ExpressionAST(Call("sqrt", (Div(problem.r.root, problem.p.root),)),
                         problem.p.variable_name)


def weight_ast(problem: CanonicalSLP) -> ExpressionAST:
    """w = (p*r)^(-1/4) as an expression over x."""
    return ExpressionAST(Pow(Mul(problem.p.root, problem.r.root), Const(-0.25)),
                         problem.p.variable_name)


def _points(x0, x1):
    """A cell's midpoint, quarter points and eighth points, each made by
    0.5*(a+b) from the two points it halves."""
    xm = 0.5 * (x0 + x1)
    q1 = 0.5 * (x0 + xm)
    q3 = 0.5 * (xm + x1)
    return xm, q1, q3, 0.5 * (x0 + q1), 0.5 * (q1 + xm), 0.5 * (xm + q3), 0.5 * (q3 + x1)


def _simpson(a, m, b, fa, flm, fm, frm, fb, eps):
    """One step of adaptive Simpson on [a, b] (midpoint m): its halves'
    sum plus the Richardson term, and whether the step passes, |delta| <=
    15 eps or |delta| lost in the rounding of the halves."""
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    size = abs(delta)
    return (left + right + delta / 15.0,
            (size <= 15.0 * eps) | (size <= 60.0 * 2.2e-16 * (abs(left) + abs(right))))


def _rule(cell, points, eighths, half_tol, quad_tol):
    """A cell's integral, and whether the cell is accepted: one Simpson
    step passes on each half and the cubic Hermite interpolant of its ends
    meets the left half's integral at the midpoint within quad_tol, or its
    midpoint is not strictly inside it.  A cell is x0, x1 and sqrt(r/p) at
    its ends, midpoint and quarter points; `points` are its _points and
    `eighths` sqrt(r/p) at the last four.  Elementwise on arrays, bit for
    bit as on floats.  With finite arithmetic such a narrow cell passes
    anyway (its degenerate half has zero width and delta 0); the floor
    keeps refinement finite where the arithmetic overflows."""
    x0, x1, s0, s1, sm, sq1, sq3 = cell
    se1, se2, se3, se4 = eighths
    xm, q1, q3 = points[:3]
    left, ok = _simpson(x0, q1, xm, s0, se1, sq1, se2, sm, half_tol)
    right, ok_right = _simpson(xm, q3, x1, sm, se3, sq3, se4, s1, half_tol)
    total = left + right
    ok = ok & ok_right & (abs(_hermite_value(xm, x0, x1, 0.0, total, s0, s1) - left) <= quad_tol)
    return total, ok | (xm <= x0) | (x1 <= xm)


def _halves(cell, eighths):
    """A cell's two halves, as cells: each reuses three of its values."""
    x0, x1, s0, s1, sm, sq1, sq3 = cell
    se1, se2, se3, se4 = eighths
    xm = 0.5 * (x0 + x1)
    return (x0, xm, s0, sm, sq1, se1, se2), (xm, x1, sm, s1, sq3, se3, se4)


@np.errstate(all="ignore")
def _refine(cells, evaluate, room, half_tol, quad_tol):
    """The rule over `cells` (rows as _rule's cell, a column per cell), a
    generation at a time: the eighth points of a generation's cells as one
    `evaluate` batch, cell by cell, then the rule elementwise; the halves
    of the cells it splits are the next generation.  Returns the accepted
    cells' pieces, as (right ends, integrals, right-end slopes).  A
    generation that would make more than `room` evaluations in all is
    refused, naming its cell of largest endpoint sum."""
    pieces = []
    while cells.shape[1]:
        room -= 4 * cells.shape[1]
        if room < 0:
            i = np.argmax(cells[2] + cells[3])
            raise QuadratureError(f"map refinement did not converge within {_MAX_EVALUATIONS} "
                                  "evaluations of sqrt(r/p)", cells[0, i].item(), cells[1, i].item())
        points = _points(cells[0], cells[1])
        values = evaluate(np.array(points[3:]).T.ravel()).reshape(-1, 4).T
        total, ok = _rule(cells, points, values, half_tol, quad_tol)
        pieces.append((cells[1, ok], total[ok], cells[3, ok]))
        split = ~ok
        cells = np.hstack(_halves(cells[:, split], values[:, split]))
    return pieces


def build_map(problem: CanonicalSLP, quad_tol: float = 1e-10) -> TransformMap:
    """Tabulate t(x) = integral_a^x sqrt(r/p) on a refined grid.

    Starts from 2,048 uniform base cells and halves every cell that fails
    `_rule` (Simpson tolerance quad_tol/4096 per half, Hermite tolerance
    quad_tol), so endpoint derivative blow-ups (the power-law maps) stay
    resolved.  A cell's piece depends on the cell alone, so the map does
    not depend on which stage refines it; pieces are summed in x order.

    - Depth 0: the grid nodes as one `evaluate_many` batch; a batch of
      base cells' midpoints and quarter points then makes them cells of
      the rule: the cell with the largest endpoint sum, then every other
      cell (in decreasing order of their endpoint sum).
    - The walk front: while its _WALK_LOOKUPS lookups last, the top base
      cell is refined depth first, 4 scalar lookups per cell, the half
      with the larger endpoint sum first: a non-integrable point there,
      where sqrt(r/p) is largest, is reached in a few hundred lookups.
    - The loop: `_refine` takes the cells the front leaves and every other
      base cell as its first generation.

    Each point is evaluated once.  Where sqrt(r/p) fails, QuadratureError
    names the first failing point reached (in a batch, cell by cell).  A
    build makes at most _MAX_EVALUATIONS evaluations; past them
    QuadratureError names the budget and a cell.  A cell whose midpoint is
    not strictly inside it is accepted as it stands (the ulp floor).
    """
    # NaN: no cell would ever be accepted; inf: every cell would be
    if not 0.0 < quad_tol < math.inf:
        raise TransformError(f"quad_tol must be positive and finite, got {quad_tol}")
    bad = validate(problem)
    if bad:
        raise TransformError("problem failed validation: " + "; ".join(map(str, bad)))
    sigma = _sigma_ast(problem)
    half_tol = 0.5 * (quad_tol / (_BASE_NODES - 1))
    spent, lookups = 0, _WALK_LOOKUPS  # evaluations in all; the front's lookups left

    def refused(err, x):
        return QuadratureError(f"sqrt(r/p) not evaluable mid-integration: {err}", x, x)

    def evaluate(points):
        nonlocal spent
        spent += len(points)
        values, failure = sigma.evaluate_many(points)
        if failure is not None:
            raise refused(failure, points[len(values)].item())
        return values

    def lookup(x):
        try:
            return sigma.evaluate(x)
        except ExprError as err:
            raise refused(err, x) from None

    nodes = np.linspace(problem.a, problem.b, _BASE_NODES)
    if not (np.diff(nodes) > 0).all():
        raise TransformError(f"interval [{problem.a!r}, {problem.b!r}] holds too few floats "
                             f"for a grid of {_BASE_NODES} nodes")
    ends = evaluate(nodes)
    # largest endpoint sum first; the stable sort keeps equal sums in x order
    order = np.argsort(-(ends[:-1] + ends[1:]), kind="stable")

    def base(chunk):
        """Base cells as _rule's cells: one batch of their midpoints and
        quarter points."""
        x0, x1 = nodes[chunk], nodes[chunk + 1]
        values = evaluate(np.array(_points(x0, x1)[:3]).T.ravel()).reshape(-1, 3).T
        return np.array([x0, x1, ends[chunk], ends[chunk + 1], *values])

    # the walk front: the top cell, depth first, while the lookups and the
    # work budget last
    stack, walked = base(order[:1]).T.tolist(), []
    while stack and lookups >= 4 and spent + 4 <= _MAX_EVALUATIONS:
        cell = stack.pop()
        lookups, spent = lookups - 4, spent + 4
        points = _points(cell[0], cell[1])
        eighths = [lookup(x) for x in points[3:]]
        total, ok = _rule(cell, points, eighths, half_tol, quad_tol)
        if ok:
            walked.append((cell[1], total, cell[3]))
        else:
            # the half with the larger endpoint sum on top: a pole sits there
            left, right = _halves(cell, eighths)
            stack += (left, right) if left[2] + left[3] < right[2] + right[3] else (right, left)
    # accepted pieces, in any order: right ends, integrals, slopes
    pieces = [(nodes[:1], np.zeros(1), ends[:1]), np.array(walked).reshape(-1, 3).T]
    cells = np.hstack([np.array(stack).reshape(-1, 7).T, base(order[1:])])
    pieces += _refine(cells, evaluate, _MAX_EVALUATIONS - spent, half_tol, quad_tol)
    xs, integrals, ds = (np.concatenate(column) for column in zip(*pieces))
    # back to x order: pieces do not overlap, so their right ends are distinct
    order = np.argsort(xs, kind="stable")
    # a running sum in x order: the additions of a left-to-right pass, in its order
    return TransformMap.tabulated(xs[order], np.cumsum(integrals[order]), ds[order])


# ---------------------------------------------------------------------------
# the invariant in x-space


@lru_cache(maxsize=128)
def _invariant(problem: CanonicalSLP) -> ExpressionAST:
    """I = q/r + [2 R R - w''/w] (p/r) - R s s' with R = w'/w, s = sqrt(p/r),
    as one expression over x, operations grouped and ordered as written."""
    p, q, r = problem.p.root, problem.q.root, problem.r.root
    w = weight_ast(problem).root
    wp = w.diff()
    ratio = Div(wp, w)
    s = Call("sqrt", (Div(p, r),))
    bracket = Sub(Mul(Mul(Const(2.0), ratio), ratio), Div(wp.diff(), w))
    root = Sub(Add(Div(q, r), Mul(bracket, Div(p, r))), Mul(Mul(ratio, s), s.diff()))
    return ExpressionAST(root, problem.p.variable_name)


def invariant_at_x(problem: CanonicalSLP, x: float) -> float:
    """The reduced-form potential I at t = t(x), for any Liouville map of problem.

    The value is computed purely from p, q, r and their symbolic
    derivatives at x; the map fixes only where on the t-axis it lives.
    """
    return _invariant(problem).evaluate(x)


class TabulatedInvariant:
    """Map-backed evaluator of I(t) produced by forward_transform."""

    def __init__(self, problem: CanonicalSLP, map_: TransformMap):
        self.map = map_
        self._invariant = _invariant(problem)

    def evaluate(self, t: float) -> float:
        return self._invariant.evaluate(self.map.x_of_t(t))

    def evaluate_many(self, ts) -> tuple:
        """evaluate's values at the points of ts up to the first that fails,
        as a float64 array, and the error evaluate raises there (None where
        none fails): x(t) as one x_of_t_many batch, then the invariant at
        those x as one batch.  Where x_of_t fails at some t, the
        invariant's first failure at the x before it comes first, and
        otherwise x_of_t's error (TransformError or NumericalError) there."""
        xs, off_map = self.map.x_of_t_many(ts)
        values, failure = self._invariant.evaluate_many(xs)
        return values, off_map if failure is None else failure


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
