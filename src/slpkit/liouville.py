"""Forward Liouville transformation and the x <-> t correspondence.

The change of variable t = integral of sqrt(r/p) dx together with the
substitution u = w v, w = (p r)^(-1/4), takes a canonical problem to the
reduced form -v'' + I(t) v = lambda v while preserving eigenvalues.  This
module builds that map numerically (tabulated with monotone cubic Hermite
interpolation between nodes, exact slopes sqrt(r/p) at the nodes; nodes,
slopes and quadrature share their sqrt(r/p) values, evaluated in batches
and once per point), exposes the potential I through its x-space
expression, and inverts the map.  The adaptive refinement is that of a
depth-first walk: the walk itself runs it for a fixed number of lookups
per build, so a non-integrable point fails fast, and hands the base cells
it has not finished, whole, to one level-by-level numpy run of the same
arithmetic, in which a cell carries the values its children reuse.

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
from .expr import Add, Call, Const, Div, Mul, Pow, Sub, ExpressionAST, ExprError
from .problems import CanonicalSLP, SchrodingerSLP, _evaluate_upto, validate


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
_MAX_CELL_DEPTH = 45  # map refinement: halvings of a base cell


class _Handover(Exception):
    """The walk's lookup budget ran out (see build_map)."""


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
    # the half whose outer samples sum larger first: a pole sits there, and
    # a non-integrable one fails before its neighbours are resolved
    if frm + fb > fa + flm:
        r = _simpson_step(fn, m, b, fm, frm, fb, right, half, depth + 1)
        l = _simpson_step(fn, a, m, fa, flm, fm, left, half, depth + 1)
    else:
        l = _simpson_step(fn, a, m, fa, flm, fm, left, half, depth + 1)
        r = _simpson_step(fn, m, b, fm, frm, fb, right, half, depth + 1)
    return l + r


def _simpson_root(lo, hi, flo, fmid, fhi, tol):
    """The root of _adaptive_simpson's tree (fmid: fn at its midpoint), as
    _simpson_step's arguments after fn; elementwise where they are arrays."""
    return lo, hi, flo, fmid, fhi, (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi), tol, 0


def _adaptive_simpson(fn, lo, hi, flo, fhi, tol):
    """Integral of fn over [lo, hi]; flo and fhi are fn(lo) and fn(hi)."""
    return _simpson_step(fn, *_simpson_root(lo, hi, flo, fn(0.5 * (lo + hi)), fhi, tol))


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
    # written so that NaN fails it too
    if not lo - rel * (1 + abs(lo) + span) <= value <= hi + rel * (1 + abs(hi) + span):
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
_MAX_CHUNK = 256  # base cells per depth-0 batch, at most
_WALK_LOOKUPS = 256  # sqrt(r/p) lookups a build's walk makes before it hands its cells over
_MAX_NODES = 1 << 17  # Simpson nodes batched refinement may hold at once


def _sigma_ast(problem: CanonicalSLP) -> ExpressionAST:
    # dt/dx = sqrt(r/p), the positive branch
    return ExpressionAST(Call("sqrt", (Div(problem.r.root, problem.p.root),)),
                         problem.p.variable_name)


def weight_ast(problem: CanonicalSLP) -> ExpressionAST:
    """w = (p*r)^(-1/4) as an expression over x."""
    return ExpressionAST(Pow(Mul(problem.p.root, problem.r.root), Const(-0.25)),
                         problem.p.variable_name)


# numpy would warn where the walk's Python floats overflow quietly
@np.errstate(all="ignore")
def _depth0_points(x0, x1):
    """The points a base cell's first step evaluates, made as the walk makes
    them: its midpoint, the midpoints of its halves, then of their halves."""
    xm = 0.5 * (x0 + x1)
    q1 = 0.5 * (x0 + xm)
    q3 = 0.5 * (xm + x1)
    return xm, q1, q3, 0.5 * (x0 + q1), 0.5 * (q1 + xm), 0.5 * (xm + q3), 0.5 * (q3 + x1)


@np.errstate(all="ignore")
def _depth0_step(points, values, lo, hi, slo, shi, half_tol, quad_tol):
    """The walk's depth-0 step for a chunk of base cells, elementwise with
    its arithmetic: each cell's integral, and whether the cell is accepted
    there (both Simpson tests pass without recursion, then the Hermite test)."""
    xm, q1, q3 = points[:3]
    sm, sq1, sq3, se1, se2, se3, se4 = values
    left, ok_left = _simpson_once(lo, q1, xm, slo, se1, sq1, se2, sm, half_tol)
    right, ok_right = _simpson_once(xm, q3, hi, sm, se3, sq3, se4, shi, half_tol)
    total = left + right
    predicted = _hermite_value(xm, lo, hi, 0.0, total, slo, shi)
    return total, ok_left & ok_right & (abs(predicted - left) <= quad_tol)


def _simpson_once(a, m, b, fa, flm, fm, frm, fb, eps):
    # _adaptive_simpson's whole, then _simpson_step at depth 0: the value and its test
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    _, _, key, value = _simpson_halves(a, m, b, fa, fm, fb, flm, frm, whole)
    return value, key <= 15.0 * eps


def _simpson_halves(a, m, b, fa, fm, fb, flm, frm, estimate):
    """_simpson_step's arithmetic, elementwise: the halves' estimates, a key
    that is |delta|, or 0 where the rounding floor passes, so the node is a
    leaf where key <= 15*eps, and the node's value as a leaf."""
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    both = left + right
    delta = both - estimate
    size = abs(delta)
    key = np.where(size <= 60.0 * 2.2e-16 * (abs(left) + abs(right)), 0.0, size)
    return left, right, key, both + delta / 15.0


class _Fallback(Exception):
    """Batched refinement stops: a depth cap, or more than _MAX_NODES nodes."""


# the rows of a split node's children among a, m, b, fa, fm, fb, flm, frm,
# left, right, eps/2, depth+1: the left child's arguments, then the right's
_CHILDREN = np.array([[0, 1, 3, 6, 4, 8, 10, 11], [1, 2, 4, 7, 5, 9, 10, 11]])
# the rows of a split cell's halves among x0, xm, x1, s0, sm, s1, depth+1, sq1,
# sq3, its roots' flm, frm (left's, right's), forest and index (left's, right's)
_CELL_CHILDREN = np.array([[0, 1, 3, 4, 6, 7, 9, 10, 13, 15],
                           [1, 2, 4, 5, 6, 8, 11, 12, 14, 16]])


def _sampled(evaluate, nodes):
    """Simpson nodes (_simpson_step's arguments after fn, a column each) and
    flm, frm: fn at their points 0.5*(a+m), 0.5*(m+b), one evaluate batch."""
    a, b = nodes[:2]
    m = 0.5 * (a + b)
    return np.vstack((nodes, evaluate(0.5 * np.concatenate((a + m, m + b))).reshape(2, -1)))


@np.errstate(all="ignore")
def _simpson_levels(evaluate, nodes, room):
    """Run Simpson nodes (the rows of `nodes` are those of _sampled, a
    column per node) level by level: _simpson_step's arithmetic
    elementwise, then one evaluate batch of the points of the split nodes'
    children.  Returns the levels, the nodes' own first, each as (key,
    value, split, flm, frm) with key and value those of _simpson_halves;
    split nodes have their children, in order, at the next level.  More
    than `room` nodes, or a split at _MAX_DEPTH, raise _Fallback."""
    levels = []
    while True:
        room -= nodes.shape[1]
        if room < 0:
            raise _Fallback
        a, b, fa, fm, fb, estimate, eps, depth, flm, frm = nodes
        m = 0.5 * (a + b)
        left, right, key, value = _simpson_halves(a, m, b, fa, fm, fb, flm, frm, estimate)
        split = ~(key <= 15.0 * eps)
        levels.append((key, value, split, flm, frm))
        if not split.any():
            return levels
        if (split & (depth >= _MAX_DEPTH)).any():
            raise _Fallback
        rows = np.array((a, m, b, fa, fm, fb, flm, frm, left, right, eps, depth))[:, split]
        rows[10] *= 0.5
        rows[11] += 1.0
        nodes = _sampled(evaluate, rows[_CHILDREN].transpose(1, 2, 0).reshape(8, -1))


def _tree_values(levels, top, eps=None):
    """The values of the nodes at levels[top] (of _simpson_levels), a split
    node's value l + r.  Nodes split as they did in the run or, given the
    tolerances by depth `eps`, where they fail _simpson_step's test as
    nodes of trees rooted at levels[top], k levels down with tolerance
    eps[k]: where those are looser than the run's, the same points split a
    subset of the nodes, so those trees were run whole."""
    values = None
    for k in range(len(levels) - 1, top - 1, -1):
        key, value, ran = levels[k][:3]
        split = ran if eps is None else ran & ~(key <= 15.0 * eps[k - top])
        if split.any():
            value = value.copy()
            value[split] = (values[0::2] + values[1::2])[split[ran]]
        values = value
    return values


def _accept(x0, x1, s0, s1, depth, xm, left, right, quad_tol, pieces):
    """The walk's Hermite test on cells, elementwise: the pieces of the
    cells it accepts go to `pieces` (right ends, integrals, slopes), and
    the mask of the cells that split is returned; a split at
    _MAX_CELL_DEPTH raises _Fallback."""
    total = left + right
    ok = abs(_hermite_value(xm, x0, x1, 0.0, total, s0, s1) - left) <= quad_tol
    xs, integrals, ds = pieces
    xs += x1[ok].tolist()
    integrals += total[ok].tolist()
    ds += s1[ok].tolist()
    split = ~ok
    if (split & (depth >= _MAX_CELL_DEPTH)).any():
        raise _Fallback
    return split


@np.errstate(all="ignore")
def _refine_batched(evaluate, cells, half_tol, quad_tol, pieces):
    """The walk's refinement of `cells`, run a generation of cells at a
    time: their Simpson trees, then the Hermite test elementwise.  A cell
    is a base cell not begun: x0, x1, s0, s1, 0, then sqrt(r/p) at its
    seven depth-0 points, in _depth0_points' order; `evaluate` gives
    sqrt(r/p) at an array of other points.  A depth cap, or more than
    _MAX_NODES nodes held, raises _Fallback.  A build makes one call, with
    every cell the walk handed over: a cell's pieces depend on it alone.

    A cell's two trees cover its halves with root tolerance half_tol.  A
    half of a child cell is a half of one of its parent's halves, and the
    parent's tree there ran on the same points with half that tolerance.
    So where the parent's root over it split, the child's trees are
    subtrees already run, which `_tree_values` reads; the other cells'
    trees run by `_simpson_levels`, a generation's as one forest.  A cell
    carries sqrt(r/p) at its midpoint and quarter points (sm, sq1, sq3):
    its parent's quarter point and the points of its parent's root over
    it, which the levels keep (for generation 0, the depth-0 batch's, as
    are its roots' flm and frm), so `evaluate` only ever gets new points."""
    # a column per cell: x0, x1, s0, s1, depth, sm, sq1, sq3, then where its
    # trees are: the generation whose forest holds them (-1: none yet) and
    # the index of its left root there, the right root next to it
    given = np.array(cells, dtype=float).reshape(-1, 12).T
    cells = np.vstack((given[:8], np.full(given.shape[1], -1.0), np.zeros(given.shape[1])))
    # flm and frm of generation 0's roots: each cell's left root's, then its right root's
    below = given[8:][[[0, 2], [1, 3]]].transpose(0, 2, 1).reshape(2, -1)
    forests = {}
    eps = [half_tol]  # a tree's tolerances by depth, halved as the walk halves them
    while len(eps) <= _MAX_DEPTH:
        eps.append(0.5 * eps[-1])
    generation = 0
    while cells.shape[1]:
        x0, x1, s0, s1, depth, sm, sq1, sq3, forest, index = cells
        index = index.astype(int)
        xm = 0.5 * (x0 + x1)
        left, right = np.empty(len(x0)), np.empty(len(x0))
        for born, levels in forests.items():
            cell = np.flatnonzero(forest == born)
            values = _tree_values(levels, generation - born, eps)
            left[cell], right[cell] = values[index[cell]], values[index[cell] + 1]
        run = np.flatnonzero(forest < 0)
        if len(run):
            held = sum(len(level[0]) for levels in forests.values() for level in levels)
            # lo, hi, flo, fmid, fhi of each cell's left half, then its right half
            spans = np.array((x0, xm, x1, s0, sm, s1, sq1, sq3))[:, run][
                [[0, 1], [1, 2], [3, 4], [6, 7], [4, 5]]]
            roots = _simpson_root(*spans.transpose(0, 2, 1).reshape(5, -1), half_tol)
            roots = np.array(np.broadcast_arrays(*roots))
            nodes = _sampled(evaluate, roots) if generation else np.vstack((roots, below))
            levels = _simpson_levels(evaluate, nodes, _MAX_NODES - held)
            values = _tree_values(levels, 0)
            left[run], right[run] = values[0::2], values[1::2]
            forests[generation] = levels
            forest[run], index[run] = generation, np.arange(0, len(values), 2)
        split = _accept(x0, x1, s0, s1, depth, xm, left, right, quad_tol, pieces)
        # a half's quarter points are the points of its parent's root over
        # it, and its trees are that root's children, where that split
        kids, at = np.full((2, len(x0)), -1), np.zeros((2, len(x0)), int)
        quarters = np.empty((4, len(x0)))
        for born, levels in forests.items():
            cell = np.flatnonzero(split & (forest == born))
            _, _, ran, flm, frm = levels[generation - born]
            rank = np.cumsum(ran) - 1
            for side in (0, 1):
                root = index[cell] + side
                quarters[2 * side, cell], quarters[2 * side + 1, cell] = flm[root], frm[root]
                has = ran[root]
                kids[side, cell[has]] = born
                at[side, cell[has]] = 2 * rank[root[has]]
        rows = np.array((x0, xm, x1, s0, sm, s1, depth + 1, sq1, sq3, *quarters, *kids, *at))
        cells = rows[:, split][_CELL_CHILDREN].transpose(1, 2, 0).reshape(10, -1)
        forests = {born: levels for born, levels in forests.items() if (cells[8] == born).any()}
        generation += 1


def build_map(problem: CanonicalSLP, quad_tol: float = 1e-10) -> TransformMap:
    """Tabulate t(x) = integral_a^x sqrt(r/p) on a refined grid.

    Starts from a uniform grid and bisects any cell whose cubic Hermite
    interpolant misses the quadrature value at the cell midpoint by more
    than quad_tol, so endpoint derivative blow-ups (the power-law maps)
    stay resolved.  The node slopes and the quadrature share their
    sqrt(r/p) values.

    The map is the one a depth-first walk builds: each base cell, and each
    half of a cell that fails its Hermite test, integrated by adaptive
    Simpson over its two halves.  It is built in three stages, each with
    the walk's arithmetic, so each gives the walk's bits:

    - Depth 0, in batches.  sqrt(r/p) is evaluated by `evaluate_many`: the
      base grid as one batch, then the base cells in chunks of 1, 4, 16,
      64 and then 256 cells, one batch per chunk holding each cell's seven
      depth-0 points (its midpoint, two quarter points and four eighth
      points, made by the walk's own `0.5*(a+b)`).  A cell whose two
      depth-0 Simpson tests and Hermite test pass on those values,
      computed in numpy, is accepted there; most cells are.
    - The walk.  A chunk's other cells are walked one by one, each with a
      table of its points seeded by the batch's values.  The build's walk
      makes at most _WALK_LOOKUPS lookups of sqrt(r/p) in all, counted
      across chunks; the first chunks refine where sqrt(r/p) is largest,
      so a non-integrable point is reached there (see below).
    - Below depth 0, in batches.  Where the budget runs out, the walk drops
      the pieces of the base cell it is in and hands that cell over whole,
      with the chunk's cells after it and every later chunk's refined cells,
      none of them begun, and keeps its table of the cell it dropped.  After
      the last chunk, `_refine_batched` runs them in one call, a generation
      of cells at a time, the arithmetic elementwise, each split node's
      value summed as l + r as the walk sums it.  Nothing is looked up: a
      cell carries sqrt(r/p) at its midpoint and quarter points, from the
      depth-0 batch or its parent's trees, and a child cell's trees are
      subtrees of its parent's under a looser test, read from the parent's
      levels.  Each deeper tree level is one evaluate_many batch of points
      never evaluated (but by the walk in the cell it dropped: those its
      table gives).  Any failure there (an evaluation error, a depth cap,
      more than _MAX_NODES nodes) drops what that run accepted, and the
      cells handed over are walked, in order, without a budget, so the error
      is the walk's: message, subinterval and all.

    A chunk whose depth-0 batch fails is walked cell by cell from an empty
    table, point by point, after the cells waiting before it are run: that
    walk reaches the points in the order of a build without batches, so
    the error names the same point.  Where no batch fails every point is
    evaluated once (x = 0 aside: 0.0 and -0.0 are one key, so neither is
    stored).  A value carried or found in a table is that of the same
    float and a failure is never stored, so neither batches nor tables
    change a map's bits.

    Work goes first where sqrt(r/p) is largest, since a non-integrable
    point sits there: base cells in decreasing order of their endpoint
    sum, in each cell the Simpson half at the larger endpoint slope first
    (and inside the quadrature the half with the larger outer samples).
    Each cell's integrals are a function of the cell alone and are summed
    in x order afterwards, so a map is bit-identical to one built left to
    right.  Where sqrt(r/p) fails at several points, the error names the
    first one this order reaches.
    """
    # NaN: no cell would ever be accepted; inf: every cell would be
    if not 0.0 < quad_tol < math.inf:
        raise TransformError(f"quad_tol must be positive and finite, got {quad_tol}")
    bad = validate(problem)
    if bad:
        raise TransformError("problem failed validation: " + "; ".join(map(str, bad)))
    sigma_expr = _sigma_ast(problem)

    def sigma(x: float) -> float:
        try:
            return sigma_expr.evaluate(x)
        except ExprError as err:
            raise QuadratureError(f"sqrt(r/p) not evaluable mid-integration: {err}", x, x) from None

    def batch(xs) -> np.ndarray | None:
        try:
            return np.array(sigma_expr.evaluate_many(xs))
        except ExprError:
            return None  # the walk point by point raises it where it always did

    memo = {}  # sqrt(r/p) at the points of the current base cell
    lookups_left = _WALK_LOOKUPS  # the budgeted walk's, for the whole build

    def remembered(x: float) -> float:
        s = memo.get(x)
        if s is None:
            s = sigma(x)
            if x:  # 0.0 and -0.0 are one key, but sqrt(r/p) may tell them apart
                memo[x] = s
        return s

    def budgeted(x: float) -> float:
        nonlocal lookups_left
        lookups_left -= 1
        if lookups_left < 0:
            raise _Handover
        return remembered(x)

    half_tol = 0.5 * (quad_tol / (_BASE_NODES - 1))
    nodes = np.linspace(problem.a, problem.b, _BASE_NODES)
    grid = nodes.tolist()

    def base(i):
        return grid[i], grid[i + 1], svals[i], svals[i + 1], 0

    def walk(cells, lookup):
        """Refine base cells [(i, seeds)] depth first through `lookup`
        (remembered, or budgeted), each with a table seeded with its
        (point, value) pairs.  Returns the cells not done: none, or, where
        the budget ran out, the cell it ran out in, its pieces dropped and
        its table put into `dropped`, and every cell after it."""
        for n, (i, seeds) in enumerate(cells):
            memo.clear()
            # seeded as remembered fills it: x = 0 is never stored
            memo.update((x, s) for x, s in seeds if x)
            first = len(xs)
            # depth-first, left half first
            stack = [base(i)]
            try:
                while stack:
                    x0, x1, s0, s1, depth = stack.pop()
                    xm = 0.5 * (x0 + x1)
                    sm = lookup(xm)
                    if s1 > s0:
                        right = _adaptive_simpson(lookup, xm, x1, sm, s1, half_tol)
                        left = _adaptive_simpson(lookup, x0, xm, s0, sm, half_tol)
                    else:
                        left = _adaptive_simpson(lookup, x0, xm, s0, sm, half_tol)
                        right = _adaptive_simpson(lookup, xm, x1, sm, s1, half_tol)
                    predicted = _hermite_value(xm, x0, x1, 0.0, left + right, s0, s1)
                    if abs(predicted - left) <= quad_tol:
                        xs.append(x1)
                        integrals.append(left + right)
                        ds.append(s1)
                    elif depth >= _MAX_CELL_DEPTH:
                        raise QuadratureError("map refinement did not converge", x0, x1)
                    else:
                        stack.append((xm, x1, sm, s1, depth + 1))
                        stack.append((x0, xm, s0, sm, depth + 1))
            except _Handover:
                del xs[first:], integrals[first:], ds[first:]
                dropped.update(memo)
                return cells[n:]
        return []

    # the cells handed over, in the walk's order, and sqrt(r/p) at the
    # points the walk evaluated in the one it dropped
    handed, dropped = [], {}

    def flush():
        """Run the cells handed over as one batched refinement, or where that
        fails, drop every piece it accepted and walk them, in order, without
        a budget."""
        if not handed:
            return
        done = len(xs)
        # the walk's values in the cell it dropped, in x order (or inf, no point)
        keys, walked = np.array(sorted(dropped.items()) or [(math.inf, 0.0)]).T

        def fresh(points):
            values, ask = np.empty(len(points)), np.ones(len(points), bool)
            near = np.flatnonzero((keys[0] <= points) & (points <= keys[-1]))
            at = np.searchsorted(keys, points[near])
            hit = keys[at] == points[near]
            values[near[hit]], ask[near[hit]] = walked[at[hit]], False
            values[ask] = sigma_expr.evaluate_many(points[ask])
            return values

        try:
            _refine_batched(fresh, [base(i) + tuple(s for _, s in seeds) for i, seeds in handed],
                            half_tol, quad_tol, (xs, integrals, ds))
        except (ExprError, _Fallback):
            # the walk alone meets the failure where a build without batches does
            del xs[done:], integrals[done:], ds[done:]
            walk(handed, remembered)
        handed.clear()
        dropped.clear()

    # the whole grid first: a failing node is reported before any point between nodes
    ends = batch(nodes)
    if ends is None:
        ends = np.array([sigma(x) for x in grid])
    svals = ends.tolist()
    # accepted pieces in visit order: right end, integral, slope
    xs, integrals, ds = [grid[0]], [0.0], [svals[0]]
    # largest endpoint sum first; the stable sort keeps equal sums in x order
    order = np.argsort(-(ends[:-1] + ends[1:]), kind="stable")
    start, size = 0, 1
    while start < len(order):
        chunk = order[start:start + size]
        start, size = start + size, min(4 * size, _MAX_CHUNK)
        lo, hi, slo, shi = nodes[chunk], nodes[chunk + 1], ends[chunk], ends[chunk + 1]
        points = np.stack(_depth0_points(lo, hi))
        values = batch(points.ravel())
        if values is None:
            # the walk reaches the cells handed over before this chunk first
            flush()
            walk([(i, ()) for i in chunk.tolist()], remembered)
            continue
        values = values.reshape(points.shape)
        total, ok = _depth0_step(points, values, lo, hi, slo, shi, half_tol, quad_tol)
        xs += hi[ok].tolist()
        integrals += total[ok].tolist()
        ds += shi[ok].tolist()
        rest = np.flatnonzero(~ok)
        refined = [(i, list(zip(p, v))) for i, p, v in zip(
            chunk[rest].tolist(), points[:, rest].T.tolist(), values[:, rest].T.tolist())]
        if lookups_left > 0:  # once the budget is spent, later chunks are not walked
            refined = walk(refined, budgeted)
        handed += refined
    flush()
    # back to x order: pieces do not overlap, so their right ends are distinct
    order = np.argsort(xs, kind="stable")
    # a running sum in x order: the additions of a left-to-right pass, in its order
    ts = np.cumsum(np.take(integrals, order))
    return TransformMap.tabulated(np.take(xs, order), ts, np.take(ds, order))


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

    def evaluate_many(self, ts) -> list:
        """[self.evaluate(t) for t in ts], value for value and error for error:
        x_of_t at each t, then the invariant at those x as one batch.  Where
        x_of_t fails at some t, the invariant's first failure at the x
        before it raises, and otherwise x_of_t's error there."""
        xs = []
        try:
            for t in ts:
                xs.append(self.map.x_of_t(t))
        except (TransformError, NumericalError) as err:
            off_map = err
        else:
            return self._invariant.evaluate_many(xs)
        _, failure = _evaluate_upto(self._invariant, xs)
        raise off_map if failure is None else failure


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
