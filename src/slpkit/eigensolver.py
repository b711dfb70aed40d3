"""Finite-difference discretization and Sturm-sequence bisection.

Both problem forms reduce to a symmetric tridiagonal matrix on a uniform
interior grid; the Dirichlet conditions of the problem records drop the
boundary nodes.  Eigenvalues come from bisection on the Sturm sign count --
the number of negative pivots of the shifted LDL^T recurrence equals the
number of eigenvalues below the shift -- from the Gershgorin bounds.  The
count runs on Python floats (the matrix is converted once per bisection),
one comparison per row for a positive pivot, and never decreases as the
shift grows, so a count k at a shift bounds every eigenvalue: the shift is
above the k smallest and not above the rest.  Each bisection holds a lower
and an upper bound per eigenvalue, and one helper, `_above`, takes every
count: it counts a shift only where the eigenvalue's bounds do not decide
it, and takes the count into the bounds of all of them.  The bisection
walks one eigenvalue's path after another; a path that stops early then
continues to the deepest path's depth, as if all brackets were halved
together.  Assembly evaluates each coefficient as one `evaluate_many`
batch, so its error names the first failing point.  Richardson
extrapolation across n and 2n cancels the leading O(h^2) error of the
second-order schemes.  Each grid's
bisection first takes a guess of each eigenvalue and moves it by Newton
steps on det(T - sigma I) to within about one rounding error of the
largest entry.  The coarse grid's guesses are the eigenvalues of a grid of
n // 8 points, or of 50 where that is more and at most n / 2; the fine
grid's are the coarse eigenvalues moved by the O(h^2) error those two
grids show (the coarse eigenvalues themselves where there is no guess
grid).  Where the steps settle, each side of the result is certified by
counts at nodes of the bisection's own grid: first the ends of the bracket
a bisection closes on around it, then those of brackets farther out.  A
center on its eigenvalue's bisection path takes two counts, and that
bisection none.  A guess that does not settle costs no count.  The
midpoints, and so the eigenvalues, are bit for bit those of a plain
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalError
from .problems import CanonicalSLP, SchrodingerSLP, Spectrum, _first_nonpositive


_EPS = float(np.finfo(float).eps)
# a bisection path that is still wider than tol after this many halvings fails
_MAX_HALVINGS = 200
# Newton refinement of the window guesses (see _windows)
_NEWTON_STEPS = 6
_SETTLE = 1e4
# each failed rung of a window's ladder multiplies its radius by this
_LADDER = 4.0
# the grid that supplies the coarse grid's guesses has n // _GUESS_DIV points;
# its eigenvalues are off by its O(h^2) error anyway, so a loose tol will do
_GUESS_DIV = 8
_GUESS_TOL = 1e-4


class SolverError(NumericalError):
    pass


class DiscretizationError(ValueError):
    pass


@dataclass(frozen=True)
class SymTridiag:
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
            raise ValueError("offdiag must have length len(diag) - 1")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        full = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        full[idx, idx + 1] = self.offdiag
        full[idx + 1, idx] = self.offdiag
        return full


def _sturm_count(rows, sigma, pivmin) -> int:
    """Sign count of the pivots of the LDL^T recurrence shifted by sigma:
    the number of eigenvalues below sigma.

    `rows` is the list of (d_i, e_{i-1}^2) pairs, with e_{-1}^2 = 0, as
    Python floats: the recurrence runs on plain floats, which is the same
    IEEE arithmetic as numpy scalars without boxing a scalar per step.
    A pivot below pivmin is counted, and one inside (-pivmin, pivmin) is
    replaced by -pivmin first; this is one comparison for a positive pivot
    and the same decision as clamping |q| < pivmin and then testing q < 0,
    for every q including +-0.0 and NaN.
    """
    npiv = -pivmin
    cnt = 0
    q = 1.0  # with e_{-1}^2 = 0 the first pivot is d_0 - sigma exactly
    for di, ei in rows:
        q = di - sigma - ei / q
        if q < pivmin:
            if q > npiv:
                q = npiv
            cnt += 1
    return cnt


def _pivmin(e2: np.ndarray) -> float:
    scale = float(e2.max()) if len(e2) else 1.0
    return float(np.finfo(float).tiny * max(1.0, scale))


def _sturm_rows(T: SymTridiag):
    """The kernel's input: (d_i, e_{i-1}^2) pairs as floats, and pivmin."""
    e2 = T.offdiag * T.offdiag
    return list(zip(T.diag.tolist(), [0.0] + e2.tolist())), _pivmin(e2)


def _newton_step(rows, pivmin, sigma):
    """One Newton step on det(T - sigma I): sigma - det/det', or NaN.

    det'/det is the sum of t_i = q_i'/q_i over the pivots of the count's
    recurrence (same arithmetic, same clamp); with r = e_{i-1}^2 / q_{i-1},
    q_i' = -1 + r t_{i-1}, so t_i = (r t_{i-1} - 1) / q_i.
    """
    npiv = -pivmin
    q = 1.0
    t = 0.0
    s = 0.0
    for di, ei in rows:
        r = ei / q
        q = di - sigma - r
        if npiv < q < pivmin:
            q = npiv
        t = (r * t - 1.0) / q
        s += t
    return sigma - 1.0 / s if 0.0 < abs(s) < math.inf else math.nan


def _settle(rows, pivmin, sigma, limit):
    """Newton steps from sigma until one moves it by at most `limit`.

    The settled value, or None when no step within _NEWTON_STEPS does, or
    one leaves the finite numbers.
    """
    for _ in range(_NEWTON_STEPS):
        nxt = _newton_step(rows, pivmin, sigma)
        if not math.isfinite(nxt):
            return None
        step = abs(nxt - sigma)
        sigma = nxt
        if step <= limit:
            return sigma
    return None


def _start(T: SymTridiag):
    """The bracket every bisection of T starts from: its Gershgorin bounds, padded."""
    d = T.diag
    radius = np.zeros(T.n)
    if T.n > 1:
        absed = np.abs(T.offdiag)
        radius[:-1] += absed
        radius[1:] += absed
    glo = float((d - radius).min())
    ghi = float((d + radius).max())
    pad = 1e-10 * max(1.0, abs(glo), abs(ghi))
    return glo - pad, ghi + pad


def _hold(lo, hi, shift, k):
    """Take a count k at `shift` into the held bounds of every eigenvalue.

    k eigenvalues lie below the shift, so it bounds the j-th smallest from
    above for each j < k and from below for each j >= k.
    """
    hi[:k] = [min(h, shift) for h in hi[:k]]
    lo[k:] = [max(l, shift) for l in lo[k:]]


def _above(rows, pivmin, lo, hi, j, shift) -> bool:
    """Whether `shift` is at or above the j-th smallest eigenvalue's held
    upper bound, and so above the eigenvalue.

    The one place a count is taken: only for a shift strictly inside the
    eigenvalue's held bounds, which they do not decide.  The count goes
    through _hold, so it bounds every eigenvalue, and leaves the shift at
    or below the lower bound or at or above the upper one.
    """
    if lo[j] < shift < hi[j]:
        _hold(lo, hi, shift, _sturm_count(rows, shift, pivmin))
    return shift >= hi[j]


def _descend(bracket, tol: float, above, steps: int = _MAX_HALVINGS):
    """Halve `bracket` at most `steps` times, until it is at most tol wide:
    the last bracket, and the number of halvings.

    Each midpoint is 0.5 * (left + right); the half below it is kept where
    `above(mid)` is true.  A bracket at most tol wide holds only brackets
    at most tol wide, so a path stops at the first such depth.
    """
    left, right = bracket
    for depth in range(steps):
        if right - left <= tol:
            return left, right, depth
        mid = 0.5 * (left + right)
        left, right = (left, mid) if above(mid) else (mid, right)
    return left, right, steps


def _closing(start, tol: float, x: float):
    """The bracket a bisection from `start` closes on when it takes x for
    the eigenvalue: _bisect's midpoints and stopping rule."""
    left, right, _ = _descend(start, tol, lambda mid: mid > x)
    return left, right


def _windows(rows, pivmin, guesses, tol, tight, start, lo, hi):
    """Held bounds close around each eigenvalue, in `lo` and `hi`.

    Newton steps move each guess of the j-th smallest eigenvalue onto it;
    the iteration settles once a step s is at most _SETTLE * tight, leaving
    an error of about s^2 / gap, below tight unless another eigenvalue lies
    within about _SETTLE^2 * tight.  A guess that does not settle costs no
    count.  Nothing here is trusted: each side of a settled center c climbs
    a ladder of shifts until one is held as a bound on that side.  The
    rungs are that side's ends of the brackets the bisection closes on
    (_closing) for c, then for c -+ _LADDER^k * w, k = 0, 1, 2, ..., where
    w is the width of c's bracket and _LADDER^k * w is at most tight.  Each
    rung is a node of the bisection's own grid, so a held window leaves no
    partial cell for _bisect to count in.  Every rung goes through _above,
    so a rung the held bounds already decide takes no count: a failed rung
    is a bound on the other side, and a rung counted for one eigenvalue
    can hold another's.
    """
    for j, guess in enumerate(guesses):
        center = _settle(rows, pivmin, guess, _SETTLE * tight)
        if center is None:
            continue
        left, right = _closing(start, tol, center)
        radii = [0.0]
        radius = right - left
        # a zero width (a tol below the float spacing) would never grow
        while 0.0 < radius <= tight:
            radii.append(radius)
            radius *= _LADDER
        for end, side in ((0, -1.0), (1, 1.0)):
            for radius in radii:
                shift = _closing(start, tol, center + side * radius)[end]
                # a lower rung holds below the eigenvalue, an upper one above
                if _above(rows, pivmin, lo, hi, j, shift) == (side > 0.0):
                    break


def _bisect(rows, pivmin, start, tol: float, lo, hi) -> list:
    """Each eigenvalue's bisection path from `start`, one after another;
    the held bounds decide without a count.

    Each midpoint goes through _above, so it is counted only where its
    eigenvalue's held bounds do not decide it, and that count bounds every
    other eigenvalue too.  Each path first runs to its own stopping depth,
    where its bracket is at most tol wide; the paths that stopped early
    then continue to the deepest path's depth.  These are the brackets of
    all paths halved together until every one is at most tol wide.
    """
    toward = [partial(_above, rows, pivmin, lo, hi, j) for j in range(len(lo))]
    paths = [_descend(start, tol, above) for above in toward]
    deepest = max(depth for _, _, depth in paths)
    if deepest == _MAX_HALVINGS:
        raise SolverError(
            f"bisection failed to bracket within {_MAX_HALVINGS} iterations "
            f"(start [{start[0]}, {start[1]}], tol {tol})")
    # no width is <= -inf: each path is halved exactly to the deepest depth
    ends = [_descend((left, right), -math.inf, above, deepest - depth)
            for above, (left, right, depth) in zip(toward, paths)]
    # brackets bisect independently, so two that overlap within tol can
    # end with their midpoints out of order; restore global order
    return sorted(0.5 * (left + right) for left, right, _ in ends)


def eig_bisect(T: SymTridiag, count: int, tol: float = 1e-10, *, _near=None) -> list:
    """The `count` smallest eigenvalues, each bracketed to width <= tol.

    `_near` (private, from `solve_spectrum`) holds a guess of each of the
    `count` eigenvalues.  Newton steps move each guess onto its eigenvalue,
    and the bounds certified around it skip counts whose outcome they
    already decide; the midpoints, and so the result, stay the same.
    """
    n = T.n
    if not 1 <= count <= n:
        raise DiscretizationError(f"count must be in [1, {n}], got {count}")
    if not 0.0 < tol < math.inf:
        raise DiscretizationError(f"tol must be positive and finite, got {tol}")
    rows, pivmin = _sturm_rows(T)
    start = _start(T)
    # held bounds: count(lo[j]) <= j < count(hi[j]), from every count taken
    lo = [-math.inf] * count
    hi = [math.inf] * count
    if _near is not None:
        # about one rounding error of the largest entry: the size of the
        # region where the computed count can disagree with the exact one
        scale = float(np.abs(T.diag).max()) + 2.0 * float(np.abs(T.offdiag).max(initial=0.0))
        tight = max(_EPS * scale, tol)
        _windows(rows, pivmin, _near, tol, tight, start, lo, hi)
    return _bisect(rows, pivmin, start, tol, lo, hi)


# ---------------------------------------------------------------------------
# discretizations


def _mesh(lo: float, hi: float, n: int) -> tuple[float, float]:
    """The width h of n interior points on (lo, hi), and 1/h^2.

    Refused unless h^2 and 2/h^2 are positive and finite: an h^2 that
    underflows to 0 has no 1/h^2, and one that overflows to inf gives
    1/h^2 = 0, which silently drops the second difference.
    """
    if n < 3:
        raise DiscretizationError(f"n must be at least 3, got {n}")
    h = (hi - lo) / (n + 1)
    h2 = h * h
    if not (0.0 < h2 < math.inf and 2.0 / h2 < math.inf):
        raise DiscretizationError(
            f"mesh width h = {h!r} (n = {n} on [{lo!r}, {hi!r}]) is out of range "
            f"for the difference scheme: h^2 = {h2!r}")
    return h, 1.0 / h2


def discretize_schrodinger(problem: SchrodingerSLP, n: int) -> SymTridiag:
    """Three-point scheme: diag 2/h^2 + I(t_i), offdiag -1/h^2."""
    h, inv_h2 = _mesh(problem.alpha, problem.beta, n)
    ts = problem.alpha + np.arange(1, n + 1) * h
    values, err = problem.invariant.evaluate_many(ts)
    if err is not None:
        raise SolverError(f"potential evaluation failed at t={float(ts[len(values)])!r}: {err}")
    values += 2.0 * inv_h2
    return SymTridiag(values, np.full(n - 1, -inv_h2))


def discretize_canonical(problem: CanonicalSLP, n: int) -> SymTridiag:
    """Conservative scheme with midpoint p, symmetrized by the weight:

    A_ii = (p_{i-1/2} + p_{i+1/2})/h^2 + q_i,  A_{i,i+1} = -p_{i+1/2}/h^2,
    then D^{-1/2} A D^{-1/2} with D_ii = r_i.

    Each coefficient is one `evaluate_many` batch.  The first failure is
    the one of a point-by-point walk: p at every midpoint, then q and r in
    turn at each node, each node's r refused where it is not positive.
    """
    a, b = problem.a, problem.b
    h, inv_h2 = _mesh(a, b, n)
    mids = a + (np.arange(n + 1) + 0.5) * h
    nodes = a + np.arange(1, n + 1) * h
    pm, err = problem.p.evaluate_many(mids)
    j = _first_nonpositive(pm)
    if j is not None:
        raise SolverError(f"nonpositive p = {float(pm[j])!r} at midpoint x={float(mids[j])!r}")
    if err is not None:
        raise SolverError(f"p evaluation failed at x={float(mids[len(pm)])!r}: {err}")
    qv, err = problem.q.evaluate_many(nodes)
    # r matters only before the node where q raised: q's error comes first there
    rv, r_err = problem.r.evaluate_many(nodes[:len(qv)])
    i = _first_nonpositive(rv)
    if i is not None:
        raise SolverError(f"nonpositive r = {float(rv[i])!r} at node x={float(nodes[i])!r}")
    if r_err is not None:
        err = r_err  # r raised before q did
    if err is not None:
        raise SolverError(f"q/r evaluation failed at x={float(nodes[len(rv)])!r}: {err}")
    diag = ((pm[:-1] + pm[1:]) * inv_h2 + qv) / rv
    off = -pm[1:-1] * inv_h2 / np.sqrt(rv[:-1] * rv[1:])
    return SymTridiag(diag, off)


def _assemble(problem, n: int) -> SymTridiag:
    """The matrix on n interior points."""
    if isinstance(problem, SchrodingerSLP):
        return discretize_schrodinger(problem, n)
    if isinstance(problem, CanonicalSLP):
        return discretize_canonical(problem, n)
    raise TypeError(f"expected CanonicalSLP or SchrodingerSLP, got {type(problem)!r}")


def _guesses(problem, m: int, count: int):
    """The `count` smallest eigenvalues of the m-point grid, at _GUESS_TOL,
    or None where that grid cannot be solved: its points are not those of
    the grid it guesses for, and a failure there must not change what that
    solve reports.
    """
    try:
        return eig_bisect(_assemble(problem, m), count, _GUESS_TOL)
    except (SolverError, DiscretizationError):
        return None


def solve_spectrum(problem, n: int, count: int, richardson: bool = True) -> Spectrum:
    """Leading eigenvalues, optionally Richardson-combined across two grids.

    The fine grid has 2n+1 interior points so the mesh width is exactly
    halved; with a literal 2n the h^2 terms would not cancel cleanly and
    the extrapolation would be limited to O(h^2/n).  The eigenvalues lam_m
    of a grid of m = n // 8 points (at least 50) are the coarse bisection's
    guesses, where that grid is at most half the coarse one and has at
    least 4 points per eigenvalue.  The fine bisection's are the coarse
    eigenvalues lam_n moved by three quarters of their O(h^2) error, which
    the two grids give as (lam_n - lam_m) / (((n+1)/(m+1))^2 - 1); on the
    Paine problem that prediction is within about 1e-6, so most Newton
    steps from it settle at once.  Without lam_m the guesses are lam_n.
    """
    # a grid the scheme refuses fails before any guess work
    coarse = _assemble(problem, n)
    m = max(n // _GUESS_DIV, 50)
    lam_m = _guesses(problem, m, count) if 2 * m <= n and m >= 4 * count else None
    lam_n = eig_bisect(coarse, count, _near=lam_m)
    if not richardson:
        values = lam_n
        errors = [0.0] * count
    else:
        near = lam_n
        if lam_m is not None:
            ratio = 0.75 / (((n + 1) / (m + 1)) ** 2 - 1.0)
            near = [l + (l - g) * ratio for l, g in zip(lam_n, lam_m)]
        lam_2n = eig_bisect(_assemble(problem, 2 * n + 1), count, _near=near)
        values = [(4.0 * l2 - l1) / 3.0 for l1, l2 in zip(lam_n, lam_2n)]
        errors = [abs(l2 - l1) / 3.0 for l1, l2 in zip(lam_n, lam_2n)]
        # near-degenerate clusters can come out of the two grids in a
        # different order; re-sort with the estimates attached
        pairs = sorted(zip(values, errors))
        values = [v for v, _ in pairs]
        errors = [e for _, e in pairs]
    try:
        return Spectrum(tuple(values), n, richardson, tuple(errors))
    except ValueError as err:
        raise SolverError(f"computed spectrum violates ordering: {err}") from None


def laplacian_eigenvalue(length: float, n: int, j: int) -> float:
    """Closed-form j-th eigenvalue of the discrete Dirichlet Laplacian."""
    h = length / (n + 1)
    return (2.0 - 2.0 * math.cos(j * math.pi / (n + 1))) / (h * h)
