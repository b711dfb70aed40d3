"""Finite-difference discretization and Sturm-sequence bisection.

Both problem forms reduce to a symmetric tridiagonal matrix on a uniform
interior grid; the Dirichlet conditions of the problem records drop the
boundary nodes.  Eigenvalues come from bisection on the Sturm sign count --
the number of negative pivots of the shifted LDL^T recurrence equals the
number of eigenvalues below the shift -- bracketed from Gershgorin bounds.
The count runs on Python floats (the matrix is converted once per bisection),
and each bisection pass counts every distinct midpoint once: brackets that
have not separated yet share a midpoint and so share its count.
Richardson extrapolation across n and 2n cancels the leading O(h^2) error
of the second-order schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .expr import ExprError
from .problems import CanonicalSLP, SchrodingerSLP, Spectrum


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


def _sturm_counts(rows, shifts, pivmin):
    """Sign counts of the shifted LDL^T pivots, one per shift.

    `rows` is the list of (d_i, e_{i-1}^2) pairs, with e_{-1}^2 = 0, as
    Python floats: the recurrence runs on plain floats, which is the same
    IEEE arithmetic as numpy scalars without boxing a scalar per step.
    """
    out = []
    for sigma in shifts:
        cnt = 0
        q = 1.0  # with e_{-1}^2 = 0 the first pivot is d_0 - sigma exactly
        for di, ei in rows:
            q = di - sigma - ei / q
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0.0:
                cnt += 1
        out.append(cnt)
    return out


def _pivmin(e2: np.ndarray) -> float:
    scale = float(e2.max()) if len(e2) else 1.0
    return float(np.finfo(float).tiny * max(1.0, scale))


def _sturm_rows(T: SymTridiag):
    """The kernel's input: (d_i, e_{i-1}^2) pairs as floats, and pivmin."""
    e2 = T.offdiag * T.offdiag
    return list(zip(T.diag.tolist(), [0.0] + e2.tolist())), _pivmin(e2)


def sturm_count(T: SymTridiag, sigma: float) -> int:
    """Number of eigenvalues of T strictly below the shift."""
    rows, pivmin = _sturm_rows(T)
    return _sturm_counts(rows, [float(sigma)], pivmin)[0]


def eig_bisect(T: SymTridiag, count: int, tol: float = 1e-10) -> list:
    """The `count` smallest eigenvalues, each bracketed to width <= tol."""
    n = T.n
    if not 1 <= count <= n:
        raise DiscretizationError(f"count must be in [1, {n}], got {count}")
    if tol <= 0.0:
        raise DiscretizationError(f"tol must be positive, got {tol}")
    d = T.diag
    rows, pivmin = _sturm_rows(T)
    radius = np.zeros(n)
    if n > 1:
        absed = np.abs(T.offdiag)
        radius[:-1] += absed
        radius[1:] += absed
    glo = float((d - radius).min())
    ghi = float((d + radius).max())
    pad = 1e-10 * max(1.0, abs(glo), abs(ghi))
    lo = np.full(count, glo - pad)
    hi = np.full(count, ghi + pad)
    want = np.arange(count)
    for _ in range(200):
        if (hi - lo <= tol).all():
            break
        mid = 0.5 * (lo + hi)
        # brackets share midpoints until they separate; count each once
        shifts, where = np.unique(mid, return_inverse=True)
        counts = np.array(_sturm_counts(rows, shifts.tolist(), pivmin))
        above = counts[where] > want
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    else:
        raise SolverError(
            f"bisection failed to bracket within 200 iterations "
            f"(bounds [{glo}, {ghi}], tol {tol})")
    # brackets bisect independently; inside a near-degenerate cluster the
    # floating-point sign count can waver by one, so restore global order
    return sorted(float(v) for v in 0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# discretizations


def discretize_schrodinger(problem: SchrodingerSLP, n: int) -> SymTridiag:
    """Three-point scheme: diag 2/h^2 + I(t_i), offdiag -1/h^2."""
    if n < 3:
        raise DiscretizationError(f"n must be at least 3, got {n}")
    h = (problem.beta - problem.alpha) / (n + 1)
    diag = np.empty(n)
    inv_h2 = 1.0 / (h * h)
    for i in range(n):
        t = problem.alpha + (i + 1) * h
        try:
            diag[i] = 2.0 * inv_h2 + problem.invariant.evaluate(t)
        except ExprError as err:
            raise SolverError(f"potential evaluation failed at t={t!r}: {err}") from None
    return SymTridiag(diag, np.full(n - 1, -inv_h2))


def discretize_canonical(problem: CanonicalSLP, n: int) -> SymTridiag:
    """Conservative scheme with midpoint p, symmetrized by the weight:

    A_ii = (p_{i-1/2} + p_{i+1/2})/h^2 + q_i,  A_{i,i+1} = -p_{i+1/2}/h^2,
    then D^{-1/2} A D^{-1/2} with D_ii = r_i.
    """
    if n < 3:
        raise DiscretizationError(f"n must be at least 3, got {n}")
    a, b = problem.a, problem.b
    h = (b - a) / (n + 1)
    pm = np.empty(n + 1)
    for j in range(n + 1):
        x = a + (j + 0.5) * h
        try:
            pm[j] = problem.p.evaluate(x)
        except ExprError as err:
            raise SolverError(f"p evaluation failed at x={x!r}: {err}") from None
        if pm[j] <= 0.0:
            raise SolverError(f"nonpositive p = {float(pm[j])!r} at midpoint x={x!r}")
    qv = np.empty(n)
    rv = np.empty(n)
    for i in range(n):
        x = a + (i + 1) * h
        try:
            qv[i] = problem.q.evaluate(x)
            rv[i] = problem.r.evaluate(x)
        except ExprError as err:
            raise SolverError(f"q/r evaluation failed at x={x!r}: {err}") from None
        if rv[i] <= 0.0:
            raise SolverError(f"nonpositive r = {float(rv[i])!r} at node x={x!r}")
    inv_h2 = 1.0 / (h * h)
    diag = ((pm[:-1] + pm[1:]) * inv_h2 + qv) / rv
    off = -pm[1:-1] * inv_h2 / np.sqrt(rv[:-1] * rv[1:])
    return SymTridiag(diag, off)


def _assemble(problem, n: int) -> SymTridiag:
    if isinstance(problem, SchrodingerSLP):
        return discretize_schrodinger(problem, n)
    if isinstance(problem, CanonicalSLP):
        return discretize_canonical(problem, n)
    raise TypeError(f"expected CanonicalSLP or SchrodingerSLP, got {type(problem)!r}")


def solve_spectrum(problem, n: int, count: int, richardson: bool = True,
                   tol: float = 1e-10) -> Spectrum:
    """Leading eigenvalues, optionally Richardson-combined across two grids.

    The fine grid has 2n+1 interior points so the mesh width is exactly
    halved; with a literal 2n the h^2 terms would not cancel cleanly and
    the extrapolation would be limited to O(h^2/n).
    """
    lam_n = eig_bisect(_assemble(problem, n), count, tol)
    if not richardson:
        values = lam_n
        errors = [0.0] * count
    else:
        lam_2n = eig_bisect(_assemble(problem, 2 * n + 1), count, tol)
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
