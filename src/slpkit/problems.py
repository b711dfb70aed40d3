"""Problem records for both forms of the Sturm-Liouville problem.

A canonical problem is -(p u')' + q u = lambda r u on (a, b); the reduced
(Schrodinger) problem is -v'' + I(t) v = lambda v on (alpha, beta).  Both
carry Dirichlet conditions at both endpoints, the only conditions the
transformation, the inverse constructions and the eigensolver handle, so
the records store no boundary coefficients.

Validation is deliberately sampling-based: coefficient expressions are
opaque, so positivity of p and r (and evaluability of I) is checked on a
dense grid rather than proved.  Each coefficient evaluates its samples as
one `evaluate_many` batch, which stops at the first that fails, so a
violation names the first failing sample.  `validate` is a pre-check of
the input record; each numerical stage owns positivity at the points it
evaluates.
Assembly (eigensolver) refuses a nonpositive p at its midpoints and a
nonpositive r at its nodes, and the forward map (liouville) refuses a point
where sqrt(r/p) is not real or p is zero.  A p that dips below zero between
the samples is refused there; no stage samples a second time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Const, Add, Div, Pow, Var, ExpressionAST


@dataclass(frozen=True)
class CanonicalSLP:
    p: ExpressionAST
    q: ExpressionAST
    r: ExpressionAST
    a: float
    b: float


@dataclass(frozen=True)
class SchrodingerSLP:
    """Reduced-form problem; `invariant` is anything with evaluate(t) ->
    float and evaluate_many(ts) -> (values, error), as ExpressionAST has.

    Usually an ExpressionAST; the forward transformation supplies a
    map-backed evaluator instead (see liouville.TabulatedInvariant).
    """

    invariant: object
    alpha: float
    beta: float


@dataclass(frozen=True)
class PaineSpec:
    """Parameters (k, m) of the reciprocal-quadratic potential k/(t+m)^2
    on (0, pi) with Dirichlet conditions; classically k=1, m=0.1."""

    k: float
    m: float

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError(f"k must be positive, got {self.k}")
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError(f"m must be positive, got {self.m}")


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple
    grid_size: int
    extrapolated: bool
    error_estimates: tuple

    def __post_init__(self):
        evs = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", evs)
        object.__setattr__(self, "error_estimates", tuple(float(v) for v in self.error_estimates))
        if len(self.error_estimates) != len(evs):
            raise ValueError("error_estimates must match eigenvalues in length")
        for lo, hi in zip(evs, evs[1:]):
            if not lo < hi:
                raise ValueError(f"spectrum not strictly increasing: {lo} !< {hi}")


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


# equispaced points, endpoints included, at which validate evaluates p, r or I
_VALIDATE_SAMPLES = 201


def _check_interval(lo: float, hi: float, out: list) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        out.append(Violation("interval", f"endpoints must be finite, got [{lo}, {hi}]"))
    elif not lo < hi:
        out.append(Violation("interval", f"left endpoint must be below right, got [{lo}, {hi}]"))
    elif not math.isfinite(hi - lo):
        # grids and meshes over the interval are built from its width
        out.append(Violation("interval", f"width must be finite, got [{lo}, {hi}]"))


def _first_nonpositive(values: np.ndarray) -> int | None:
    """The index of the first value <= 0, after one C-speed min test."""
    if values.min(initial=math.inf) > 0.0:
        return None
    return int(np.argmax(values <= 0.0))


def _samples(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * i / (_VALIDATE_SAMPLES - 1) for i in range(_VALIDATE_SAMPLES)]


def _sample_positive(name: str, fn: ExpressionAST, lo: float, hi: float,
                     out: list) -> None:
    xs = _samples(lo, hi)
    values, err = fn.evaluate_many(xs)
    # a sign that fails before the failing point comes first
    i = _first_nonpositive(values)
    if i is not None:
        out.append(Violation("positivity", f"{name} = {values[i].item()!r} <= 0 at x={xs[i]!r}"))
    elif err is not None:
        out.append(Violation("evaluation", f"{name} failed at x={xs[len(values)]!r}: {err}"))


def _sample_invariant(fn, lo: float, hi: float, out: list) -> None:
    ts = _samples(lo, hi)
    values, err = fn.evaluate_many(ts)
    if err is not None:
        out.append(Violation("evaluation", f"invariant failed at t={ts[len(values)]!r}: {err}"))


def validate(problem) -> list:
    """Check a problem record; returns a list of violations (empty = accepted)."""
    out: list = []
    if isinstance(problem, CanonicalSLP):
        _check_interval(problem.a, problem.b, out)
        if not out:
            _sample_positive("p", problem.p, problem.a, problem.b, out)
            _sample_positive("r", problem.r, problem.a, problem.b, out)
    elif isinstance(problem, SchrodingerSLP):
        _check_interval(problem.alpha, problem.beta, out)
        if not out:
            _sample_invariant(problem.invariant, problem.alpha, problem.beta, out)
    else:
        raise TypeError(f"expected CanonicalSLP or SchrodingerSLP, got {type(problem)!r}")
    return out


def paine_schrodinger(spec: PaineSpec) -> SchrodingerSLP:
    """The reciprocal-quadratic problem I(t) = k/(t+m)^2 on (0, pi), Dirichlet."""
    root = Div(Const(spec.k), Pow(Add(Var(), Const(spec.m)), Const(2.0)))
    return SchrodingerSLP(
        invariant=ExpressionAST(root, "t"),
        alpha=0.0,
        beta=math.pi,
    )
