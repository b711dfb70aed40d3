"""Checks binding the transformation algebra to the eigensolver.

Two kinds of evidence: the round-trip residual (does the constructed
canonical problem reproduce the reciprocal-quadratic potential through its
own map?) and spectral gaps (do both forms produce the same leading
eigenvalues?).  Exact constructions must pass both at fixed tolerances;
asymptotic constructions are measured and reported, never pass/failed on
their gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigensolver import solve_spectrum
from .errors import NumericalError
from .expr import ExprError
from .inverse import InverseResult
from .liouville import TabulatedInvariant, TransformError, invariant_at_x
from .problems import PaineSpec, paine_schrodinger

ROUNDTRIP_TOL = 1e-8
GAP_BUDGET_FACTOR = 5.0


@dataclass(frozen=True)
class VerificationReport:
    case_label: str
    exact: bool
    roundtrip_residual: float
    spectral_gaps: tuple
    gap_budgets: tuple
    eigenvalues_canonical: tuple
    eigenvalues_schrodinger: tuple
    trust_warnings: tuple
    passed: bool
    parameters: dict


def _residual_profile(result: InverseResult, spec: PaineSpec, samples: int) -> list:
    """(t, |I(x(t)) - k/(t+m)^2|) at `samples` equispaced interior t-points.

    I(x(t)) and the reference are each one batch; where either fails, the
    points are walked one by one, so the first failure raises as it would
    point by point."""
    alpha, beta = result.map.domain_t
    reference = paine_schrodinger(spec).invariant
    ts = [alpha + (beta - alpha) * j / (samples + 1) for j in range(1, samples + 1)]
    try:
        values = TabulatedInvariant(result.canonical, result.map).evaluate_many(ts)
        references = reference.evaluate_many(ts)
    except (ExprError, TransformError, NumericalError):
        values, references = [], []
        for t in ts:
            values.append(invariant_at_x(result.canonical, result.map.x_of_t(t)))
            references.append(reference.evaluate(t))
    return [(t, abs(value - ref)) for t, value, ref in zip(ts, values, references)]


def roundtrip_invariant(result: InverseResult, spec: PaineSpec,
                        samples: int = 101) -> float:
    """Sup over interior t-points of |I(x(t)) - k/(t+m)^2|."""
    if samples < 11:
        raise ValueError(f"samples must be at least 11, got {samples}")
    sup = 0.0
    for _, gap in _residual_profile(result, spec, samples):
        sup = max(sup, gap)
    return sup


def spectral_match(result: InverseResult, spec: PaineSpec, count: int = 5,
                   n: int = 2000) -> VerificationReport:
    """Solve both forms with Richardson extrapolation and compare.

    Exact cases pass when the round-trip residual is within 1e-8 and every
    gap |lambda_canonical - lambda_schrodinger| fits inside five times the
    combined Richardson error estimates; asymptotic cases always produce a
    report and are never failed on their gaps.
    """
    if not 1 <= count <= 10:
        raise ValueError(f"count must be in [1, 10], got {count}")
    if n < 200:
        raise ValueError(f"n must be at least 200, got {n}")
    schrod = paine_schrodinger(spec)
    spec_s = solve_spectrum(schrod, n, count, richardson=True)
    spec_c = solve_spectrum(result.canonical, n, count, richardson=True)
    gaps = tuple(abs(c - s) for c, s in
                 zip(spec_c.eigenvalues, spec_s.eigenvalues))
    budgets = tuple(GAP_BUDGET_FACTOR * (ec + es) for ec, es in
                    zip(spec_c.error_estimates, spec_s.error_estimates))
    residual = roundtrip_invariant(result, spec)
    if result.exact:
        passed = residual <= ROUNDTRIP_TOL and all(
            g <= b for g, b in zip(gaps, budgets))
    else:
        passed = True  # report-only: the construction claims no exact match
    parameters = {"case": result.case_label, "k": spec.k, "m": spec.m,
                  "n": n, "count": count}
    parameters.update(result.extras)
    return VerificationReport(
        case_label=result.case_label,
        exact=result.exact,
        roundtrip_residual=residual,
        spectral_gaps=gaps,
        gap_budgets=budgets,
        eigenvalues_canonical=tuple(spec_c.eigenvalues),
        eigenvalues_schrodinger=tuple(spec_s.eigenvalues),
        trust_warnings=tuple(result.validity.warnings),
        passed=passed,
        parameters=parameters,
    )


def asymptotic_profile(result: InverseResult, spec: PaineSpec,
                       samples: int = 101) -> list:
    """Pointwise residual profile (t, |I(x(t)) - k/(t+m)^2|) for plotting.

    Only meaningful for asymptotic constructions; degradation away from the
    expansion point is expected, not asserted.
    """
    if result.exact:
        raise ValueError("asymptotic_profile expects an asymptotic construction")
    return _residual_profile(result, spec, samples)
