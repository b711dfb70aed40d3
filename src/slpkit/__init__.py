"""Sturm-Liouville problems: canonical/Schrodinger conversion, closed-form
and asymptotic inverse constructions for the reciprocal-quadratic potential
family, and spectral verification of every construction."""

from . import special  # registers besselj/bessely with the expression layer
from .errors import NumericalError
from .expr import ExpressionAST, EvalDomainError, ParseError, parse
from .problems import (CanonicalSLP, PaineSpec, SchrodingerSLP, Spectrum,
                       Violation, paine_schrodinger, validate)
from .liouville import (QuadratureError, TabulatedInvariant, TransformError,
                        TransformMap, build_map, forward_transform,
                        invariant_at_x)
from .inverse import (CASE_LABELS, ConstructionError, IndicialRoots,
                      InverseResult, ValidityInfo, build_case, case2_build,
                      indicial_roots)
from .special import (SpecialFunctionError, bessel_j, bessel_j_zeros,
                      bessel_y, bessel_y_zeros, gamma_fn)
from .eigensolver import (SolverError, SymTridiag, discretize_canonical,
                          discretize_schrodinger, eig_bisect, solve_spectrum)
from .verify import (VerificationReport, asymptotic_profile,
                     roundtrip_invariant, spectral_match)

__all__ = [
    "CanonicalSLP", "CASE_LABELS",
    "ConstructionError", "EvalDomainError", "ExpressionAST",
    "IndicialRoots", "InverseResult", "NumericalError", "PaineSpec",
    "ParseError", "QuadratureError", "SchrodingerSLP", "SolverError",
    "SpecialFunctionError", "Spectrum", "SymTridiag", "TabulatedInvariant",
    "TransformError", "TransformMap", "ValidityInfo", "VerificationReport",
    "Violation", "asymptotic_profile", "bessel_j", "bessel_j_zeros",
    "bessel_y", "bessel_y_zeros", "build_case",
    "build_map", "case2_build", "discretize_canonical", "discretize_schrodinger",
    "eig_bisect", "forward_transform", "gamma_fn", "indicial_roots",
    "invariant_at_x", "paine_schrodinger", "parse",
    "roundtrip_invariant", "solve_spectrum",
    "spectral_match", "validate",
]

__version__ = "0.1.0"
