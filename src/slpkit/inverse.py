"""Inverse constructions for the reciprocal-quadratic potential family.

Given the reduced-form problem -v'' + k/(t+m)^2 v = lambda v on (0, pi)
with Dirichlet conditions, `build_case(label, spec, ...)` produces a
canonical problem -(p u')' + q u = lambda r u together with the closed-form
x <-> t map realizing it.  The label names the potential/weight family:

* case1      -- q = 0, r constant: power-law p (both indicial branches;
                for k = 3/4 a power and an exponential form exist).
* case2-A/B  -- q constant, quadratic weight, equal or real-distinct
                indicial roots: exact exponential/power forms.
* case2-C1/2 -- complex indicial roots: oscillatory p, map linearized
                about tau = t + m = 1, exact only asymptotically.
* case3-J/Y  -- q and r both constant: Bessel-function p, map linearized
                from the small- or large-argument expansions.
* case4      -- reciprocal-linear transformation weight: polynomial p, q, r
                (and its generalized-power variant, non-polynomial).

Exact constructions satisfy the round-trip residual gate; asymptotic ones
carry a trust region and warnings instead of a pass/fail claim.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .expr import Add, Call, Const, Mul, Pow, Sub, Var, ExpressionAST
from .liouville import TransformMap
from .problems import CanonicalSLP, PaineSpec, validate
from .special import (SpecialFunctionError, bessel_j, bessel_j_zeros, bessel_y,
                      bessel_y_zeros, gamma_fn)

CASE_LABELS = ("case1", "case2-A1", "case2-A2", "case2-B", "case2-C1",
               "case2-C2", "case3-J", "case3-Y", "case4", "case4-general")


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class IndicialRoots:
    """Roots of rho^2 - rho - (k - q0) = 0, classified by discriminant."""

    discriminant: float
    kind: str  # "real-distinct" | "equal" | "complex"
    rho1: float
    rho2: float
    mu: float


def indicial_roots(k: float, q0: float = 0.0) -> IndicialRoots:
    disc = 1.0 + 4.0 * (k - q0)
    if abs(disc) <= 1e-12:
        return IndicialRoots(disc, "equal", 0.5, 0.5, 0.0)
    if disc > 0.0:
        root = math.sqrt(disc)
        return IndicialRoots(disc, "real-distinct", 0.5 * (1.0 + root), 0.5 * (1.0 - root), 0.0)
    return IndicialRoots(disc, "complex", 0.5, 0.5, 0.5 * math.sqrt(-disc))


@dataclass(frozen=True)
class ValidityInfo:
    """Where an asymptotic construction can be trusted, plus any warnings."""

    expansion_point: float | None  # on the t axis; None for exact cases
    trust_lo: float | None
    trust_hi: float | None
    warnings: tuple


@dataclass(frozen=True)
class InverseResult:
    canonical: CanonicalSLP
    map: TransformMap
    exact: bool
    validity: ValidityInfo
    case_label: str
    extras: dict


# ---------------------------------------------------------------------------
# small AST builders


def _x_plus(shift: float):
    if shift == 0.0:
        return Var()
    if shift > 0.0:
        return Add(Var(), Const(shift))
    return Sub(Var(), Const(-shift))


def _scale(c: float, node):
    if c == 1.0:
        return node
    return Mul(Const(c), node)


def _ast(node) -> ExpressionAST:
    return ExpressionAST(node, "x")


def _t_ast(node) -> ExpressionAST:
    return ExpressionAST(node, "t")


def _const_ast(value: float, variable: str = "x") -> ExpressionAST:
    return ExpressionAST(Const(float(value)), variable)


def _finish(case_label: str, p, q, r, a: float, b: float, t_ast, x_ast,
            exact: bool, validity: ValidityInfo, extras: dict) -> InverseResult:
    if a == b:
        raise ConstructionError(
            f"{case_label}: interval collapsed to one float, a=b={a!r}; "
            "the shift is too large for its width")
    if not a < b:
        raise ConstructionError(f"{case_label}: interval inversion, a={a!r} >= b={b!r}")
    canonical = CanonicalSLP(p=p, q=q, r=r, a=a, b=b)
    bad = validate(canonical)
    if bad:
        raise ConstructionError(
            f"{case_label}: constructed problem failed validation: "
            + "; ".join(map(str, bad)))
    map_ = TransformMap.closed_form(t_ast, x_ast, (a, b), (0.0, math.pi))
    extras = {key: float(val) for key, val in extras.items()}
    return InverseResult(canonical=canonical, map=map_, exact=exact,
                         validity=validity, case_label=case_label, extras=extras)


_EXACT = ValidityInfo(None, None, None, ())

# interior zeros of p that get a warning each; one more warning counts the rest
_ZERO_WARNINGS = 10


def _zero_warnings(zeros, lo: float, hi: float, describe, key=None) -> list:
    """Warnings for the zeros whose position, key(zero), lies strictly
    inside (lo, hi): one each for the first _ZERO_WARNINGS, then one that
    counts the rest.

    `zeros` ascends in position and may be a range, so the interior ones
    are one slice, found by bisection without visiting the others.
    """
    first = bisect.bisect_right(zeros, lo, key=key)
    end = bisect.bisect_left(zeros, hi, key=key)
    listed = zeros[first:min(end, first + _ZERO_WARNINGS)]
    warnings = [f"p vanishes inside the interval ({describe(z)})" for z in listed]
    if end - first > len(listed):
        warnings.append(
            f"p vanishes at {end - first - len(listed)} more points inside the interval")
    return warnings


# ---------------------------------------------------------------------------
# case 1: vanishing potential, constant weight


def _case1(spec: PaineSpec, r0: float, x0: float, branch: str,
           k34_branch: str) -> InverseResult:
    """Power-law leading coefficient from the indicial root rho.

    `branch` selects the +/- root for k != 3/4 (the minus root is re-checked
    for interval ordering and positivity); at k = 3/4 the minus root makes
    the power map degenerate and `k34_branch` chooses between the rho = 3/2
    power form and the exponential form instead.
    """
    if branch not in ("plus", "minus"):
        raise ConstructionError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if k34_branch not in ("power", "exponential"):
        raise ConstructionError(f"k34_branch must be 'power' or 'exponential', got {k34_branch!r}")
    if r0 <= 0.0:
        raise ConstructionError(f"r0 must be positive for a regular weight, got {r0}")
    k, m = spec.k, spec.m
    is_k34 = abs(k - 0.75) <= 1e-12

    if is_k34 and k34_branch == "exponential":
        # rho = -1/2: the power map degenerates, dx/dtau = 1/(r0 tau)
        a = -x0 + math.log(m) / r0
        b = -x0 + math.log(math.pi + m) / r0
        p = _ast(_scale(1.0 / r0, Call("exp", (_scale(-2.0 * r0, _x_plus(x0)),))))
        q = _const_ast(0.0)
        r = _const_ast(r0)
        t_ast = _ast(Sub(Call("exp", (_scale(r0, _x_plus(x0)),)), Const(m)))
        x_ast = _t_ast(Sub(_scale(1.0 / r0, Call("ln", (Add(Var(), Const(m)),))), Const(x0)))
        extras = {"x0": x0, "r0": r0, "k": k, "m": m, "rho": -0.5,
                  "delta0": 1.0 / m, "gamma0": 1.0 / (math.pi + m)}
        return _finish("case1", p, q, r, a, b, t_ast, x_ast, True, _EXACT, extras)

    if is_k34:
        rho = 1.5
    else:
        root = math.sqrt(1.0 + 4.0 * k)
        rho = 0.5 * (1.0 + root) if branch == "plus" else 0.5 * (1.0 - root)
    two_rho_p1 = 2.0 * rho + 1.0
    if abs(two_rho_p1) < 1e-12:
        raise ConstructionError(
            "minus branch degenerates (2*rho + 1 = 0); use the exponential k=3/4 form")
    c = r0 * two_rho_p1
    a = -x0 + m**two_rho_p1 / c
    b = -x0 + (math.pi + m) ** two_rho_p1 / c
    expo = 4.0 * rho / two_rho_p1
    bracket = _scale(c, _x_plus(x0))  # equals tau^(2 rho + 1) > 0 on [a, b]
    p = _ast(_scale(1.0 / r0, Pow(bracket, Const(expo))))
    q = _const_ast(0.0)
    r = _const_ast(r0)
    t_ast = _ast(Sub(Pow(bracket, Const(1.0 / two_rho_p1)), Const(m)))
    x_ast = _t_ast(Sub(_scale(1.0 / c, Pow(Add(Var(), Const(m)), Const(two_rho_p1))), Const(x0)))
    extras = {"x0": x0, "r0": r0, "k": k, "m": m, "rho": rho,
              "two_rho_plus_one": two_rho_p1, "p_exponent": expo,
              "r0_ring": r0 ** ((2.0 * rho - 1.0) / two_rho_p1),
              "delta0": m ** (2.0 * rho), "gamma0": (math.pi + m) ** (2.0 * rho)}
    return _finish("case1", p, q, r, a, b, t_ast, x_ast, True, _EXACT, extras)


# ---------------------------------------------------------------------------
# case 2: constant potential, quadratic weight


def _c_validity(label: str, mu: float, m: float, offset: float, family: str,
                truncation: str) -> ValidityInfo:
    """Guards, warnings and trust region of the oscillatory C1 (cosine,
    offset 0.5) and C2 (sine, offset 0) families.

    The p factor vanishes where mu*ln(tau) = pi*(n - offset): at an endpoint
    that is a degenerate construction, inside (0, pi) a warning.
    """
    tau_lo, tau_hi = m, math.pi + m
    v_lo = mu * math.log(tau_lo) / math.pi + offset
    v_hi = mu * math.log(tau_hi) / math.pi + offset
    for what, tau, value in (("delta0", tau_lo, v_lo), ("gamma0", tau_hi, v_hi)):
        n = round(value)
        if abs(value - n) < 1e-9:
            raise ConstructionError(
                f"{label}: degenerate {what} (mu*ln({tau!r}) = pi*({n} - {offset})); "
                "the endpoint coefficient vanishes")

    def tau_star(n):
        return math.exp((n - offset) * math.pi / mu)

    warnings = [f"asymptotic construction: map truncated at the {truncation} term about tau = 1"]
    # mu > 0, so v_lo <= v_hi and tau_star ascends with n
    warnings += _zero_warnings(range(math.ceil(v_lo), math.floor(v_hi) + 1), tau_lo, tau_hi,
                               lambda n: f"{family} zero at t = {tau_star(n) - m!r}", tau_star)
    span = max(abs(m - 1.0), abs(math.pi + m - 1.0))
    if span > 0.5:
        warnings.append(
            f"interval reaches |tau - 1| = {span!r}, outside the trust radius 0.5")
    lo = max(0.0, 1.0 - m - 0.5)
    hi = min(math.pi, 1.0 - m + 0.5)
    if not lo < hi:
        lo = hi = None
    return ValidityInfo(1.0 - m, lo, hi, tuple(warnings))


def case2_build(spec: PaineSpec, q0: float, x0: float = 0.0) -> InverseResult:
    """Quadratic-weight construction routed by the indicial discriminant:
    A1 for equal roots, B for real-distinct, C1 for complex."""
    variant = {"equal": "A1", "real-distinct": "B",
               "complex": "C1"}[indicial_roots(spec.k, q0).kind]
    return _case2(variant, spec, q0, x0)


def _case2(variant: str, spec: PaineSpec, q0: float, x0: float) -> InverseResult:
    """The five quadratic-weight constructions; A2 and C2 are the second
    independent solutions of the equal and complex indicial roots."""
    if q0 == 0.0:
        raise ConstructionError("case2 requires a nonzero constant potential q0")
    k, m = spec.k, spec.m
    roots = indicial_roots(k, q0)
    kind_needed = {"A1": "equal", "A2": "equal", "B": "real-distinct",
                   "C1": "complex", "C2": "complex"}[variant]
    if roots.kind != kind_needed:
        raise ConstructionError(
            f"case2-{variant} requires {kind_needed} indicial roots; "
            f"k={k!r}, q0={q0!r} gives discriminant {roots.discriminant!r} ({roots.kind})")

    if variant == "A1":
        a = -x0 + math.log(m)
        b = -x0 + math.log(math.pi + m)
        p = _const_ast(1.0)
        q = _const_ast(q0)
        r = _ast(Call("exp", (_scale(2.0, _x_plus(x0)),)))
        t_ast = _ast(Sub(Call("exp", (_x_plus(x0),)), Const(m)))
        x_ast = _t_ast(Sub(Call("ln", (Add(Var(), Const(m)),)), Const(x0)))
        extras = {"x0": x0, "q0": q0, "k": k, "m": m, "rho": 0.5,
                  "delta0": m, "gamma0": math.pi + m}
        return _finish("case2-A1", p, q, r, a, b, t_ast, x_ast, True, _EXACT, extras)

    if variant == "A2":
        log_m = math.log(m)
        if abs(log_m) < 1e-9:
            raise ConstructionError(
                "case2-A2: degenerate endpoint coefficient (ln m = 0); choose m != 1")
        a = -x0 + log_m**3 / 3.0
        b = -x0 + math.log(math.pi + m) ** 3 / 3.0
        u = _scale(3.0, _x_plus(x0))  # equals ln^3(tau)
        p = _ast(Pow(Call("abs", (u,)), Const(4.0 / 3.0)))
        q = _const_ast(q0)
        r = _ast(Call("exp", (_scale(2.0, Call("cbrt", (u,))),)))
        t_ast = _ast(Sub(Call("exp", (Call("cbrt", (u,)),)), Const(m)))
        x_ast = _t_ast(Sub(_scale(1.0 / 3.0, Pow(Call("ln", (Add(Var(), Const(m)),)), Const(3.0))),
                           Const(x0)))
        warnings = []
        if m < 1.0:
            warnings.append(
                f"p vanishes inside the interval (tau = 1 at t = {1.0 - m!r}); "
                "the canonical problem is singular there")
        extras = {"x0": x0, "q0": q0, "k": k, "m": m, "rho": 0.5,
                  "delta0": m * log_m**2,
                  "gamma0": (math.pi + m) * math.log(math.pi + m) ** 2}
        return _finish("case2-A2", p, q, r, a, b, t_ast, x_ast, True,
                       ValidityInfo(None, None, None, tuple(warnings)), extras)

    if variant == "B":
        rho = roots.rho1
        c2 = 2.0 * rho - 1.0  # sqrt of the discriminant, positive
        a = -x0 + m**c2 / c2
        b = -x0 + (math.pi + m) ** c2 / c2
        bracket = _scale(c2, _x_plus(x0))  # equals tau^(2 rho - 1) > 0
        p = _ast(_scale(c2 * c2, Pow(_x_plus(x0), Const(2.0))))
        q = _const_ast(q0)
        r = _ast(Pow(bracket, Const(2.0 / c2)))
        t_ast = _ast(Sub(Pow(bracket, Const(1.0 / c2)), Const(m)))
        x_ast = _t_ast(Sub(_scale(1.0 / c2, Pow(Add(Var(), Const(m)), Const(c2))), Const(x0)))
        extras = {"x0": x0, "q0": q0, "k": k, "m": m, "rho": rho,
                  "two_rho_minus_one": c2,
                  "delta0": m ** (2.0 * rho), "gamma0": (math.pi + m) ** (2.0 * rho)}
        return _finish("case2-B", p, q, r, a, b, t_ast, x_ast, True, _EXACT, extras)

    mu = roots.mu
    if variant == "C1":
        validity = _c_validity("case2-C1", mu, m, 0.5, "cosine", "linear")
        a = -x0 + m - 1.0
        b = -x0 + math.pi + m - 1.0
        tau = _x_plus(x0 + 1.0)  # linearized tau = 1 + x + x0
        phase = _scale(mu, Call("ln", (tau,)))
        p = _ast(Pow(Call("cos", (phase,)), Const(4.0)))
        q = _const_ast(q0)
        r = _ast(Pow(tau, Const(2.0)))
        t_ast = _ast(Sub(_x_plus(x0 + 1.0), Const(m)))
        x_ast = _t_ast(Add(Var(), Const(m - 1.0 - x0)))
        extras = {"x0": x0, "q0": q0, "k": k, "m": m, "mu": mu,
                  "delta0": m * math.cos(mu * math.log(m)) ** 2,
                  "gamma0": (math.pi + m) * math.cos(mu * math.log(math.pi + m)) ** 2}
        return _finish("case2-C1", p, q, r, a, b, t_ast, x_ast, False, validity, extras)

    # C2
    validity = _c_validity("case2-C2", mu, m, 0.0, "sine", "cubic")
    mu2_3 = mu * mu / 3.0
    a = -x0 + mu2_3 * (m - 1.0) ** 3
    b = -x0 + mu2_3 * (math.pi + m - 1.0) ** 3
    # tau(x) = 1 + cbrt(3 (x + x0) / mu^2), the cubic leading term inverted
    tau = Add(Const(1.0), Call("cbrt", (_scale(3.0 / (mu * mu), _x_plus(x0)),)))
    phase = _scale(mu, Call("ln", (tau,)))
    p = _ast(Pow(Call("sin", (phase,)), Const(4.0)))
    q = _const_ast(q0)
    r = _ast(Pow(tau, Const(2.0)))
    t_ast = _ast(Sub(Add(Const(1.0), Call("cbrt", (_scale(3.0 / (mu * mu), _x_plus(x0)),))),
                     Const(m)))
    x_ast = _t_ast(Sub(_scale(mu2_3, Pow(Add(Var(), Const(m - 1.0)), Const(3.0))), Const(x0)))
    extras = {"x0": x0, "q0": q0, "k": k, "m": m, "mu": mu,
              "delta0": m * math.sin(mu * math.log(m)) ** 2,
              "gamma0": (math.pi + m) * math.sin(mu * math.log(math.pi + m)) ** 2}
    return _finish("case2-C2", p, q, r, a, b, t_ast, x_ast, False, validity, extras)


def c_family_exact_displacement(mu: float, tau: float, family: str) -> float:
    """x + x0 as a function of tau from the exact separated integral:
    (1/2) ln(tau) +- sin(2 mu ln tau) / (4 mu); plus for the cosine family."""
    if tau <= 0.0:
        raise ConstructionError(f"tau must be positive, got {tau}")
    term = math.sin(2.0 * mu * math.log(tau)) / (4.0 * mu)
    if family == "C1":
        return 0.5 * math.log(tau) + term
    if family == "C2":
        return 0.5 * math.log(tau) - term
    raise ConstructionError(f"family must be 'C1' or 'C2', got {family!r}")


# ---------------------------------------------------------------------------
# case 3: constant potential and weight (Bessel forms)


def gamma_triangle(nu: float) -> float:
    """The reciprocal-difference-of-gammas constant of the small-argument
    expansion: 1/G = 1/Gamma(1+nu)^2 - 1/(Gamma(nu) Gamma(2+nu))."""
    inv = 1.0 / gamma_fn(1.0 + nu) ** 2 - 1.0 / (gamma_fn(nu) * gamma_fn(2.0 + nu))
    if abs(inv) < 1e-300:
        raise ConstructionError(f"gamma-difference constant has a pole at nu={nu!r}")
    return 1.0 / inv


def _bessel_guard(kind: str, nu: float, values: tuple, label: str):
    zeros_of = bessel_j_zeros if kind == "J" else bessel_y_zeros
    lo = max(min(values) - 1.0, 1e-6 if kind == "J" else 5e-2)
    hi = max(values) + 1.0
    try:
        zeros = zeros_of(nu, lo, hi)
    except SpecialFunctionError as err:  # the scaled interval is too long to scan
        raise ConstructionError(f"{label}: endpoint guard failed: {err}") from None
    for value in values:
        for zero in zeros:
            if abs(value - zero) <= 1e-8:
                raise ConstructionError(
                    f"{label}: endpoint argument {value!r} is a zero of "
                    f"{'J' if kind == 'J' else 'Y'}_{nu!r} (zero at {zero!r})")
    return zeros


def _case3(kind: str, spec: PaineSpec, q0: float, r0: float, shift: float) -> InverseResult:
    """Bessel-coefficient constructions; exact only asymptotically.

    The J branch comes from the small-argument expansion (trust region
    tau_bar well below 1), the Y branch from the large-argument expansion
    (trust region tau_bar well above 1).  `shift` is the free integration
    constant (x0 for J, x1 for Y).
    """
    if q0 == 0.0:
        raise ConstructionError("case3 requires nonzero constant potential q0")
    if r0 <= 0.0:
        raise ConstructionError(f"r0 must be positive for a regular weight, got {r0}")
    k, m = spec.k, spec.m
    nu = 0.5 * math.sqrt(4.0 * k + 1.0)
    s = math.sqrt(abs(q0) / r0)
    tau_bar_lo, tau_bar_hi = s * m, s * (math.pi + m)
    label = f"case3-{kind}"
    if not all(map(math.isfinite, (s, tau_bar_lo, tau_bar_hi))):
        raise ConstructionError(
            f"{label}: scaled Bessel argument sqrt(|q0|/r0)*(t+m) overflows "
            f"for q0={q0!r}, r0={r0!r}")
    zeros = _bessel_guard(kind, nu, (tau_bar_lo, tau_bar_hi), label)
    warnings = _zero_warnings(zeros, tau_bar_lo, tau_bar_hi,
                              lambda zero: f"{kind} zero at scaled argument {zero!r}")

    if kind == "J":
        gt = gamma_triangle(nu)
        e = 2.0 + 2.0 * nu
        cc = 0.5 * gt * math.sqrt(abs(q0) * r0)
        a = -shift + (1.0 / gt) * (m / r0) * (0.5 * m * s) ** (1.0 + 2.0 * nu)
        b = -shift + (1.0 / gt) * ((math.pi + m) / r0) * (0.5 * (math.pi + m) * s) ** (1.0 + 2.0 * nu)
        xbar = Pow(_scale(cc, _x_plus(shift)), Const(1.0 / e))
        p = _ast(_scale(4.0 / r0, Mul(Pow(xbar, Const(2.0)),
                                      Pow(Call("besselj", (Const(nu), _scale(2.0, xbar))),
                                          Const(4.0)))))
        gamma_diamond = (2.0 / s) * cc ** (1.0 / e)
        t_ast = _ast(Sub(_scale(gamma_diamond, Pow(_x_plus(shift), Const(1.0 / e))), Const(m)))
        x_ast = _t_ast(Sub(_scale(1.0 / cc, Pow(_scale(0.5 * s, Add(Var(), Const(m))), Const(e))),
                           Const(shift)))
        warnings.insert(0, "asymptotic construction: map from the small-argument expansion")
        if tau_bar_hi > 0.5:
            warnings.append(
                f"tau_bar reaches {tau_bar_hi!r} > 0.5, outside the small-argument trust region")
        trust_hi = 0.5 / s - m
        trust = (0.0, min(math.pi, trust_hi)) if trust_hi > 0.0 else (None, None)
        extras = {"x0": shift, "q0": q0, "r0": r0, "k": k, "m": m, "nu": nu,
                  "gamma_triangle": gt, "gamma_diamond": gamma_diamond,
                  "tau_bar_min": tau_bar_lo, "tau_bar_max": tau_bar_hi,
                  "delta0": tau_bar_lo * bessel_j(nu, tau_bar_lo) ** 2,
                  "gamma0": tau_bar_hi * bessel_j(nu, tau_bar_hi) ** 2}
        return _finish(label, p, _const_ast(q0), _const_ast(r0), a, b, t_ast, x_ast, False,
                       ValidityInfo(None, trust[0], trust[1], tuple(warnings)), extras)

    # Y branch: tau = pi r0 (x + x1), linear in x
    a = -shift + m / (math.pi * r0)
    b = -shift + (math.pi + m) / (math.pi * r0)
    arg = _scale(math.pi * math.sqrt(abs(q0) * r0), _x_plus(shift))
    p = _ast(_scale(math.pi**2 * abs(q0),
                    Mul(Pow(_x_plus(shift), Const(2.0)),
                        Pow(Call("bessely", (Const(nu), arg)), Const(4.0)))))
    t_ast = _ast(Sub(_scale(math.pi * r0, _x_plus(shift)), Const(m)))
    x_ast = _t_ast(Sub(_scale(1.0 / (math.pi * r0), Add(Var(), Const(m))), Const(shift)))
    warnings.insert(0, "asymptotic construction: map from the large-argument expansion")
    if tau_bar_lo < 5.0:
        warnings.append(
            f"tau_bar drops to {tau_bar_lo!r} < 5, outside the large-argument trust region")
    trust_lo = 5.0 / s - m
    trust = (max(0.0, trust_lo), math.pi) if trust_lo < math.pi else (None, None)
    extras = {"x1": shift, "q0": q0, "r0": r0, "k": k, "m": m, "nu": nu,
              "tau_bar_min": tau_bar_lo, "tau_bar_max": tau_bar_hi,
              "delta0": tau_bar_lo * bessel_y(nu, tau_bar_lo) ** 2,
              "gamma0": tau_bar_hi * bessel_y(nu, tau_bar_hi) ** 2}
    return _finish(label, p, _const_ast(q0), _const_ast(r0), a, b, t_ast, x_ast, False,
                   ValidityInfo(None, trust[0], trust[1], tuple(warnings)), extras)


# ---------------------------------------------------------------------------
# case 4: reciprocal-linear transformation weight


def _case4(spec: PaineSpec, C1: float, x0: float | None) -> InverseResult:
    """Polynomial p, q, r from the reciprocal-linear weight 1/(C1 (t+m)).

    x0 = None shifts the left endpoint to zero; the classical values
    k=1, m=0.1, C1=2 give p=(x+sqrt(0.2))^3, q=4(x+sqrt(0.2)),
    r=(x+sqrt(0.2))^5 on (0, sqrt(2 pi + 0.2) - sqrt(0.2)).
    """
    if C1 <= 0.0:
        raise ConstructionError(f"C1 must be positive, got {C1}")
    k, m = spec.k, spec.m
    if x0 is None:
        x0 = 2.0 * math.sqrt(m / C1)
    a = -x0 + 2.0 * math.sqrt(m / C1)
    b = -x0 + 2.0 * math.sqrt((math.pi + m) / C1)
    p = _ast(_scale(C1**3 / 8.0, Pow(_x_plus(x0), Const(3.0))))
    q = _ast(_scale(0.5 * k * C1**3, _x_plus(x0)))
    r = _ast(_scale((0.5 * C1) ** 5, Pow(_x_plus(x0), Const(5.0))))
    t_ast = _ast(Sub(_scale(0.25 * C1, Pow(_x_plus(x0), Const(2.0))), Const(m)))
    x_ast = _t_ast(Sub(_scale(2.0, Call("sqrt", (_scale(1.0 / C1, Add(Var(), Const(m))),))),
                       Const(x0)))
    extras = {"x0": x0, "C1": C1, "k": k, "m": m,
              "C0": C1 * m, "Q0": C1 * C1 * k,
              "delta0": (C1 * m) ** 2, "gamma0": C1 * C1 * (math.pi + m) ** 2}
    return _finish("case4", p, q, r, a, b, t_ast, x_ast, True, _EXACT, extras)


def _case4_general(spec: PaineSpec, C1: float, n_r: float) -> InverseResult:
    """Generalized powers: q ~ B^(n_r - 2), r ~ B^n_r with B = C1 (t+m),
    admissible for 2 < n_r < 3; n_r = 5/2 recovers the polynomial case."""
    if C1 <= 0.0:
        raise ConstructionError(f"C1 must be positive, got {C1}")
    if not 2.0 < n_r < 3.0:
        raise ConstructionError(f"n_r must lie strictly between 2 and 3, got {n_r}")
    k, m = spec.k, spec.m
    n_q = n_r - 2.0
    e3 = 3.0 - n_r
    cc = e3 * C1 ** (n_r - 2.0)  # bracket coefficient: cc*(x+x0) = (t+m)^e3 * C1^...
    x0 = C1 ** (2.0 - n_r) * m**e3 / e3
    a = 0.0
    b = -x0 + C1 ** (2.0 - n_r) * (math.pi + m) ** e3 / e3
    bracket = _scale(cc, _x_plus(x0))  # equals (C1 (t+m))^e3 / C1^... > 0
    big = _scale(C1, Pow(bracket, Const(1.0 / e3)))  # B = C1 (t+m)
    p = _ast(Pow(big, Const(4.0 - n_r)))
    q = _ast(_scale(k * C1 * C1, Pow(big, Const(n_q))))
    r = _ast(Pow(big, Const(n_r)))
    t_ast = _ast(Sub(Pow(bracket, Const(1.0 / e3)), Const(m)))
    x_ast = _t_ast(Sub(_scale(C1 ** (2.0 - n_r) / e3, Pow(Add(Var(), Const(m)), Const(e3))),
                       Const(x0)))
    extras = {"x0": x0, "C1": C1, "k": k, "m": m, "n_q": n_q, "n_r": n_r,
              "delta0": (C1 * m) ** 2, "gamma0": C1 * C1 * (math.pi + m) ** 2}
    return _finish("case4-general", p, q, r, a, b, t_ast, x_ast, True, _EXACT, extras)


# ---------------------------------------------------------------------------
# label dispatch (shared with the command-line front-end)


def build_case(label: str, spec: PaineSpec, *, q0: float | None = None,
               r0: float | None = None, C1: float | None = None,
               x0: float | None = None, branch: str = "plus",
               k34_branch: str = "power", n_r: float | None = None) -> InverseResult:
    """Build the construction named by `label`, one of CASE_LABELS.

    The parameters each label reads (it ignores the others):

    * case1         -- r0 (default 1), x0 (default 0), branch ("plus" or
                       "minus"), k34_branch ("power" or "exponential", read
                       at k = 3/4 only)
    * case2-*       -- q0, x0 (default 0)
    * case3-J/Y     -- q0, r0, x0 (default 0; the shift x1 of the Y map)
    * case4         -- C1, x0 (default: the shift that puts a at 0)
    * case4-general -- C1, n_r in (2, 3); the shift always puts a at 0

    A missing or non-finite parameter, an unknown label, a violated
    constraint or a floating-point failure raises ConstructionError.
    """
    def need(name, value):
        if value is None:
            raise ConstructionError(f"{label} requires parameter {name}")
        return value

    for name, value in (("q0", q0), ("r0", r0), ("C1", C1), ("x0", x0), ("n_r", n_r)):
        if value is not None and not math.isfinite(value):
            raise ConstructionError(f"{label}: {name} must be finite, got {value!r}")
    shift = x0 if x0 is not None else 0.0
    try:
        if label == "case1":
            return _case1(spec, r0 if r0 is not None else 1.0, shift, branch, k34_branch)
        if label in ("case2-A1", "case2-A2", "case2-B", "case2-C1", "case2-C2"):
            return _case2(label.split("-")[1], spec, need("q0", q0), shift)
        if label in ("case3-J", "case3-Y"):
            return _case3(label.split("-")[1], spec, need("q0", q0), need("r0", r0), shift)
        if label == "case4":
            return _case4(spec, need("C1", C1), x0)
        if label == "case4-general":
            return _case4_general(spec, need("C1", C1), need("n_r", n_r))
    except ArithmeticError as err:  # overflow or division by zero in the constants
        raise ConstructionError(
            f"{label}: floating-point failure while building ({type(err).__name__}: {err})"
        ) from None
    raise ConstructionError(f"unknown case label {label!r}; expected one of {CASE_LABELS}")
