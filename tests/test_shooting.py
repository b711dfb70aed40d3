"""An eigenvalue oracle that is not the finite-difference scheme: Prufer
shooting on each problem's own coefficients.

With p u' = R cos(theta) and u = R sin(theta), the Prufer angle of
-(p u')' + q u = lambda r u obeys

    theta' = cos(theta)^2 / p + (lambda r - q) sin(theta)^2,  theta(a) = 0,

and the j-th Dirichlet eigenvalue is the lambda at which theta(b) = j pi;
theta(b) increases with lambda.  The angle is integrated by scipy's DOP853
at rtol 1e-12, and brentq finds each root in a bracket around the solver's
own value.  References: Pryce, Numerical Solution of Sturm-Liouville
Problems (OUP, 1993); Bailey, Everitt & Zettl, SLEIGN2 (ACM TOMS 27, 2001).
"""

import math

import pytest

from slpkit.inverse import build_case
from slpkit.problems import PaineSpec, paine_schrodinger
from slpkit.verify import spectral_match

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_optimize = pytest.importorskip("scipy.optimize")

SPEC = PaineSpec(1.0, 0.1)


def prufer_angle(p, q, r, a, b, lam):
    """theta(b) for the eigenvalue parameter lam."""
    def rhs(x, theta):
        s, c = math.sin(theta[0]), math.cos(theta[0])
        return [c * c / p(x) + (lam * r(x) - q(x)) * s * s]

    sol = scipy_integrate.solve_ivp(rhs, (a, b), [0.0], method="DOP853",
                                    rtol=1e-12, atol=1e-12)
    assert sol.success, sol.message
    return float(sol.y[0, -1])


def shoot(p, q, r, a, b, guesses):
    """The eigenvalue nearest each guess, the j-th guess for theta(b) = j pi."""
    out = []
    for j, guess in enumerate(guesses, start=1):
        width = 1e-4 * (1.0 + abs(guess))
        out.append(scipy_optimize.brentq(
            lambda lam: prufer_angle(p, q, r, a, b, lam) - j * math.pi,
            guess - width, guess + width, xtol=1e-13, rtol=1e-14))
    return out


@pytest.fixture(scope="module")
def case4_report():
    return spectral_match(build_case("case4", SPEC, C1=2.0), SPEC, count=5, n=2000)


def test_schrodinger_eigenvalues_match_shooting(case4_report):
    invariant = paine_schrodinger(SPEC).invariant.evaluate
    shot = shoot(lambda t: 1.0, invariant, lambda t: 1.0, 0.0, math.pi,
                 case4_report.eigenvalues_schrodinger)
    for code, oracle in zip(case4_report.eigenvalues_schrodinger, shot):
        assert abs(code - oracle) <= 1e-8, (code, oracle)


def test_canonical_eigenvalues_match_shooting(case4_report):
    problem = build_case("case4", SPEC, C1=2.0).canonical
    shot = shoot(problem.p.evaluate, problem.q.evaluate, problem.r.evaluate,
                 problem.a, problem.b, case4_report.eigenvalues_canonical)
    for code, oracle, budget in zip(case4_report.eigenvalues_canonical, shot,
                                    case4_report.gap_budgets):
        assert abs(code - oracle) <= budget, (code, oracle, budget)
        # a fixed bound as well: case4's map is near uniform in x, and the
        # t-mesh leaves its eigenvalues 5e-11 to 8.5e-10 from shooting at
        # n = 2000 (the x-mesh left them 1.3e-11 to 4.2e-10 off)
        assert abs(code - oracle) <= 2e-9, (code, oracle)
    # both forms have one spectrum: shooting on each agrees with the other
    assert shot == pytest.approx(case4_report.eigenvalues_schrodinger, abs=1e-8)


# the canonical side of spectral_match on shapes whose maps are far from
# uniform in x: (label, spec, parameters)
SHOOTING_CASES = [
    ("case1", PaineSpec(0.75, 0.1), {"k34_branch": "power"}),
    ("case1", PaineSpec(1.0, 0.1), {}),
    ("case1", PaineSpec(2.0, 0.1), {}),
    ("case1", PaineSpec(3.0, 0.1), {}),
    ("case2-B", PaineSpec(1.0, 0.1), {"q0": -2.98}),
    ("case2-B", PaineSpec(1.0, 0.1), {"q0": -2.0}),
]


@pytest.mark.parametrize("label, spec, params", SHOOTING_CASES)
def test_canonical_eigenvalues_on_the_t_mesh_match_shooting(label, spec, params):
    # a fixed bound, not the gap budget: an unconverged canonical solve
    # inflates its own Richardson estimate, and with it the budget
    result = build_case(label, spec, **params)
    report = spectral_match(result, spec, count=5, n=2000)
    problem = result.canonical
    shot = shoot(problem.p.evaluate, problem.q.evaluate, problem.r.evaluate,
                 problem.a, problem.b, report.eigenvalues_canonical)
    for code, oracle in zip(report.eigenvalues_canonical, shot):
        assert abs(code - oracle) <= 1e-6, (code, oracle)
