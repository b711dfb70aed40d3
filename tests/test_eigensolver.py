import math

import numpy as np
import pytest

from slpkit.eigensolver import (DiscretizationError, SolverError, SymTridiag,
                                discretize_canonical, discretize_schrodinger,
                                eig_bisect, laplacian_eigenvalue,
                                solve_spectrum, sturm_count)
from slpkit.expr import parse
from slpkit.problems import (CanonicalSLP, PaineSpec, SchrodingerSLP,
                             paine_schrodinger)

PI = math.pi

# precomputed on a 16000-point mesh-halved Richardson grid with an
# independent LAPACK bisection solver; cross-checked against adaptive
# shooting (lambda_1 = 1.5198658210993...)
PAINE_ORACLE = (1.519865838810803, 4.943309840435783, 10.284662654623384,
                17.559957759454843, 26.782863174254686)


def free_particle():
    return SchrodingerSLP(parse("0", "t"), 0.0, PI)


def test_discrete_laplacian_closed_form():
    T = discretize_schrodinger(free_particle(), 99)
    computed = eig_bisect(T, 3, tol=1e-12)
    for j, lam in enumerate(computed, start=1):
        assert abs(lam - laplacian_eigenvalue(PI, 99, j)) <= 1e-10
    # the classical magnitude of the first discrete eigenvalue
    assert computed[0] == pytest.approx(0.99991775598, abs=1e-9)


def test_constant_potential_is_exact_diagonal_shift():
    T0 = discretize_schrodinger(free_particle(), 99)
    T5 = discretize_schrodinger(SchrodingerSLP(parse("5", "t"), 0.0, PI), 99)
    assert np.array_equal(T5.diag, T0.diag + 5.0)
    assert np.array_equal(T5.offdiag, T0.offdiag)
    e0 = eig_bisect(T0, 3, tol=1e-12)
    e5 = eig_bisect(T5, 3, tol=1e-12)
    for a, b in zip(e0, e5):
        assert b == pytest.approx(a + 5.0, abs=1e-10)


def test_paine_discretization_magnitude():
    prob = paine_schrodinger(PaineSpec(1.0, 0.1))
    lam1 = eig_bisect(discretize_schrodinger(prob, 2000), 1)[0]
    assert lam1 == pytest.approx(PAINE_ORACLE[0], abs=1e-4)
    spectrum = solve_spectrum(prob, 2000, 5, richardson=True)
    for mine, ref in zip(spectrum.eigenvalues, PAINE_ORACLE):
        assert mine == pytest.approx(ref, abs=1e-6)


def test_eig_bisect_duplicates_from_decoupled_blocks():
    T = SymTridiag(np.array([2.0, 2.0]), np.array([0.0]))
    assert eig_bisect(T, 2, tol=1e-12) == pytest.approx([2.0, 2.0], abs=1e-10)


def test_eig_bisect_against_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(6):
        n = int(rng.integers(4, 31))
        T = SymTridiag(rng.normal(size=n), rng.normal(size=n - 1))
        mine = eig_bisect(T, n, tol=1e-12)
        ref = np.linalg.eigvalsh(T.dense())
        assert np.abs(np.array(mine) - ref).max() <= 1e-10


def test_eig_bisect_rejects_bad_arguments():
    T = SymTridiag(np.zeros(4), np.ones(3))
    with pytest.raises(DiscretizationError):
        eig_bisect(T, 0)
    with pytest.raises(DiscretizationError):
        eig_bisect(T, 5)
    with pytest.raises(DiscretizationError):
        eig_bisect(T, 2, tol=0.0)


def test_sturm_count_matches_exact_spectrum():
    n = 99
    T = discretize_schrodinger(free_particle(), n)
    exact = [laplacian_eigenvalue(PI, n, j) for j in range(1, n + 1)]
    for sigma in (0.5, 1.5, 10.0, 1000.0, 2.0 / (PI / (n + 1)) ** 2 * 2.5):
        expected = sum(1 for lam in exact if lam < sigma)
        assert sturm_count(T, sigma) == expected


def test_sign_count_monotone_in_shift():
    rng = np.random.default_rng(5)
    T = SymTridiag(rng.normal(size=40), rng.normal(size=39))
    shifts = np.sort(rng.uniform(-5.0, 5.0, size=100))
    counts = [sturm_count(T, float(s)) for s in shifts]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_interlacing_against_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(4):
        n = int(rng.integers(6, 31))
        T = SymTridiag(rng.normal(size=n), rng.normal(size=n - 1))
        full = eig_bisect(T, n, tol=1e-12)
        sub = np.linalg.eigvalsh(SymTridiag(T.diag[:-1], T.offdiag[:-1]).dense())
        for i in range(n - 1):
            assert full[i] <= sub[i] + 1e-9
            assert sub[i] <= full[i + 1] + 1e-9


def test_second_order_convergence():
    errors = []
    for n in (50, 101, 203, 407):  # mesh-halving sequence
        lam = eig_bisect(discretize_schrodinger(free_particle(), n), 1, tol=1e-12)[0]
        errors.append(abs(lam - 1.0))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_richardson_baseline():
    spectrum = solve_spectrum(free_particle(), 200, 3, richardson=True)
    for lam, exact in zip(spectrum.eigenvalues, (1.0, 4.0, 9.0)):
        assert abs(lam - exact) <= 1e-6
    assert spectrum.extrapolated
    assert all(e > 0 for e in spectrum.error_estimates)
    shifted = solve_spectrum(SchrodingerSLP(parse("5", "t"), 0.0, PI), 200, 3)
    for lam, exact in zip(shifted.eigenvalues, (6.0, 9.0, 14.0)):
        assert abs(lam - exact) <= 1e-6


def test_canonical_identity_reduction():
    one, zero = parse("1"), parse("0")
    prob = CanonicalSLP(one, zero, one, 0.0, PI)
    Tc = discretize_canonical(prob, 99)
    Ts = discretize_schrodinger(free_particle(), 99)
    assert np.array_equal(Tc.diag, Ts.diag)
    assert np.array_equal(Tc.offdiag, Ts.offdiag)


def test_constant_weight_scales_spectrum():
    one, zero = parse("1"), parse("0")
    base = CanonicalSLP(one, zero, one, 0.0, PI)
    heavy = CanonicalSLP(one, zero, parse("4"), 0.0, PI)
    e1 = eig_bisect(discretize_canonical(base, 99), 4, tol=1e-12)
    e4 = eig_bisect(discretize_canonical(heavy, 99), 4, tol=1e-12)
    for a, b in zip(e1, e4):
        assert b == pytest.approx(a / 4.0, rel=1e-11)


def test_cross_form_eigenvalues_case4():
    from slpkit.inverse import case4_build
    spec = PaineSpec(1.0, 0.1)
    res = case4_build(spec, C1=2.0)
    canon = solve_spectrum(res.canonical, 2000, 5, richardson=True)
    schrod = solve_spectrum(paine_schrodinger(spec), 2000, 5, richardson=True)
    for c, s, ec, es in zip(canon.eigenvalues, schrod.eigenvalues,
                            canon.error_estimates, schrod.error_estimates):
        assert abs(c - s) <= 5.0 * (ec + es)
    assert canon.eigenvalues[0] == pytest.approx(PAINE_ORACLE[0], abs=1e-6)


def test_discretization_requires_dirichlet_and_size():
    with pytest.raises(DiscretizationError):
        discretize_schrodinger(free_particle(), 2)


def test_fine_grid_coefficient_failures_surface_as_solver_errors():
    # p dips negative between validation samples; midpoint assembly sees it
    dip = CanonicalSLP(parse("1 - 1.5*exp(-((x-0.50225)/0.0001)^2)"),
                       parse("0"), parse("1"), 0.0, 1.0)
    from slpkit.problems import validate
    assert validate(dip) == []  # 201-point sampling misses the dip
    with pytest.raises(SolverError):
        discretize_canonical(dip, 1999)
