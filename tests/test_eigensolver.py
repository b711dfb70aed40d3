import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpkit.eigensolver import (DiscretizationError, SolverError, SymTridiag,
                                _sturm_counts, _sturm_rows,
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
    assert eig_bisect(T, 2, tol=1e-12) == oracle_eig_bisect(T, 2, tol=1e-12)


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


# ---------------------------------------------------------------------------
# the kernel against the original numpy-scalar bisection, bit for bit


def oracle_sturm_counts(d, e2, shifts, pivmin):
    """The recurrence on numpy scalars, one index per step."""
    out = np.empty(shifts.shape[0], dtype=np.int64)
    for k in range(shifts.shape[0]):
        sigma = shifts[k]
        cnt = 0
        q = d[0] - sigma
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            cnt += 1
        for i in range(1, d.shape[0]):
            q = d[i] - sigma - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0.0:
                cnt += 1
        out[k] = cnt
    return out


def oracle_pivmin(e2):
    return np.finfo(float).tiny * max(1.0, float(e2.max()) if len(e2) else 1.0)


def oracle_eig_bisect(T, count, tol=1e-10):
    """Bisection that counts every bracket's midpoint, shared or not."""
    d = T.diag
    e2 = T.offdiag * T.offdiag
    pivmin = oracle_pivmin(e2)
    radius = np.zeros(T.n)
    if T.n > 1:
        radius[:-1] += np.abs(T.offdiag)
        radius[1:] += np.abs(T.offdiag)
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
        above = oracle_sturm_counts(d, e2, mid, pivmin) > want
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return sorted(float(v) for v in 0.5 * (lo + hi))


# small integers make exact zeros and exact cancellations; TINY and 0.7 TINY
# make pivots on and just under pivmin: the clamp's edge
TINY = float(np.finfo(float).tiny)
entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, TINY, -0.7 * TINY]),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))


def assert_counts_match_oracle(T, shifts):
    e2 = T.offdiag * T.offdiag
    expected = oracle_sturm_counts(T.diag, e2, np.array(shifts), oracle_pivmin(e2))
    rows, pivmin = _sturm_rows(T)
    assert _sturm_counts(rows, shifts, pivmin) == expected.tolist()


@st.composite
def tridiagonals(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return SymTridiag(np.array(diag), np.array(off))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sturm_counts_match_numpy_scalar_oracle(data):
    T = data.draw(tridiagonals())
    # shifts on the diagonal entries hit zero pivots; repeats come in pairs
    pool = st.one_of(st.sampled_from(T.diag.tolist()), entries)
    shifts = data.draw(st.lists(pool, min_size=1, max_size=8))
    shifts += shifts[:data.draw(st.integers(0, len(shifts)))]
    assert_counts_match_oracle(T, shifts)


@pytest.mark.parametrize("pivot", [0.0, -0.0, 0.7 * TINY, TINY, -TINY, 2.0 * TINY])
def test_sturm_counts_match_oracle_at_the_pivmin_edge(pivot):
    T = SymTridiag(np.array([pivot, 1.0, pivot]), np.array([0.5, 0.5]))
    assert_counts_match_oracle(T, [0.0, 0.0, 1.0, pivot])


@settings(max_examples=60, deadline=None)
@given(T=tridiagonals(max_n=12), data=st.data())
def test_eig_bisect_matches_oracle_bisection(T, data):
    count = data.draw(st.integers(1, T.n))
    assert eig_bisect(T, count, tol=1e-12) == oracle_eig_bisect(T, count, tol=1e-12)


@pytest.mark.parametrize("n", [200, 401])
def test_eig_bisect_bit_identical_on_paine(n):
    T = discretize_schrodinger(paine_schrodinger(PaineSpec(1.0, 0.1)), n)
    assert eig_bisect(T, 5) == oracle_eig_bisect(T, 5)
