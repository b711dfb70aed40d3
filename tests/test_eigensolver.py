import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpkit.eigensolver import (DiscretizationError, SolverError, SymTridiag,
                                _assemble, _hold, _newton_step, _start, _sturm_count,
                                _sturm_rows, _windows,
                                discretize_canonical, discretize_schrodinger,
                                eig_bisect, laplacian_eigenvalue,
                                solve_spectrum)
from slpkit.expr import parse
from slpkit.problems import (CanonicalSLP, PaineSpec, SchrodingerSLP,
                             paine_schrodinger)
from test_acceptance import SPECTRAL_CASES

PI = math.pi

# precomputed on a 16000-point mesh-halved Richardson grid with an
# independent LAPACK bisection solver; cross-checked against adaptive
# shooting (lambda_1 = 1.5198658210993...)
PAINE_ORACLE = (1.519865838810803, 4.943309840435783, 10.284662654623384,
                17.559957759454843, 26.782863174254686)


def sturm_count(T, sigma):
    """Number of eigenvalues of T strictly below the shift."""
    rows, pivmin = _sturm_rows(T)
    return _sturm_count(rows, float(sigma), pivmin)


def counting_kernel(monkeypatch):
    """Route every Sturm count through a recorder: the list it returns
    gets (rows, shift) for each count, rows being the matrix size."""
    from slpkit import eigensolver
    counts = []

    def counting(rows, shift, pivmin):
        counts.append((len(rows), shift))
        return _sturm_count(rows, shift, pivmin)

    monkeypatch.setattr(eigensolver, "_sturm_count", counting)
    return counts


def counting_newton(monkeypatch):
    """Route every Newton step through a recorder: the Counter it returns
    gets the matrix size of each step."""
    from slpkit import eigensolver
    steps = Counter()

    def counting(rows, pivmin, sigma):
        steps[len(rows)] += 1
        return _newton_step(rows, pivmin, sigma)

    monkeypatch.setattr(eigensolver, "_newton_step", counting)
    return steps


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
    with pytest.raises(DiscretizationError, match="nan"):
        eig_bisect(T, 1, tol=float("nan"))
    # an infinite tol would return the Gershgorin midpoints, here [2, 2, 2]
    second_difference = SymTridiag(np.full(3, 2.0), np.full(2, -1.0))
    with pytest.raises(DiscretizationError, match="inf"):
        eig_bisect(second_difference, 3, tol=math.inf)


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
    from slpkit.inverse import build_case
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4", spec, C1=2.0)
    canon = solve_spectrum(res.canonical, 2000, 5, richardson=True)
    schrod = solve_spectrum(paine_schrodinger(spec), 2000, 5, richardson=True)
    for c, s, ec, es in zip(canon.eigenvalues, schrod.eigenvalues,
                            canon.error_estimates, schrod.error_estimates):
        assert abs(c - s) <= 5.0 * (ec + es)
    assert canon.eigenvalues[0] == pytest.approx(PAINE_ORACLE[0], abs=1e-6)


def test_discretization_requires_dirichlet_and_size():
    with pytest.raises(DiscretizationError):
        discretize_schrodinger(free_particle(), 2)


@pytest.mark.parametrize("hi", [
    1e-170,  # h^2 underflows to 0
    1e-153,  # h^2 is subnormal and 2/h^2 overflows
    1e160,   # h^2 overflows, and 1/h^2 would read 0
])
def test_discretization_refuses_a_mesh_without_a_finite_second_difference(hi):
    schrod = SchrodingerSLP(parse("0", "t"), 0.0, hi)
    canon = CanonicalSLP(parse("1"), parse("0"), parse("1"), 0.0, hi)
    for discretize, problem in ((discretize_schrodinger, schrod),
                                (discretize_canonical, canon)):
        with pytest.raises(DiscretizationError, match="out of range for the difference scheme"):
            discretize(problem, 1000)
        with pytest.raises(DiscretizationError, match="out of range for the difference scheme"):
            solve_spectrum(problem, 1000, 3)


def test_a_guess_grid_the_scheme_cannot_represent_gives_no_guesses():
    from slpkit import eigensolver
    # h^2 is finite on the 1000-point grid and overflows on the 125-point one
    problem = SchrodingerSLP(parse("1", "t"), 0.0, 5e156)
    with pytest.raises(DiscretizationError):
        discretize_schrodinger(problem, 1000 // 8)
    assert eigensolver._guesses(problem, 1000 // 8, 1) is None
    spectrum = solve_spectrum(problem, 1000, 1, richardson=False)
    assert spectrum.eigenvalues == pytest.approx((1.0,))


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


def oracle_start(T):
    """The padded Gershgorin bounds."""
    d = T.diag
    radius = np.zeros(T.n)
    if T.n > 1:
        radius[:-1] += np.abs(T.offdiag)
        radius[1:] += np.abs(T.offdiag)
    glo = float((d - radius).min())
    ghi = float((d + radius).max())
    pad = 1e-10 * max(1.0, abs(glo), abs(ghi))
    return glo - pad, ghi + pad


def oracle_eig_bisect(T, count, tol=1e-10):
    """Bisection that halves every bracket together, counting every
    bracket's midpoint, shared or not, until all are at most tol wide."""
    d = T.diag
    e2 = T.offdiag * T.offdiag
    pivmin = oracle_pivmin(e2)
    glo, ghi = oracle_start(T)
    lo = np.full(count, glo)
    hi = np.full(count, ghi)
    want = np.arange(count)
    for _ in range(200):
        if (hi - lo <= tol).all():
            break
        mid = 0.5 * (lo + hi)
        above = oracle_sturm_counts(d, e2, mid, pivmin) > want
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return sorted(float(v) for v in 0.5 * (lo + hi))


def counted_plain_bisection(T, count, tol=1e-10):
    """The number of counts oracle_eig_bisect's brackets take when one
    eigenvalue's path is walked after another and a midpoint is counted
    only where no count before it decides it: a plain bisection that
    shares its counts, with no guesses and no Newton steps."""
    e2 = T.offdiag * T.offdiag
    pivmin = oracle_pivmin(e2)
    taken = []  # (shift, count)

    def above(j, mid):
        bounded_above = any(s <= mid and k > j for s, k in taken)
        if not bounded_above and not any(s >= mid and k <= j for s, k in taken):
            k = int(oracle_sturm_counts(T.diag, e2, np.array([mid]), pivmin)[0])
            taken.append((mid, k))
            bounded_above = k > j
        return bounded_above

    def halve(j, lo, hi):
        mid = 0.5 * (lo + hi)
        return (lo, mid) if above(j, mid) else (mid, hi)

    paths = []
    for j in range(count):
        lo, hi = oracle_start(T)
        depth = 0
        while hi - lo > tol:
            lo, hi = halve(j, lo, hi)
            depth += 1
        paths.append((lo, hi, depth))
    # the paths that stopped early are halved on to the deepest depth
    deepest = max(depth for _, _, depth in paths)
    for j, (lo, hi, depth) in enumerate(paths):
        for _ in range(deepest - depth):
            lo, hi = halve(j, lo, hi)
    return len(taken)


# small integers make exact zeros and exact cancellations; TINY and 0.7 TINY
# make pivots on and just under pivmin: the clamp's edge
TINY = float(np.finfo(float).tiny)
entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, TINY, -0.7 * TINY]),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))


def assert_counts_match_oracle(T, shifts):
    e2 = T.offdiag * T.offdiag
    expected = oracle_sturm_counts(T.diag, e2, np.array(shifts), oracle_pivmin(e2))
    rows, pivmin = _sturm_rows(T)
    assert [_sturm_count(rows, shift, pivmin) for shift in shifts] == expected.tolist()


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


def lockstep_levels(T, count, depth):
    """The brackets of the lockstep bisection after 0, 1, ..., depth - 1
    halvings, as (lo, hi) arrays."""
    e2 = T.offdiag * T.offdiag
    pivmin = oracle_pivmin(e2)
    lo, hi = (np.full(count, end) for end in oracle_start(T))
    levels = []
    for _ in range(depth):
        levels.append((lo, hi))
        mid = 0.5 * (lo + hi)
        above = oracle_sturm_counts(T.diag, e2, mid, pivmin) > np.arange(count)
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return levels


def test_paths_that_stop_early_continue_to_the_common_depth():
    # the brackets of one depth can differ in their last bits; at the first
    # depth where they do, a tol equal to the narrowest stops that path one
    # halving before the others, and the lockstep bisection halves it again
    T = SymTridiag(np.full(99, 2.0), np.full(98, -1.0))
    count = 5
    levels = lockstep_levels(T, count, 60)
    depth = next(k for k, (lo, hi) in enumerate(levels) if len(set((hi - lo).tolist())) > 1)
    lo, hi = levels[depth]
    tol = float((hi - lo).min())
    assert ((hi - lo) <= tol).any() and ((hi - lo) > tol).any()
    plain = oracle_eig_bisect(T, count, tol)
    lo1, hi1 = levels[depth + 1]
    assert plain == sorted((0.5 * (lo1 + hi1)).tolist())
    # each path stopped at its own depth would end elsewhere
    own = np.where(hi - lo <= tol, 0.5 * (lo + hi), 0.5 * (lo1 + hi1))
    assert sorted(own.tolist()) != plain
    exact = np.linalg.eigvalsh(T.dense())[:count].tolist()
    for t, reference in ((tol, plain), (1e-12, oracle_eig_bisect(T, count, 1e-12))):
        # no guesses; exact ones; and guesses that settle on the wrong
        # eigenvalue, never settle, or are off by -+1e-3
        for near in (None, exact,
                     [exact[1], math.nan, exact[2] + 1e-3, exact[3] - 1e-3, exact[0]],
                     [1e6, exact[0], exact[4] - 1e-3, exact[3] + 1e-3, exact[2]]):
            assert eig_bisect(T, count, tol=t, _near=near) == reference


def test_a_bisection_that_cannot_reach_tol_fails_after_200_halvings():
    # a tol far below the float spacing near the eigenvalues is never met
    T = SymTridiag(np.array([1.0, 2.0]), np.array([0.5]))
    for near in (None, np.linalg.eigvalsh(T.dense()).tolist()):
        with pytest.raises(SolverError) as err:
            eig_bisect(T, 2, tol=1e-300, _near=near)
        assert str(err.value) == ("bisection failed to bracket within 200 iterations "
                                  "(start [0.49999999975, 2.50000000025], tol 1e-300)")


# ---------------------------------------------------------------------------
# the eigenvalues against LAPACK: a change that loses digits fails here


GATE_MATRICES = SPECTRAL_CASES + [("paine", PaineSpec(1.0, 0.1), None)]


# eig_bisect at tol 1e-10 is within 3.7e-11 of eigvalsh on every one of
# these matrices (case4 canonical and the Paine matrix come closest to it)
@pytest.mark.parametrize("label, spec, params", GATE_MATRICES, ids=[
    "-".join([label, f"k{spec.k}", f"m{spec.m}"] + [f"{k}={v}" for k, v in (params or {}).items()])
    for label, spec, params in GATE_MATRICES])
def test_eig_bisect_agrees_with_eigvalsh(label, spec, params):
    # the canonical matrix of each exact gate case, and the Paine
    # Schrodinger matrix, on 400 points
    from slpkit.inverse import build_case
    if params is None:
        T = discretize_schrodinger(paine_schrodinger(spec), 400)
    else:
        T = discretize_canonical(build_case(label, spec, **params).canonical, 400)
    tol = 1e-10
    mine = np.array(eig_bisect(T, 5, tol))
    reference = np.linalg.eigvalsh(T.dense())[:5]
    assert np.abs(mine - reference).max() <= 2.0 * max(tol, 3.7e-11)


# ---------------------------------------------------------------------------
# certified windows: the fine-grid bisection skips counts a bound decides


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sturm_counts_never_decrease_as_the_shift_grows(data):
    # the premise of the windows: a bound decides every midpoint beyond it
    T = data.draw(tridiagonals())
    rows, pivmin = _sturm_rows(T)
    near = [d + k * pivmin for d in T.diag.tolist() for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    pool = st.one_of(st.sampled_from(T.diag.tolist()), st.sampled_from(near), entries)
    shifts = sorted(data.draw(st.lists(pool, min_size=2, max_size=16)))
    assert_counts_match_oracle(T, shifts)
    counts = [_sturm_count(rows, shift, pivmin) for shift in shifts]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_count_bounds_every_eigenvalue(data):
    # the sharing rule alone: after _hold takes each count, lo[j] is the
    # largest shift whose oracle count is <= j and hi[j] the smallest whose
    # count is > j, or -+inf where there is none
    T = data.draw(tridiagonals())
    rows, pivmin = _sturm_rows(T)
    edge = [pivmin, -pivmin] + [d + k * pivmin for d in T.diag.tolist() for k in (-1.0, 1.0)]
    pool = st.one_of(st.sampled_from(T.diag.tolist()), st.sampled_from(edge), entries)
    shifts = data.draw(st.lists(pool, min_size=1, max_size=12))
    lo = [-math.inf] * T.n
    hi = [math.inf] * T.n
    for shift in shifts:
        _hold(lo, hi, shift, _sturm_count(rows, shift, pivmin))
    e2 = T.offdiag * T.offdiag
    oracle = oracle_sturm_counts(T.diag, e2, np.array(shifts), oracle_pivmin(e2)).tolist()
    for j in range(T.n):
        assert lo[j] == max((s for s, k in zip(shifts, oracle) if k <= j), default=-math.inf)
        assert hi[j] == min((s for s, k in zip(shifts, oracle) if k > j), default=math.inf)


# a guess off by these amounts settles on its eigenvalue, on a neighbour,
# or nowhere within the Newton steps
OFFSETS = [0.0, 1e-12, -1e-12, 1e-9, 1e-6, -1e-3, 0.1, -1.0, 8.0, -100.0, 1e6]


@st.composite
def guesses(draw, T, count):
    """A float per eigenvalue: exact, off by a little or a lot, anywhere,
    or a value no Newton step starts from."""
    exact = np.linalg.eigvalsh(T.dense())[:count].tolist()
    return [draw(st.one_of(st.sampled_from(OFFSETS).map(lam.__add__),
                           st.floats(-1e3, 1e3, allow_nan=False),
                           st.sampled_from([math.nan, math.inf, -math.inf])))
            for lam in exact]


@settings(max_examples=120, deadline=None)
@given(T=tridiagonals(max_n=12), data=st.data())
def test_windowed_bisection_matches_oracle_bisection(T, data):
    count = data.draw(st.integers(1, T.n))
    near = data.draw(guesses(T, count))
    assert eig_bisect(T, count, tol=1e-12, _near=near) == oracle_eig_bisect(T, count, tol=1e-12)


@st.composite
def clustered(draw):
    """Copies of one small tridiagonal block, each diagonal moved by a tiny
    amount and the copies coupled by tiny off-diagonals: eigenvalues that
    come in clusters whose gaps are far below their distance from the rest."""
    size = draw(st.integers(1, 4))
    block = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    diag = draw(st.lists(block, min_size=size, max_size=size))
    off = draw(st.lists(block, min_size=size - 1, max_size=size - 1))
    tiny = st.sampled_from([0.0, 1e-12, -1e-10, 1e-8, -1e-6, 1e-4])
    d, e = [], []
    for copy in range(draw(st.integers(2, 4))):
        if copy:
            e.append(draw(tiny))
        moved = draw(tiny)
        d += [v + moved for v in diag]
        e += off
    return SymTridiag(np.array(d), np.array(e))


@settings(max_examples=150, deadline=None)
@given(T=clustered(), data=st.data())
def test_clustered_spectra_match_oracle_bisection(T, data):
    # the paths separate the members of a cluster deep down, where each
    # hands its eigenvalue to Newton within a bracket that the cluster's
    # gaps make narrow; guesses off by a cluster's width settle on a
    # neighbour as often as not
    count = data.draw(st.integers(1, T.n))
    tol = data.draw(st.sampled_from([1e-12, 1e-10, 1e-4]))
    reference = oracle_eig_bisect(T, count, tol=tol)
    assert eig_bisect(T, count, tol=tol) == reference
    assert eig_bisect(T, count, tol=tol, _near=data.draw(guesses(T, count))) == reference


def counted_windows(monkeypatch, T, guesses, tol, tight):
    """The held bounds _windows leaves on T, and every shift it counted."""
    counts = counting_kernel(monkeypatch)
    rows, pivmin = _sturm_rows(T)
    lo = [-math.inf] * len(guesses)
    hi = [math.inf] * len(guesses)
    _windows(rows, pivmin, guesses, tol, tight, _start(T), lo, hi)
    monkeypatch.undo()
    return lo, hi, [shift for _, shift in counts]


def assert_bounds_certified(T, lo, hi, shifts):
    """Each held bound is a counted shift, on its side of the j-th eigenvalue."""
    for j, (low, high) in enumerate(zip(lo, hi)):
        if low > -math.inf:
            assert low in shifts and sturm_count(T, low) <= j
        if high < math.inf:
            assert high in shifts and sturm_count(T, high) > j


def path_end(T, center, tol):
    """The bracket a bisection from the padded Gershgorin bounds closes on
    when it takes `center` for the eigenvalue."""
    lo, hi = oracle_start(T)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mid > center else (mid, hi)
    return lo, hi


def is_node(T, shift, tol):
    """Whether `shift` is an end of the brackets a bisection closes on: the
    one it closes on when it takes the shift for the eigenvalue starts there."""
    return path_end(T, shift, tol)[0] == shift


def test_certified_bounds_bracket_and_decide(monkeypatch):
    from slpkit.eigensolver import _settle
    T = discretize_schrodinger(free_particle(), 99)
    exact = [laplacian_eigenvalue(PI, 99, j) for j in range(1, 4)]
    tol, tight = 1e-11, 1e-9
    # each guess settles on the eigenvalue nearest to it: the first on its
    # own, whose path ends both hold; the second on the third eigenvalue,
    # so every lower rung fails (count 2 > 1): the path end, then the
    # nodes below c - w, 4 w, 16 w and 64 w (w, the path's width, is
    # 0.72 tol; 256 w is past tight); the third on the second, where every
    # rung is already decided by bounds the others' counts hold
    lo, hi, shifts = counted_windows(
        monkeypatch, T, [exact[0] + 1e-4, exact[2], exact[1] + 0.1], tol, tight)
    assert_bounds_certified(T, lo, hi, shifts)
    assert len(shifts) == 2 + 5
    # the first window is the bracket a plain bisection ends on
    assert lo[0] < exact[0] < hi[0] and hi[0] - lo[0] <= tol
    assert 0.5 * (lo[0] + hi[0]) == eig_bisect(T, 3, tol=tol)[0]
    # the second's rungs are nodes of the bisection's grid, the lower ends
    # of the brackets it closes on for c - 4^k w, none farther than tight
    rows, pivmin = _sturm_rows(T)
    center = _settle(rows, pivmin, exact[2], 1e4 * tight)
    left, right = path_end(T, center, tol)
    w = right - left
    assert 0.5 * tol < w <= tol
    assert shifts[2:] == [path_end(T, center - r, tol)[0] for r in (0.0, w, 4 * w, 16 * w, 64 * w)]
    assert all(is_node(T, s, tol) and exact[2] - tight < s < exact[2] for s in shifts[2:])
    # the first window's upper end (count 1) is the second eigenvalue's
    # lower bound, and the second's last failed rung its upper bound
    assert lo[1] == hi[0] and hi[1] == shifts[-1]
    # the second's first failed rung, its path end within tol below the
    # third eigenvalue (count 2), is the third's lower bound, for no count
    # of its own; nothing bounds the third from above
    assert lo[2] == shifts[2] and exact[2] - tol < lo[2] < exact[2]
    assert hi[2] == math.inf


def test_a_failed_rung_is_the_opposite_bound(monkeypatch):
    from slpkit import eigensolver
    T = discretize_schrodinger(free_particle(), 99)
    exact = [laplacian_eigenvalue(PI, 99, j) for j in range(1, 3)]
    tol, tight = 1e-11, 1e-9
    # centers 3 tol above the first eigenvalue and 20 tol below the second
    monkeypatch.setattr(eigensolver, "_settle",
                        lambda rows, pivmin, guess, limit: guess)
    guesses = [exact[0] + 3.0 * tol, exact[1] - 20.0 * tol]
    lo, hi, shifts = counted_windows(monkeypatch, T, guesses, tol, tight)
    assert_bounds_certified(T, lo, hi, shifts)
    assert all(is_node(T, s, tol) for s in shifts)
    # each side's first rung is that side's end of the bisection path; the
    # later ones are that side's ends of the brackets the bisection closes
    # on for c -+ 4^k w, where w is the width of c's own bracket
    (l0, h0), (l1, h1) = (path_end(T, g, tol) for g in guesses)
    w0, w1 = h0 - l0, h1 - l1
    assert shifts[:3] == [l0] + [path_end(T, guesses[0] - r, tol)[0] for r in (w0, 4 * w0)]
    assert shifts[3:] == [l1, h1] + [path_end(T, guesses[1] + r, tol)[1]
                                     for r in (w1, 4 * w1, 16 * w1, 64 * w1)]
    # the lower path end, within tol below c, and the node below c - w
    # fail, and the last of them is the upper bound; the node below c - 4 w
    # holds; the upper side is never counted
    assert guesses[0] - tol < shifts[0] <= guesses[0]
    assert (lo[0], hi[0]) == (shifts[2], shifts[1])
    # the lower path end holds; the upper side fails at its path end and at
    # the nodes above c + w, 4 w and 16 w, the last of which is the lower
    # bound, and holds at the node above c + 64 w
    assert (lo[1], hi[1]) == (shifts[-2], shifts[-1])
    assert guesses[1] + 64.0 * w1 <= hi[1] < guesses[1] + 65.0 * w1
    assert len(shifts) == 3 + 6


def two_call_solve(prob, n, count):
    """solve_spectrum as two independent full bisections, then Richardson."""
    lam_n = oracle_eig_bisect(_assemble(prob, n), count)
    lam_2n = oracle_eig_bisect(_assemble(prob, 2 * n + 1), count)
    pairs = sorted(((4.0 * l2 - l1) / 3.0, abs(l2 - l1) / 3.0)
                   for l1, l2 in zip(lam_n, lam_2n))
    return tuple(v for v, _ in pairs), tuple(e for _, e in pairs)


def paine_two_call_solve(n, count):
    return two_call_solve(paine_schrodinger(PaineSpec(1.0, 0.1)), n, count)


@pytest.mark.parametrize("n", [200, 401])
def test_solve_spectrum_bit_identical_to_two_full_bisections(n, monkeypatch):
    counts = counting_kernel(monkeypatch)
    newton = counting_newton(monkeypatch)
    prob = paine_schrodinger(PaineSpec(1.0, 0.1))
    spectrum = solve_spectrum(prob, n, 5)
    assert (spectrum.eigenvalues, spectrum.error_estimates) == paine_two_call_solve(n, 5)
    # a Newton pass costs less than three counts
    cost = {size: [rows for rows, _ in counts].count(size)
            + 3 * newton[size] for size in (n, 2 * n + 1)}
    # both grids are seeded (the 50-point guess grid is at most half of
    # either), and skip most of a plain bisection's counts
    for size in (n, 2 * n + 1):
        assert cost[size] < counted_plain_bisection(discretize_schrodinger(prob, size), 5) / 2


def test_a_spectrum_without_own_windows_takes_fewer_counts_than_plain(monkeypatch):
    # case3-Y's canonical eigenvalues at 400 and 801 points lie within 7e-3
    # of 1.0, and most Newton centers from the guesses settle on a
    # neighbour; each path hands its eigenvalue to Newton once the counts
    # part the cluster, and the guess grid's paths do the same
    from slpkit.inverse import build_case
    prob = build_case("case3-Y", PaineSpec(1.0, 0.1), q0=1.0, r0=1.0, x0=0.25).canonical
    counts = counting_kernel(monkeypatch)
    newton = counting_newton(monkeypatch)
    spectrum = solve_spectrum(prob, 400, 5)
    monkeypatch.undo()
    assert (spectrum.eigenvalues, spectrum.error_estimates) == two_call_solve(prob, 400, 5)
    seeded = Counter(rows for rows, _ in counts)
    assert seeded == {50: 35, 400: 65, 801: 53}
    assert dict(newton) == {50: 16, 400: 42, 801: 26}
    # a plain bisection takes 73, 152 and 154 counts
    for size, tol in ((50, 1e-4), (400, 1e-10), (801, 1e-10)):
        assert seeded[size] < counted_plain_bisection(_assemble(prob, size), 5, tol)


# ---------------------------------------------------------------------------
# Newton-refined guesses: they move the windows, never the result


def test_newton_step_matches_the_dense_spectrum():
    # det'/det = -sum_k 1/(lambda_k - sigma), so a step is sigma + 1/that sum
    T = discretize_schrodinger(paine_schrodinger(PaineSpec(1.0, 0.1)), 60)
    exact = np.linalg.eigvalsh(T.dense())
    rows, pivmin = _sturm_rows(T)
    # the last shift is within 1e-6 of the first eigenvalue
    for sigma in (0.5, 3.0, 10.0, 40.0, float(exact[0]) + 7e-7):
        expected = sigma + 1.0 / float(np.sum(1.0 / (exact - sigma)))
        assert _newton_step(rows, pivmin, sigma) == pytest.approx(expected, rel=1e-12)
    # at sigma = 1 the first pivot is exactly 0 and is clamped to -pivmin;
    # the block it ends is decoupled, so 1 is an eigenvalue, where the
    # dense step is 0 (one term of the sum is infinite)
    T = SymTridiag(np.array([1.0, 3.0, 4.0]), np.array([0.0, 1.0]))
    rows, pivmin = _sturm_rows(T)
    assert _newton_step(rows, pivmin, 1.0) == 1.0
    exact = np.linalg.eigvalsh(T.dense())
    for sigma in (2.5, 1.0 - 3e-7):
        expected = sigma + 1.0 / float(np.sum(1.0 / (exact - sigma)))
        assert _newton_step(rows, pivmin, sigma) == pytest.approx(expected, rel=1e-12)


def reference_newton_step(rows, pivmin, sigma):
    """_newton_step as it was written before the minors step, with the
    chained clamp; and whether the clamp moved a pivot."""
    npiv = -pivmin
    q = 1.0
    t = 0.0
    s = 0.0
    clamped = False
    for di, ei in rows:
        r = ei / q
        q = di - sigma - r
        if npiv < q < pivmin:
            q = npiv
            clamped = True
        t = (r * t - 1.0) / q
        s += t
    return (sigma - 1.0 / s if 0.0 < abs(s) < math.inf else math.nan), clamped


def assert_newton_step_matches_reference(T, shifts):
    """Hex for hex where no pivot is clamped; the minors step where one is."""
    from slpkit.eigensolver import _minors_step
    rows, pivmin = _sturm_rows(T)
    for sigma in shifts:
        expected, clamped = reference_newton_step(rows, pivmin, sigma)
        got = _newton_step(rows, pivmin, sigma)
        assert got.hex() == (_minors_step(rows, sigma) if clamped else expected).hex()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_newton_step_matches_its_reference_form(data):
    T = data.draw(tridiagonals())
    pivmin = _sturm_rows(T)[1]
    # shifts on the diagonal entries make zero pivots, and d -+ pivmin on a
    # zero entry a pivot of exactly +-pivmin, which no clamp moves
    edge = [d + k * pivmin for d in T.diag.tolist() + [0.0] for k in (-1.0, 1.0)]
    pool = st.one_of(st.sampled_from(T.diag.tolist()), st.sampled_from(edge), entries)
    assert_newton_step_matches_reference(T, data.draw(st.lists(pool, min_size=1, max_size=8)))


@pytest.mark.parametrize("pivot", [TINY, -TINY, 0.5 * TINY, -0.5 * TINY, 0.0, -0.0, 2.0 * TINY])
def test_newton_step_matches_its_reference_form_at_the_pivmin_edge(pivot):
    # pivmin is TINY here; the first pivot and the second (its block is
    # decoupled from the first) are `pivot`, the third is coupled to it
    T = SymTridiag(np.array([pivot, pivot, 1.0]), np.array([0.0, 0.5]))
    assert_newton_step_matches_reference(T, [0.0, -0.0, 0.25, 3.0])


def test_newton_step_is_finite_at_a_zero_pivot_in_a_coupled_block():
    # at sigma = 2 the first pivot is exactly 0 and the clamp makes -pivmin
    # of it; r t then overflowed and the step was NaN.  The minors give it
    T = SymTridiag(np.array([2.0, 3.0, 5.0]), np.array([1.0, 1.0]))
    rows, pivmin = _sturm_rows(T)
    before, clamped = reference_newton_step(rows, pivmin, 2.0)
    assert clamped and math.isnan(before)
    exact = np.linalg.eigvalsh(T.dense())
    dense = 2.0 + 1.0 / float(np.sum(1.0 / (exact - 2.0)))
    assert dense == pytest.approx(-1.0, rel=1e-12)
    assert _newton_step(rows, pivmin, 2.0) == pytest.approx(dense, rel=1e-12)
    # the Paine matrix shifted by its first diagonal entry: a zero first
    # pivot, coupled to all the rows after it
    T = discretize_schrodinger(paine_schrodinger(PaineSpec(1.0, 0.1)), 60)
    rows, pivmin = _sturm_rows(T)
    sigma = float(T.diag[0])
    assert reference_newton_step(rows, pivmin, sigma)[1]
    exact = np.linalg.eigvalsh(T.dense())
    dense = sigma + 1.0 / float(np.sum(1.0 / (exact - sigma)))
    assert math.isfinite(_newton_step(rows, pivmin, sigma))
    assert _newton_step(rows, pivmin, sigma) == pytest.approx(dense, rel=1e-12)


def test_a_center_settled_outside_its_isolating_bracket_takes_no_count(monkeypatch):
    from slpkit import eigensolver
    from slpkit.eigensolver import _window
    T = discretize_schrodinger(free_particle(), 99)
    rows, pivmin = _sturm_rows(T)
    exact = [laplacian_eigenvalue(PI, 99, j) for j in range(1, 5)]
    tol, tight = 1e-11, 1e-9
    # counts between the eigenvalues hold the second alone in (lo[1], hi[1])
    lo = [-math.inf] * 4
    hi = [math.inf] * 4
    for a, b in zip(exact, exact[1:]):
        _hold(lo, hi, 0.5 * (a + b), sturm_count(T, 0.5 * (a + b)))
    assert hi[0] <= lo[1] < exact[1] < hi[1] <= lo[2]
    held = (list(lo), list(hi))
    # Newton from the third eigenvalue settles there, above hi[1]
    counts = counting_kernel(monkeypatch)
    _window(rows, pivmin, _start(T), tol, tight, lo, hi, 1, exact[2], 1e-3 * (hi[1] - lo[1]))
    assert counts == [] and (lo, hi) == held
    # a center one tol above an upper bound 3 tol above the eigenvalue:
    # its lower rungs would reach inside the bounds and be counted
    _hold(lo, hi, exact[1] + 3.0 * tol, sturm_count(T, exact[1] + 3.0 * tol))
    held = (list(lo), list(hi))
    monkeypatch.setattr(eigensolver, "_settle", lambda rows, pivmin, guess, limit: guess)
    center = hi[1] + tol
    left, right = path_end(T, center, tol)
    assert lo[1] < path_end(T, center - (right - left), tol)[0] < hi[1]
    _window(rows, pivmin, _start(T), tol, tight, lo, hi, 1, center, 0.0)
    assert counts == [] and (lo, hi) == held
    # a bisection whose every isolated center lands outside its bracket
    # takes the counts of a plain one, and ends on its midpoints
    centers = []

    def outside(rows, pivmin, guess, limit):
        centers.append(guess)
        return 1e9

    monkeypatch.setattr(eigensolver, "_settle", outside)
    assert eig_bisect(T, 3, tol) == oracle_eig_bisect(T, 3, tol)
    assert len(centers) == 3 and len(counts) == counted_plain_bisection(T, 3, tol)


def test_refined_windows_hold_tightly_on_paine(monkeypatch):
    from slpkit.eigensolver import _EPS, _guesses
    prob = paine_schrodinger(PaineSpec(1.0, 0.1))
    T = discretize_schrodinger(prob, 2000)
    tol = 1e-10
    tight = max(_EPS * (float(np.abs(T.diag).max()) + 2.0 * float(np.abs(T.offdiag).max())), tol)
    assert tight > 3.0 * tol
    # the guesses solve_spectrum takes for the 2000-point grid: 250 points
    lo, hi, shifts = counted_windows(monkeypatch, T, _guesses(prob, 250, 5), tol, tight)
    assert all(map(math.isfinite, lo + hi))
    assert_bounds_certified(T, lo, hi, shifts)
    # two counts per window, and each window is the bracket a plain
    # bisection ends on: the first four centers' path ends both hold; the
    # fifth center sits 0.76 tol above the count's switch, so its lower
    # path end fails and is the upper bound, and the node below c - w holds
    assert len(shifts) == 10
    plain = eig_bisect(T, 5)
    assert all(h - l <= tol and 0.5 * (l + h) == p for l, h, p in zip(lo, hi, plain))


def test_paine_richardson_solve_counts(monkeypatch):
    counts = counting_kernel(monkeypatch)
    newton = counting_newton(monkeypatch)
    solve_spectrum(paine_schrodinger(PaineSpec(1.0, 0.1)), 2000, 5)
    # on the 2000-point grid the windows take two counts per eigenvalue; on
    # the 4001-point grid the centers lie within the count's rounding region
    # (tight is about 14 tol), so more path ends fail, and the nodes next
    # to them hold.  The fine grid's guesses, predicted from the 250- and
    # 2000-point eigenvalues, are within about 1e-6 and settle in one
    # Newton step each.  The 250-point guess grid has no guesses; its
    # bisection hands each eigenvalue to Newton once the counts show it
    # alone in its bracket, about three steps each (a plain bisection to
    # its tol 1e-4 took 94 counts)
    assert Counter(rows for rows, _ in counts) == {250: 39, 2000: 10, 4001: 17}
    assert dict(newton) == {250: 17, 2000: 10, 4001: 5}
    # the canonical case4 (C1 = 2) problem takes about two counts per
    # eigenvalue on either grid (its plain guess grid took 100)
    from slpkit.inverse import build_case
    counts.clear()
    newton.clear()
    solve_spectrum(build_case("case4", PaineSpec(1.0, 0.1), C1=2.0).canonical, 2000, 5)
    assert Counter(rows for rows, _ in counts) == {250: 27, 2000: 10, 4001: 11}
    assert dict(newton) == {250: 21, 2000: 10, 4001: 5}


def test_guesses_that_never_settle_cost_no_count(monkeypatch):
    from slpkit import eigensolver
    T = discretize_schrodinger(paine_schrodinger(PaineSpec(1.0, 0.1)), 200)
    rows, pivmin = _sturm_rows(T)
    counts = counting_kernel(monkeypatch)
    # no Newton step settles, here or where a path isolates its eigenvalue
    monkeypatch.setattr(eigensolver, "_NEWTON_STEPS", 0)
    plain = eig_bisect(T, 5)
    plain_counts = list(counts)
    assert len(plain_counts) == counted_plain_bisection(T, 5)
    counts.clear()
    lo = [-math.inf] * 5
    hi = [math.inf] * 5
    _windows(rows, pivmin, plain, 1e-10, 1e-9, _start(T), lo, hi)
    assert counts == []
    assert lo == [-math.inf] * 5 and hi == [math.inf] * 5
    # with no windows the seeded bisection is the plain one, count for count
    assert eig_bisect(T, 5, _near=plain) == plain == oracle_eig_bisect(T, 5)
    assert counts == plain_counts


def test_an_unsolvable_guess_grid_changes_nothing(monkeypatch):
    from slpkit import eigensolver
    # a dip of p at a midpoint of the 50-point guess grid that no midpoint
    # of the 400-point grid comes near
    dip = 10.5 / 51
    prob = CanonicalSLP(parse(f"1 - 1.5*exp(-((x-{dip!r})/0.00001)^2)"),
                        parse("0"), parse("1"), 0.0, 1.0)
    with pytest.raises(SolverError):
        discretize_canonical(prob, 50)
    assert eigensolver._guesses(prob, 50, 3) is None
    seeded = solve_spectrum(prob, 400, 3)
    monkeypatch.setattr(eigensolver, "_guesses", lambda problem, m, count, map_: None)
    assert solve_spectrum(prob, 400, 3) == seeded


def test_a_grid_the_scheme_refuses_fails_before_any_guess_work(monkeypatch):
    # p dips below zero at a midpoint of the 1999-point grid: the solve is
    # refused there, without solving its 249-point guess grid first
    from slpkit import eigensolver
    dip = CanonicalSLP(parse("1 - 1.5*exp(-((x-0.50225)/0.0001)^2)"),
                       parse("0"), parse("1"), 0.0, 1.0)

    def refuse(problem, m, count, map_):
        raise AssertionError(f"{m}-point guess grid solved for a refused grid")

    monkeypatch.setattr(eigensolver, "_guesses", refuse)
    with pytest.raises(SolverError, match="nonpositive p"):
        solve_spectrum(dip, 1999, 5)


# ---------------------------------------------------------------------------
# assembly errors: the first failing point in today's order, whatever the
# order in which the coefficients are evaluated

ASSEMBLY_FAILURES = {
    # p <= 0 at the first midpoint; p also raises, at midpoints past 0.7
    "p nonpositive before p raises": (
        ("x - 0.3 + 0*ln(0.7 - x)", "0", "1"),
        "nonpositive p = -0.25 at midpoint x=0.05"),
    # r raises at node 0.5 (index 4), q only from node 0.8 (index 7) on: q
    # and r are evaluated interleaved per node, so r's error comes first
    "r raises before q raises": (
        ("1", "sqrt(0.75 - x)", "sqrt(0.45 - x)"),
        "q/r evaluation failed at x=0.5: sqrt of negative argument in "
        "'sqrt(0.45-x)' at 0.5"),
    # r <= 0 at the first node; q raises from node 0.8 on
    "r nonpositive before q raises": (
        ("1", "ln(0.75 - x)", "x - 0.35"),
        "nonpositive r = -0.24999999999999997 at node x=0.1"),
    # q raises at node 0.5, where r is first nonpositive: q's error, since
    # the sign of r counts only at nodes where q and r both gave values
    "q raises where r turns nonpositive": (
        ("1", "sqrt(0.45 - x)", "0.45 - x"),
        "q/r evaluation failed at x=0.5: sqrt of negative argument in "
        "'sqrt(0.45-x)' at 0.5"),
    # q and r both raise at node 0.5: q is evaluated first there
    "q and r raise at one node": (
        ("1", "sqrt(0.45 - x)", "1 + ln(0.45 - x)*0"),
        "q/r evaluation failed at x=0.5: sqrt of negative argument in "
        "'sqrt(0.45-x)' at 0.5"),
    # every batch succeeds; only the sign check fails
    "p nonpositive": (("x - 0.3", "0", "1"), "nonpositive p = -0.25 at midpoint x=0.05"),
    "r nonpositive": (("1", "x", "0.35 - x"),
                      "nonpositive r = -0.050000000000000044 at node x=0.4"),
    "q nonfinite": (
        ("1", "x*1e308 + x*1e308", "1"),
        "q/r evaluation failed at x=0.9: nonfinite result in "
        "'x*1e+308+x*1e+308' at 0.9"),
    "p nonfinite": (
        ("1 + x*1e308*2", "0", "1"),
        "p evaluation failed at x=0.9500000000000001: nonfinite result in "
        "'1+x*1e+308*2' at 0.9500000000000001"),
}


@pytest.mark.parametrize("name", ASSEMBLY_FAILURES)
def test_assembly_reports_the_first_failing_point(name):
    (p, q, r), message = ASSEMBLY_FAILURES[name]
    problem = CanonicalSLP(parse(p), parse(q), parse(r), 0.0, 1.0)
    with pytest.raises(SolverError) as err:
        discretize_canonical(problem, 9)
    assert str(err.value) == message


def test_a_failing_batch_keeps_the_values_before_the_failing_point(monkeypatch):
    # q raises at the last few of 40,001 nodes: the walk starts where the
    # batch failed instead of evaluating the 39 good blocks again point by point
    from slpkit.expr import ExpressionAST
    calls = Counter()
    evaluate = ExpressionAST.evaluate

    def counting(self, x):
        calls[self.to_text()] += 1
        return evaluate(self, x)

    problem = CanonicalSLP(parse("1"), parse("sqrt(0.9999 - x)"), parse("1"), 0.0, 1.0)
    monkeypatch.setattr(ExpressionAST, "evaluate", counting)
    with pytest.raises(SolverError) as err:
        discretize_canonical(problem, 40_001)
    assert str(err.value) == ("q/r evaluation failed at x=0.99990000499975: sqrt of negative "
                              "argument in 'sqrt(0.9999-x)' at 0.99990000499975")
    assert sum(calls.values()) <= 1024


def test_potential_assembly_reports_the_first_failing_point():
    # 1/(t-0.3) is finite at every node; sqrt(t-0.25) raises on the first two
    problem = SchrodingerSLP(parse("1/(t-0.3) + 0*sqrt(t-0.25)", "t"), 0.0, 1.0)
    with pytest.raises(SolverError) as err:
        discretize_schrodinger(problem, 9)
    assert str(err.value) == ("potential evaluation failed at t=0.1: sqrt of negative "
                              "argument in 'sqrt(t-0.25)' at 0.1")


def test_integer_valued_coefficients_assemble_as_floats():
    # a tree built without parse may hold int constants; the batches give
    # ints then, and assembly stores them as the floats they equal
    from slpkit.expr import Const, ExpressionAST
    ints = [ExpressionAST(Const(v)) for v in (2, 3, 1)]
    floats = [ExpressionAST(Const(float(v))) for v in (2, 3, 1)]
    for build, assemble in ((lambda c: CanonicalSLP(*c, 0.0, 1.0), discretize_canonical),
                            (lambda c: SchrodingerSLP(ExpressionAST(c[0].root, "t"), 0.0, 1.0),
                             discretize_schrodinger)):
        got, want = assemble(build(ints), 5), assemble(build(floats), 5)
        assert got.diag.dtype == got.offdiag.dtype == np.float64
        assert got.diag.tobytes() == want.diag.tobytes()
        assert got.offdiag.tobytes() == want.offdiag.tobytes()


def test_assembly_and_validation_evaluate_no_point_alone(monkeypatch):
    # both forms, through the batch path only: a later change that fell back
    # to the per-point loop on every call would fail here
    from slpkit.expr import ExpressionAST
    from slpkit.inverse import build_case
    from slpkit.problems import validate
    spec = PaineSpec(1.0, 0.1)
    canonical = build_case("case4", spec, C1=2.0).canonical
    schrodinger = paine_schrodinger(spec)

    def refuse(self, x):
        raise AssertionError(f"evaluate({x!r}) called on {self}")

    monkeypatch.setattr(ExpressionAST, "evaluate", refuse)
    assert validate(canonical) == [] and validate(schrodinger) == []
    assert discretize_canonical(canonical, 400).n == 400
    assert discretize_schrodinger(schrodinger, 400).n == 400
    assert len(solve_spectrum(canonical, 400, 3).eigenvalues) == 3
    # a sign that fails where every batch succeeded is read from the batch
    for name in ("p nonpositive", "r nonpositive"):
        (p, q, r), message = ASSEMBLY_FAILURES[name]
        with pytest.raises(SolverError) as err:
            discretize_canonical(CanonicalSLP(parse(p), parse(q), parse(r), 0.0, 1.0), 9)
        assert str(err.value) == message


@pytest.mark.parametrize("form, bound", [("canonical", 80), ("schrodinger", 56)])
def test_assembly_holds_one_list_of_values_at_a_time(form, bound):
    # bytes per point: each batch's list of values (32 bytes per value)
    # becomes an array before the next batch runs, beside the arrays of
    # the points and of the values before it (8 bytes each per point; the
    # canonical form keeps two point arrays and three value arrays).
    # Holding the points and every batch as lists took 220 bytes per point
    # for the canonical form and 82 for the Schrodinger form
    import tracemalloc
    from slpkit.inverse import build_case
    spec = PaineSpec(1.0, 0.1)
    if form == "canonical":
        problem, assemble = build_case("case4", spec, C1=2.0).canonical, discretize_canonical
    else:
        problem, assemble = paine_schrodinger(spec), discretize_schrodinger
    n = 40_001
    assemble(problem, 50)  # compiled outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T = assemble(problem, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert T.n == n
    assert peak <= bound * n, f"{peak / n:.1f} bytes per point"


# ---------------------------------------------------------------------------
# the canonical side of spectral_match: meshes uniform in the map's t


def test_the_coarse_t_mesh_is_every_other_node_of_the_fine_one():
    # h_f = h_c / 2 exactly, so t_{2i} on the fine mesh is t_i on the
    # coarse one, and the map gives the same x there: the closed-form map
    # of the paper's case1 problem (k = 1, m = 0.1), and the tabulated map
    # of its forward transform
    from slpkit.eigensolver import _t_nodes
    from slpkit.inverse import build_case
    from slpkit.liouville import forward_transform
    result = build_case("case1", PaineSpec(1.0, 0.1))
    tabulated = forward_transform(result.canonical, 1e-10)[1]
    for map_ in (result.map, tabulated):
        for n in (7, 200, 2000):
            coarse, fine = _t_nodes(map_, n), _t_nodes(map_, 2 * n + 1)
            assert len(fine) == 2 * n + 1
            assert coarse.tobytes() == fine[1::2].tobytes(), (map_, n)


@pytest.mark.parametrize("label, spec, params", SPECTRAL_CASES)
def test_seeds_from_the_limits_move_no_eigenvalue(label, spec, params, monkeypatch):
    from slpkit.inverse import build_case
    result = build_case(label, spec, **params)
    limits = solve_spectrum(paine_schrodinger(spec), 2000, 5).eigenvalues
    newton = counting_newton(monkeypatch)
    seeded = solve_spectrum(result.canonical, 2000, 5, _map=result.map, _limits=limits)
    # the coarse grid's seeds are within about 1e-6: one step settles each
    # (from the guess grid's eigenvalues it takes 10 to 15 steps)
    assert newton[2000] == 5
    plain = solve_spectrum(result.canonical, 2000, 5, _map=result.map)
    for got, want in ((seeded.eigenvalues, plain.eigenvalues),
                      (seeded.error_estimates, plain.error_estimates)):
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_a_seeded_t_mesh_solve_is_two_full_bisections():
    # the paper's problem on 400 and 801 points uniform in t, against the
    # bisection that counts every midpoint; its limits are off by the
    # Schrodinger side's own error, as in spectral_match
    from slpkit.eigensolver import _on_nodes, _t_nodes
    from slpkit.inverse import build_case
    result = build_case("case1", PaineSpec(1.0, 0.1))
    problem, n = result.canonical, 400
    limits = solve_spectrum(paine_schrodinger(PaineSpec(1.0, 0.1)), n, 5).eigenvalues
    spectrum = solve_spectrum(problem, n, 5, _map=result.map, _limits=limits)
    lam_n = oracle_eig_bisect(_on_nodes(problem, _t_nodes(result.map, n)), 5)
    lam_2n = oracle_eig_bisect(_on_nodes(problem, _t_nodes(result.map, 2 * n + 1)), 5)
    assert list(spectrum.eigenvalues) == [(4.0 * l2 - l1) / 3.0 for l1, l2 in zip(lam_n, lam_2n)]


def test_t_mesh_assembly_failures_name_the_t():
    from slpkit.liouville import TransformMap
    problem = CanonicalSLP(parse("1"), parse("0"), parse("1"), 0.0, 1.0)
    identity = (parse("x"), (0.0, 1.0), (0.0, 1.0))
    # a closed-form x(t) that raises at the t-mesh point t = 0.5 (n = 3)
    failing = TransformMap.closed_form(identity[0], parse("0.5 + 0*ln(0.5 - t)", "t"),
                                       *identity[1:])
    with pytest.raises(SolverError) as err:
        solve_spectrum(problem, 3, 1, _map=failing)
    assert str(err.value) == ("x(t) failed on the t-mesh: ln of nonpositive argument in "
                              "'ln(0.5-t)' at 0.5")
    # a tabulated x(t) whose Newton iteration cannot resolve t: at x ~ 1000
    # a 1e-6 cell leaves the best point ~6e-8 off in t
    steep = TransformMap.tabulated([1000.0, 1000.0 + 1e-6], [0.0, 1.0], [1e6, 1e6])
    with pytest.raises(SolverError, match=r"did not converge at t=0\.25"):
        solve_spectrum(problem, 3, 1, _map=steep)
    # an x(t) that runs backwards gives no mesh
    backwards = TransformMap.closed_form(identity[0], parse("1 - t", "t"), *identity[1:])
    with pytest.raises(SolverError, match=r"mesh node x=0\.5 is not above x=0\.75"):
        solve_spectrum(problem, 3, 1, _map=backwards)
