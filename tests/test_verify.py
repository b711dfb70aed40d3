import math

import pytest

from slpkit.expr import ExprError, parse
from slpkit.inverse import InverseResult, ValidityInfo, build_case
from slpkit.liouville import TransformMap, invariant_at_x
from slpkit.problems import CanonicalSLP, PaineSpec, paine_schrodinger
from slpkit.verify import (_residual_profile, asymptotic_profile, roundtrip_invariant,
                           spectral_match)

PI = math.pi


def test_roundtrip_exact_cases():
    spec = PaineSpec(1.0, 0.1)
    assert roundtrip_invariant(build_case("case4", spec, C1=2.0), spec) <= 1e-8
    spec2 = PaineSpec(2.0, 0.1)
    res = build_case("case1", spec2, r0=1.0)
    assert roundtrip_invariant(res, spec2) <= 1e-8


def test_roundtrip_asymptotic_case_is_reported_not_small():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case2-C1", spec, q0=2.0)
    residual = roundtrip_invariant(res, spec)
    assert math.isfinite(residual)
    assert residual > 1e-3  # genuinely asymptotic, not exact


@pytest.mark.parametrize("label, k, params", [
    ("case4", 1.0, {"C1": 2.0}),
    ("case3-J", 0.75, {"q0": 1.0, "r0": 1.0}),
    ("case2-C1", 1.0, {"q0": 2.0}),
])
def test_residual_profile_matches_the_point_by_point_loop(label, k, params):
    # the batches give each residual the bits of one invariant_at_x and one
    # reference evaluation per t
    spec = PaineSpec(k, 0.1)
    result = build_case(label, spec, **params)
    reference = paine_schrodinger(spec).invariant
    alpha, beta = result.map.domain_t
    expected = []
    for j in range(1, 102):
        t = alpha + (beta - alpha) * j / 102
        value = invariant_at_x(result.canonical, result.map.x_of_t(t))
        expected.append((t, abs(value - reference.evaluate(t))))
    assert repr(_residual_profile(result, spec, 101)) == repr(expected)


@pytest.mark.parametrize("q, culprit", [
    # I(x(t)) and the reference both fail at the ninth t: I's error
    ("1/(x + 0.09999999999999998)", "'1/(x+"),
    # the reference fails at the ninth t, I(x(t)) only from the fourteenth
    ("sqrt(0.5 - x)", "'1/(t+"),
    # I(x(t)) fails at the seventh t, before the reference
    ("sqrt(-0.5 - x)", "'sqrt(-0.5-x)'"),
])
def test_residual_profile_raises_the_first_failure_of_the_point_by_point_loop(q, culprit):
    # with p = r = 1 and t = x, I is q; the reference k/(t+m)^2 divides by
    # zero at the ninth of 19 points, t = -m
    samples = 19
    ts = [-1.0 + 2.0 * j / (samples + 1) for j in range(1, samples + 1)]
    spec = PaineSpec(1.0, -ts[8])
    canonical = CanonicalSLP(parse("1"), parse(q), parse("1"), -1.0, 1.0)
    ident = TransformMap.closed_form(parse("x"), parse("t", "t"), (-1.0, 1.0), (-1.0, 1.0))
    result = InverseResult(canonical=canonical, map=ident, exact=True,
                           validity=ValidityInfo(None, None, None, ()),
                           case_label="identity", extras={})
    reference = paine_schrodinger(spec).invariant
    with pytest.raises(ExprError) as want:
        for t in ts:
            invariant_at_x(canonical, ident.x_of_t(t))
            reference.evaluate(t)
    with pytest.raises(ExprError) as got:
        _residual_profile(result, spec, samples)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert culprit in str(got.value)


def test_roundtrip_rejects_too_few_samples():
    spec = PaineSpec(1.0, 0.1)
    with pytest.raises(ValueError):
        roundtrip_invariant(build_case("case4", spec, C1=2.0), spec, samples=5)


def test_spectral_match_case4_passes():
    spec = PaineSpec(1.0, 0.1)
    report = spectral_match(build_case("case4", spec, C1=2.0), spec, count=5, n=2000)
    assert report.passed and report.exact
    assert report.roundtrip_residual <= 1e-8
    assert len(report.spectral_gaps) == 5
    assert all(g <= b for g, b in zip(report.spectral_gaps, report.gap_budgets))


def test_spectral_match_case2_a1_passes():
    spec = PaineSpec(0.75, 0.1)
    report = spectral_match(build_case("case2-A1", spec, q0=1.0), spec, count=5, n=1000)
    assert report.passed


def test_spectral_match_asymptotic_reports_without_failing():
    spec = PaineSpec(0.75, 0.1)
    report = spectral_match(build_case("case3-J", spec, q0=1.0, r0=1.0),
                            spec, count=3, n=500)
    assert report.passed  # report-only
    assert not report.exact
    assert any("0.5" in w for w in report.trust_warnings)
    assert max(report.spectral_gaps) > 0.01  # and genuinely off


def test_spectral_match_identity_problem_gaps_vanish():
    # canonical problem that IS the reduced problem (p = r = 1, q = target):
    # both discretizations coincide, so gaps reflect only bisection width
    spec = PaineSpec(1.0, 0.1)
    q = parse("1/((x+0.1)^2)")
    canonical = CanonicalSLP(parse("1"), q, parse("1"), 0.0, PI)
    ident = TransformMap.closed_form(parse("x"), parse("t", "t"), (0.0, PI), (0.0, PI))
    result = InverseResult(canonical=canonical, map=ident, exact=True,
                           validity=ValidityInfo(None, None, None, ()),
                           case_label="identity", extras={})
    report = spectral_match(result, spec, count=5, n=600)
    assert max(report.spectral_gaps) <= 1e-9
    assert report.passed


def test_spectral_match_parameter_guards():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4", spec, C1=2.0)
    with pytest.raises(ValueError):
        spectral_match(res, spec, count=11)
    with pytest.raises(ValueError):
        spectral_match(res, spec, n=100)


def test_reports_are_deterministic():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4", spec, C1=2.0)
    a = spectral_match(res, spec, count=3, n=500)
    b = spectral_match(res, spec, count=3, n=500)
    assert a == b


def test_asymptotic_profile_rejects_exact_results():
    spec = PaineSpec(1.0, 0.1)
    with pytest.raises(ValueError):
        asymptotic_profile(build_case("case4", spec, C1=2.0), spec)


def test_asymptotic_profile_c1_expansion_point_value():
    # the cosine-family residual I(x(t)) - k/(t+m)^2 at the expansion point
    # tau = t + m = 1 is exactly -1/2 (I below k/tau^2): the map truncation
    # is second order, but the potential depends on second derivatives,
    # leaving q0 - mu^2 - 3/4 - k = -1/2 for every admissible (k, q0)
    # (k, m, q0, x0), and the first-order coefficient |res + 1/2| / |tau - 1|
    for (k, m, q0, x0), slope in (((1.0, 1.0, 2.0, 0.0), 4.0), ((0.5, 1.0, 1.0, 0.0), 3.0),
                                  ((2.0, 1.0, 4.0, 0.0), 6.0), ((0.25, 1.0, 3.0, 0.0), 7.5),
                                  ((2.0, 0.5, 5.0, 0.3), 8.0), ((0.5, 0.1, 0.8, -0.2), 2.6)):
        res = build_case("case2-C1", PaineSpec(k, m), q0=q0, x0=x0)
        t = 1.0 - m
        x_at_1 = res.map.x_of_t(t)
        residual = invariant_at_x(res.canonical, x_at_1) - k / (t + m)**2
        assert residual == pytest.approx(-0.5, abs=1e-9)

        # to first order in tau - 1, on each side of tau = 1 inside the
        # interval (m = 1 puts tau = 1 at its end t = 0)
        def offset(tau):
            x = res.map.x_of_t(tau - m)
            return abs(invariant_at_x(res.canonical, x) - k / tau**2 + 0.5)

        for side in (1.0, -1.0) if m < 1.0 else (1.0,):
            limit = offset(1.0 + side * 1e-4) / 1e-4
            assert limit == pytest.approx(slope, abs=0.05)
            for delta in (1e-2, 1e-3):
                assert offset(1.0 + side * delta) / delta == pytest.approx(limit, rel=0.1)

        # a q raised by 1e-3 fails the law: I moves by 1e-3 / r, r = tau^2 = 1
        c = res.canonical
        raised = CanonicalSLP(c.p, parse(f"({c.q}) + 0.001"), c.r, c.a, c.b)
        moved = invariant_at_x(raised, x_at_1) - invariant_at_x(c, x_at_1)
        assert moved == pytest.approx(1e-3, abs=1e-9)


def test_asymptotic_profile_shapes_and_regime_convergence():
    # small-argument branch: shrinking sqrt(|q0|/r0) tightens the residual
    spec = PaineSpec(0.75, 1.0)
    coarse = build_case("case3-J", spec, q0=0.01, r0=1.0)
    fine = build_case("case3-J", spec, q0=0.0001, r0=1.0)
    prof_coarse = asymptotic_profile(coarse, spec, samples=51)
    prof_fine = asymptotic_profile(fine, spec, samples=51)
    assert len(prof_coarse) == 51
    max_coarse = max(r for _, r in prof_coarse)
    max_fine = max(r for _, r in prof_fine)
    assert max_coarse <= 2e-2
    assert max_fine <= 2e-4
    assert max_fine < max_coarse


def test_asymptotic_profile_y_branch_deep_regime():
    # large-argument branch far from any Y zero: uniformly small residual
    spec = PaineSpec(0.75, 330.0)
    res = build_case("case3-Y", spec, q0=0.0025, r0=1.0)
    profile = asymptotic_profile(res, spec, samples=51)
    assert max(r for _, r in profile) <= 1e-2
