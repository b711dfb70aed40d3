import hashlib
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from slpkit import _serialize
from slpkit.inverse import (ConstructionError, _finish, build_case,
                            c_family_exact_displacement, case2_build,
                            gamma_triangle, indicial_roots)
from slpkit.expr import parse
from slpkit.liouville import TabulatedInvariant, invariant_at_x
from slpkit.problems import PaineSpec, validate
from slpkit.special import bessel_j_zeros, bessel_y_zeros

PI = math.pi


def roundtrip(result, spec, samples=101):
    sup = 0.0
    for j in range(1, samples + 1):
        t = PI * j / (samples + 1)
        x = result.map.x_of_t(t)
        sup = max(sup, abs(invariant_at_x(result.canonical, x)
                           - spec.k / (t + spec.m) ** 2))
    return sup


def assert_pinned(result):
    assert abs(result.map.t_of_x(result.canonical.a)) <= 1e-10
    assert abs(result.map.t_of_x(result.canonical.b) - PI) <= 1e-10


# ---------------------------------------------------------------------------
# indicial roots


def test_indicial_roots_classification():
    r = indicial_roots(2.0, 0.0)
    assert r.kind == "real-distinct"
    assert (r.rho1, r.rho2) == (2.0, -1.0)

    r = indicial_roots(0.75, 0.0)
    assert (r.rho1, r.rho2) == (1.5, -0.5)

    r = indicial_roots(0.0, 1.0)
    assert r.kind == "complex"
    assert r.mu == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    assert r.rho1 == 0.5

    r = indicial_roots(1.0, 1.25)
    assert r.kind == "equal" and r.mu == 0.0


def test_indicial_boundary_routes_to_equal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = float(rng.uniform(0.1, 8.0))
        q0 = k + 0.25  # discriminant exactly zero
        assert indicial_roots(k, q0).kind == "equal"
        res = case2_build(PaineSpec(k, 0.1), q0=q0)
        assert res.case_label == "case2-A1"


# ---------------------------------------------------------------------------
# case 1


def test_case1_plus_classical_displays():
    spec = PaineSpec(2.0, 0.1)
    res = build_case("case1", spec, r0=1.0, x0=0.0, branch="plus")
    assert res.exact
    assert res.canonical.a == pytest.approx(0.1**5 / 5.0, rel=1e-13)
    assert res.canonical.b == pytest.approx((PI + 0.1) ** 5 / 5.0, rel=1e-13)
    # p(x) = (5x)^(8/5)
    assert res.extras["p_exponent"] == pytest.approx(1.6, abs=1e-14)
    assert res.canonical.p.evaluate(1.0) == pytest.approx(5.0**1.6, rel=1e-13)
    assert res.extras["delta0"] == pytest.approx(0.1**4)
    assert roundtrip(res, spec) <= 1e-8
    assert_pinned(res)


def test_case1_minus_branch():
    spec = PaineSpec(2.0, 0.1)
    res = build_case("case1", spec, branch="minus")
    assert res.canonical.a < res.canonical.b < 0.0
    assert roundtrip(res, spec) <= 1e-8
    assert_pinned(res)
    assert validate(res.canonical) == []


def test_case1_k34_power_branch():
    spec = PaineSpec(0.75, 0.1)
    res = build_case("case1", spec, r0=1.0, k34_branch="power")
    assert res.canonical.a == pytest.approx(0.1**4 / 4.0, rel=1e-13)
    # p(x) = 8 sqrt(r0) x^(3/2)
    assert res.canonical.p.evaluate(1.0) == pytest.approx(8.0, rel=1e-13)
    assert res.canonical.p.evaluate(2.0) == pytest.approx(8.0 * 2.0**1.5, rel=1e-13)
    assert res.extras["delta0"] == pytest.approx(0.1**3)
    assert roundtrip(res, spec) <= 1e-8


def test_case1_k34_exponential_branch():
    spec = PaineSpec(0.75, 0.1)
    res = build_case("case1", spec, r0=1.0, k34_branch="exponential")
    assert res.canonical.a == pytest.approx(math.log(0.1), rel=1e-13)
    assert res.canonical.b == pytest.approx(math.log(PI + 0.1), rel=1e-13)
    assert res.canonical.p.evaluate(0.0) == pytest.approx(1.0)
    assert res.extras["delta0"] == pytest.approx(10.0)
    assert res.extras["gamma0"] == pytest.approx(1.0 / (PI + 0.1))
    assert roundtrip(res, spec) <= 1e-8


def test_case1_rationalized_identities():
    # the power and ratio identities behind the closed forms, both branches
    rng = np.random.default_rng(11)
    count = 0
    while count < 50:
        k = float(rng.uniform(0.0, 10.0))
        if k <= 0.0 or abs(k - 0.75) < 1e-3:
            continue
        count += 1
        root = math.sqrt(1.0 + 4.0 * k)
        for sign in (+1.0, -1.0):
            rho = 0.5 * (1.0 + sign * root)
            assert abs((2 * rho + 1) - (2 + sign * root)) <= 1e-12
            lhs = 4 * rho / (2 * rho + 1)
            rhs = 2 * (1 - 4 * k + sign * root) / (3 - 4 * k)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), k
            lhs = (2 * rho - 1) / (2 * rho + 1)
            rhs = (-(1 + 4 * k) + sign * 2 * root) / (3 - 4 * k)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), k


def test_case1_rejects_bad_parameters():
    spec = PaineSpec(2.0, 0.1)
    with pytest.raises(ConstructionError):
        build_case("case1", spec, r0=-1.0)
    with pytest.raises(ConstructionError):
        build_case("case1", spec, branch="sideways")


# ---------------------------------------------------------------------------
# case 2


def test_case2_a1_displays():
    spec = PaineSpec(0.75, 0.1)  # q0 = 1 forces k = 3/4
    res = case2_build(spec, q0=1.0)
    assert res.case_label == "case2-A1"
    assert res.canonical.a == pytest.approx(math.log(0.1), rel=1e-13)
    assert res.canonical.b == pytest.approx(math.log(PI + 0.1), rel=1e-12)
    assert res.extras["delta0"] == pytest.approx(0.1)
    assert res.extras["gamma0"] == pytest.approx(PI + 0.1)
    assert res.canonical.p.evaluate(0.3) == 1.0
    assert res.canonical.r.evaluate(0.5) == pytest.approx(math.exp(1.0), rel=1e-13)
    assert roundtrip(res, spec) <= 1e-8


def test_case2_a2_displays():
    spec = PaineSpec(0.75, 1.5)
    res = build_case("case2-A2", spec, q0=1.0)
    assert res.canonical.a == pytest.approx(math.log(1.5) ** 3 / 3.0, rel=1e-12)
    assert res.extras["delta0"] == pytest.approx(1.5 * math.log(1.5) ** 2, rel=1e-12)
    # p = (3(x+x0))^(4/3), r = exp(2 (3(x+x0))^(1/3)) at a sample point
    x = 0.4
    u = 3.0 * x
    assert res.canonical.p.evaluate(x) == pytest.approx(abs(u) ** (4.0 / 3.0), rel=1e-12)
    assert res.canonical.r.evaluate(x) == pytest.approx(
        math.exp(2.0 * u ** (1.0 / 3.0)), rel=1e-12)
    assert roundtrip(res, spec) <= 1e-8
    assert_pinned(res)


def test_case2_a2_flags_interior_singularity_below_m1():
    # for m < 1 the leading coefficient vanishes at an interior point
    res = build_case("case2-A2", PaineSpec(0.75, 0.1), q0=1.0)
    assert any("singular" in w for w in res.validity.warnings)


def test_case2_a2_rejects_m_equal_one():
    with pytest.raises(ConstructionError):
        build_case("case2-A2", PaineSpec(0.75, 1.0), q0=1.0)


def test_case2_b_displays():
    spec = PaineSpec(3.0, 0.1)  # with q0=1: rho = 2
    res = case2_build(spec, q0=1.0)
    assert res.case_label == "case2-B"
    assert res.extras["rho"] == pytest.approx(2.0)
    assert res.canonical.a == pytest.approx(0.1**3 / 3.0, rel=1e-12)
    assert res.canonical.b == pytest.approx((PI + 0.1) ** 3 / 3.0, rel=1e-12)
    assert res.canonical.p.evaluate(1.0) == pytest.approx(9.0, rel=1e-13)
    assert res.canonical.r.evaluate(1.0) == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-13)
    assert roundtrip(res, spec) <= 1e-8
    assert_pinned(res)


def test_case2_c1_construction():
    spec = PaineSpec(1.0, 0.1)
    res = case2_build(spec, q0=2.0)
    assert res.case_label == "case2-C1"
    assert not res.exact
    assert res.extras["mu"] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    assert res.canonical.a == pytest.approx(0.1 - 1.0)
    assert res.canonical.b == pytest.approx(PI + 0.1 - 1.0)
    assert res.validity.expansion_point == pytest.approx(0.9)
    assert any("trust" in w for w in res.validity.warnings)
    assert_pinned(res)


def test_case2_c2_construction():
    spec = PaineSpec(1.0, 1.2)
    res = build_case("case2-C2", spec, q0=2.0)
    assert not res.exact
    mu = res.extras["mu"]
    assert res.canonical.a == pytest.approx(mu * mu / 3.0 * 0.2**3, rel=1e-12)
    assert_pinned(res)
    # tau(x) inverts the cubic leading term
    x_mid = res.map.x_of_t(1.0)
    assert res.map.t_of_x(x_mid) == pytest.approx(1.0, abs=1e-12)


def test_case2_guard_violations():
    # C1: mu * ln(m) = -pi/2 with mu = 1 (k=1, q0=2.25)
    m = math.exp(-math.pi / 2.0)
    with pytest.raises(ConstructionError):
        build_case("case2-C1", PaineSpec(1.0, m), q0=2.25)
    # C2: mu * ln(m) = -pi with mu = 1
    m = math.exp(-math.pi)
    with pytest.raises(ConstructionError):
        build_case("case2-C2", PaineSpec(1.0, m), q0=2.25)
    # C2 at m = 1: the sine solution vanishes at the left endpoint
    with pytest.raises(ConstructionError):
        build_case("case2-C2", PaineSpec(1.0, 1.0), q0=2.0)


def test_case2_variant_mismatches():
    with pytest.raises(ConstructionError):
        build_case("case2-A1", PaineSpec(1.0, 0.1), q0=1.0)  # needs 1+4k = 4q0
    with pytest.raises(ConstructionError):
        build_case("case2-C1", PaineSpec(3.0, 0.1), q0=1.0)  # real-distinct
    with pytest.raises(ConstructionError):
        build_case("case2-B", PaineSpec(1.0, 0.1), q0=2.0)  # complex
    with pytest.raises(ConstructionError):
        case2_build(PaineSpec(1.0, 0.1), q0=0.0)


def _zero_warnings(result):
    return [w for w in result.validity.warnings if w.startswith("p vanishes")]


def _capped(listed, total):
    return listed[:10] + [f"p vanishes at {total - 10} more points inside the interval"]


@pytest.mark.parametrize("label, m, offset, family", [
    ("case2-C1", 0.1, 0.5, "cosine"),
    ("case2-C2", 1.2, 0.0, "sine"),
])
def test_c_family_zero_warnings_list_ten_and_count_the_rest(label, m, offset, family):
    res = build_case(label, PaineSpec(1.0, m), q0=1e6)
    mu = res.extras["mu"]
    # every zero of the oscillatory factor, mu ln(tau) = pi (n - offset), one by one
    lo, hi = m, PI + m
    taus = [math.exp((n - offset) * PI / mu)
            for n in range(math.ceil(mu * math.log(lo) / PI + offset),
                           math.floor(mu * math.log(hi) / PI + offset) + 1)]
    listed = [f"p vanishes inside the interval ({family} zero at t = {tau - m!r})"
              for tau in taus if lo < tau < hi]
    assert len(listed) > 400
    assert _zero_warnings(res) == _capped(listed, len(listed))


@pytest.mark.parametrize("kind, zeros_of", [("J", bessel_j_zeros), ("Y", bessel_y_zeros)])
def test_case3_zero_warnings_list_ten_and_count_the_rest(kind, zeros_of):
    res = build_case(f"case3-{kind}", PaineSpec(0.75, 0.1), q0=1e3, r0=1.0)
    lo, hi = res.extras["tau_bar_min"], res.extras["tau_bar_max"]
    listed = [f"p vanishes inside the interval ({kind} zero at scaled argument {z!r})"
              for z in zeros_of(1.0, lo - 1.0, hi + 1.0) if lo < z < hi]
    assert len(listed) > 20
    assert _zero_warnings(res) == _capped(listed, len(listed))


def test_zero_warnings_stay_bounded_as_q0_grows():
    # ~1.1e10 interior zeros: listing them one by one would exhaust memory
    start = time.perf_counter()
    res = build_case("case2-C1", PaineSpec(1.0, 0.1), q0=1e20)
    assert time.perf_counter() - start < 0.25
    zeros = _zero_warnings(res)
    assert len(zeros) == 11
    count = re.fullmatch(r"p vanishes at (\d+) more points inside the interval", zeros[-1])
    assert int(count.group(1)) > 10**10
    # plus the truncation and trust-radius warnings
    assert len(res.validity.warnings) == 13


def test_c_family_truncation_orders():
    mu = math.sqrt(3.0) / 2.0
    # cosine family: x(tau) - (tau-1) is second order, ratio stays bounded
    ratios = []
    for tau in (1.1, 1.05, 1.025):
        disp = c_family_exact_displacement(mu, tau, "C1")
        ratios.append(abs(disp - (tau - 1.0)) / (tau - 1.0) ** 2)
    assert all(r <= 1.0 for r in ratios)
    # sine family: leading cubic coefficient approaches mu^2/3
    tau = 1.025
    disp = c_family_exact_displacement(mu, tau, "C2")
    coeff = disp / (tau - 1.0) ** 3
    assert abs(coeff - mu * mu / 3.0) <= 0.05 * mu * mu / 3.0


# ---------------------------------------------------------------------------
# case 3


def test_gamma_triangle_value():
    # nu = 1: 1/G = 1/Gamma(2)^2 - 1/(Gamma(1) Gamma(3)) = 1 - 1/2
    assert gamma_triangle(1.0) == pytest.approx(2.0, rel=1e-12)
    # closed form nu^2 (1+nu) Gamma(nu)^2 for spot checks
    from slpkit.special import gamma_fn
    for nu in (0.5, 1.0, 1.7, 2.5):
        assert gamma_triangle(nu) == pytest.approx(
            nu * nu * (1 + nu) * gamma_fn(nu) ** 2, rel=1e-11)


def test_case3_j_endpoints_and_trust():
    spec = PaineSpec(0.75, 0.1)
    res = build_case("case3-J", spec, q0=1.0, r0=1.0)
    assert not res.exact
    # a = (1/G) * (m/r0) * (m/2 * s)^(1 + 2 nu) with G=2, nu=1, s=1
    assert res.canonical.a == pytest.approx(0.5 * 0.1 * 0.05**3, rel=1e-12)
    assert res.extras["nu"] == pytest.approx(1.0)
    assert res.extras["gamma_triangle"] == pytest.approx(2.0, rel=1e-12)
    assert any("0.5" in w for w in res.validity.warnings)
    assert_pinned(res)
    assert validate(res.canonical) == []


@pytest.mark.parametrize("k, sups", [
    (0.75, [0.2922, 0.1239, 0.0578, 0.0330, 0.0231, 0.0188]),
    (2.0, [0.1724, 0.0683, 0.0313, 0.0178, 0.0124, 0.0101]),
])
def test_case3_j_relative_residual_decays_toward_its_anchor(k, sups):
    # sup of |I(x(t)) - k/(t+m)^2| / (k/(t+m)^2) over (0, T], T halving from
    # the trust region's 0.4: it falls at about first order at first, then
    # more slowly toward the anchor t = 0; whether that slowing is a defect
    # of the small-argument builder is still open (ROADMAP.md, asymptotic
    # builders)
    res = build_case("case3-J", PaineSpec(k, 0.1), q0=1.0, r0=1.0)
    invariant = TabulatedInvariant(res.canonical, res.map)
    got = []
    for T in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125):
        ts = np.linspace(0.0, T, 201)[1:]
        values, err = invariant.evaluate_many(ts)
        assert err is None
        target = k / (ts + 0.1) ** 2
        got.append(np.max(np.abs(values - target) / target).item())
    assert got == pytest.approx(sups, rel=1e-2)
    assert all(wide > narrow for wide, narrow in zip(got, got[1:]))
    # the check sees q: q raised by 1e-3 moves I by 1e-3/r, and r = 1
    raised = replace(res.canonical, q=parse(f"({res.canonical.q.to_text()})+0.001"))
    ts = [0.05, 0.2, 0.4]
    moved = TabulatedInvariant(raised, res.map).evaluate_many(ts)[0] - invariant.evaluate_many(ts)[0]
    assert res.canonical.r.to_text() == "1"
    assert np.abs(moved - 1e-3).max() <= 1e-9


def test_case3_y_endpoints():
    spec = PaineSpec(0.75, 0.1)
    res = build_case("case3-Y", spec, q0=1.0, r0=1.0)
    assert res.canonical.a == pytest.approx(0.1 / PI, rel=1e-13)
    assert res.canonical.b == pytest.approx((PI + 0.1) / PI, rel=1e-13)
    assert not res.exact
    assert any("large-argument" in w for w in res.validity.warnings)
    assert_pinned(res)


def test_case3_bessel_zero_guards():
    # J: s*(pi+m) hits j_{1,1} = 3.8317...
    m = 3.8317059702075125 - PI
    with pytest.raises(ConstructionError):
        build_case("case3-J", PaineSpec(0.75, m), q0=1.0, r0=1.0)
    # Y: s*m hits y_{1,1} = 2.19714...
    with pytest.raises(ConstructionError):
        build_case("case3-Y", PaineSpec(0.75, 2.197141326031017), q0=1.0, r0=1.0)


def test_case3_rejects_bad_parameters():
    spec = PaineSpec(0.75, 0.1)
    with pytest.raises(ConstructionError):
        build_case("case3-J", spec, q0=0.0, r0=1.0)
    with pytest.raises(ConstructionError):
        build_case("case3-J", spec, q0=1.0, r0=-1.0)


def test_case3_zero_scan_is_bounded():
    # tau_bar = m/sqrt(r0) ~ 1e149: a 0.05-step scan would need ~6e151 points
    start = time.perf_counter()
    with pytest.raises(ConstructionError, match=r"case3-Y: .*zero scan of \[1e\+149"):
        build_case("case3-Y", PaineSpec(1.0, 0.1), q0=1.0, r0=1e-300)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# case 4


def test_case4_classical_displays():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4", spec, C1=2.0)
    s = math.sqrt(0.2)
    assert res.extras["x0"] == pytest.approx(s, rel=1e-15)
    assert res.canonical.a == 0.0
    assert res.canonical.b == pytest.approx(math.sqrt(2 * PI + 0.2) - s, rel=1e-14)
    x = 0.7
    assert res.canonical.p.evaluate(x) == pytest.approx((x + s) ** 3, rel=1e-14)
    assert res.canonical.q.evaluate(x) == pytest.approx(4 * (x + s), rel=1e-14)
    assert res.canonical.r.evaluate(x) == pytest.approx((x + s) ** 5, rel=1e-14)
    assert res.extras["delta0"] == pytest.approx(0.04, rel=1e-13)
    assert res.extras["gamma0"] == pytest.approx(4 * (PI + 0.1) ** 2, rel=1e-13)
    # t=0 maps to x=a=0 under the default shift
    assert res.map.x_of_t(0.0) == pytest.approx(0.0, abs=1e-15)
    assert roundtrip(res, spec) <= 1e-8


def test_case4_respects_explicit_shift():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4", spec, C1=2.0, x0=0.0)
    assert res.canonical.a == pytest.approx(2 * math.sqrt(0.05), rel=1e-14)
    assert roundtrip(res, spec) <= 1e-8


def test_case4_general_consistency_at_5_over_2():
    spec = PaineSpec(1.0, 0.1)
    base = build_case("case4", spec, C1=2.0)
    gen = build_case("case4-general", spec, C1=2.0, n_r=2.5)
    xs = np.linspace(base.canonical.a + 1e-9, base.canonical.b, 29)
    for x in xs:
        x = float(x)
        for field in ("p", "q", "r"):
            left = getattr(base.canonical, field).evaluate(x)
            right = getattr(gen.canonical, field).evaluate(x)
            assert left == pytest.approx(right, rel=1e-11), (field, x)


def test_case4_general_sample_point():
    # n_r = 2.75, C1 = 1, m = 1: x + x0 = 4 (t+1)^(1/4), so a + x0 = 4
    spec = PaineSpec(1.0, 1.0)
    res = build_case("case4-general", spec, C1=1.0, n_r=2.75)
    assert res.canonical.a == 0.0
    assert res.extras["x0"] == pytest.approx(4.0, rel=1e-14)
    assert roundtrip(res, spec) <= 1e-8


def test_case4_general_near_upper_power_limit():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4-general", spec, C1=2.0, n_r=2.99)
    assert math.isfinite(res.canonical.b)
    assert roundtrip(res, spec) <= 1e-8
    with pytest.raises(ConstructionError):
        build_case("case4-general", spec, C1=2.0, n_r=3.0)
    with pytest.raises(ConstructionError):
        build_case("case4-general", spec, C1=2.0, n_r=2.0)


def test_case4_rejects_nonpositive_c1():
    with pytest.raises(ConstructionError):
        build_case("case4", PaineSpec(1.0, 0.1), C1=0.0)


def test_finish_still_reports_an_inverted_interval():
    # a == b (a shift that swamps the width) is covered by the CLI test of
    # extreme construction parameters; a > b keeps the inversion message
    c = build_case("case4", PaineSpec(1.0, 0.1), C1=2.0).canonical
    with pytest.raises(ConstructionError, match=r"interval inversion, a=1\.0 >= b=0\.5"):
        _finish("case4", c.p, c.q, c.r, 1.0, 0.5, None, None, True, None, {})


# ---------------------------------------------------------------------------
# dispatch and shared invariants


def test_build_case_dispatch():
    spec = PaineSpec(1.0, 0.1)
    res = build_case("case4", spec, C1=2.0)
    assert res.case_label == "case4"
    with pytest.raises(ConstructionError):
        build_case("case5", spec)
    with pytest.raises(ConstructionError):
        build_case("case4", spec)  # missing C1


def test_every_construction_validates_and_pins_endpoints():
    table = [
        build_case("case1", PaineSpec(2.0, 0.1), r0=1.0),
        build_case("case2-A1", PaineSpec(0.75, 0.1), q0=1.0),
        build_case("case2-A2", PaineSpec(0.75, 1.5), q0=1.0),
        build_case("case2-B", PaineSpec(3.0, 0.1), q0=1.0),
        build_case("case2-C1", PaineSpec(1.0, 0.1), q0=2.0),
        build_case("case2-C2", PaineSpec(1.0, 1.2), q0=2.0),
        build_case("case3-J", PaineSpec(0.75, 0.1), q0=1.0, r0=1.0),
        build_case("case3-Y", PaineSpec(0.75, 0.1), q0=1.0, r0=1.0),
        build_case("case4", PaineSpec(1.0, 0.1), C1=2.0),
        build_case("case4-general", PaineSpec(1.0, 0.1), C1=2.0, n_r=2.75),
    ]
    for res in table:
        assert res.canonical.a < res.canonical.b
        assert validate(res.canonical) == []
        assert_pinned(res)
        assert res.extras["delta0"] != 0.0
        assert res.extras["gamma0"] != 0.0
        assert res.map.t_text and res.map.x_text


# ---------------------------------------------------------------------------
# pinned output and label dispatch

# sha256 of the serialized construction for cases the benchmark's `slp invert`
# pins do not reach, so a refactor of the builders changes no byte of them
CONSTRUCTION_SHA256 = [
    ("case1", (2.0, 0.1), {"branch": "minus"},
     "cafe4fba27956d503944b6871def790ede9b9ceaf0578a6d6d6e357fdf253ad4"),
    ("case1", (0.75, 1.0), {"r0": 1.5, "x0": 0.3, "k34_branch": "power"},
     "ba81ddc7130497bd6630e1ebc29d5d9d58399cfde3bcec12a30685c8bdbfd147"),
    ("case1", (0.75, 1.0), {"r0": 1.5, "x0": 0.3, "k34_branch": "exponential"},
     "8cc5077d409db9d6dc188012b29fb196de90331cd7cedd00e15c3944472508c1"),
    ("case2-C2", (1.0, 1.2), {"q0": 2.0, "x0": 0.2},
     "ac038ee2f45d302bb8185ee7ff996e757939b619c8834fa35da9e3ef7fbdd595"),
    ("case2-A2", (0.75, 0.1), {"q0": 1.0},
     "14898628fd51e853c9634961a52e162a434ae778577241bfc5cd9b67e4d00a88"),
    ("case3-Y", (1.0, 0.1), {"q0": 1.0, "r0": 1.0, "x0": 0.25},
     "fe9cc0ffc424af305fc8a5c8317f9f5303ffe526f17e3c64b3290b445eadc103"),
    ("case4", (1.0, 0.1), {"C1": 2.0, "x0": 0.0},
     "230d4ac24d400a0dab3ed8b033ca14fda13809834b059f2b233f9274c935df54"),
]


@pytest.mark.parametrize("label, km, params, digest", CONSTRUCTION_SHA256)
def test_construction_output_is_pinned(label, km, params, digest):
    res = build_case(label, PaineSpec(*km), **params)
    text = _serialize.dumps(_serialize.inverse_result_dict(res))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_build_case_rejects_unknown_label():
    with pytest.raises(ConstructionError, match=r"unknown case label 'case3-K'"):
        build_case("case3-K", PaineSpec(0.75, 0.1), q0=1.0, r0=1.0)


def test_build_case_names_a_missing_parameter():
    with pytest.raises(ConstructionError, match=r"^case2-B requires parameter q0$"):
        build_case("case2-B", PaineSpec(3.0, 0.1))
