"""Quick check of the benchmark itself (about a minute):

    python3 -m pytest -q bench/quick_check.py

Runs a handful of operations of each workload, shows that every reference
check rejects a deliberately corrupted result, recomputes the stored
oracles with independent tools, and runs the cli workload end to end in
both modes.  The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import slpkit  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def cli_workload(tmp_path_factory):
    workload = workloads.CliWorkload()
    workload.setup(tmp_path_factory.mktemp("cli"))
    return workload


def _outputs(ops):
    outputs = []
    for op in ops:
        output = op.run()
        op.check(output)
        outputs.append((op, output))
    return outputs


@pytest.fixture(scope="module")
def verify_outputs():
    ops = workloads.VerifyWorkload().round(random.Random(5))
    exact = next(op for op in ops if op.label.startswith("case4"))
    asymptotic = next(op for op in ops if op.label.startswith("case3-Y"))
    return _outputs([exact, asymptotic])


@pytest.fixture(scope="module")
def transform_outputs():
    return _outputs(workloads.TransformWorkload().round(random.Random(5)))


@pytest.fixture(scope="module")
def cli_outputs(cli_workload):
    return _outputs(cli_workload.round(random.Random(5)))


def test_workload_operations_pass(verify_outputs, transform_outputs, cli_outputs):
    assert len(verify_outputs) == 2
    assert len(transform_outputs) == len(workloads.TRANSFORM_CASES)
    assert len(cli_outputs) == 18


def test_shifted_eigenvalue_is_rejected(verify_outputs):
    for op, report in verify_outputs:
        shifted = list(report.eigenvalues_schrodinger)
        shifted[2] += 10 * workloads.EIG_TOL
        with pytest.raises(CheckFailed):
            op.check(dataclasses.replace(report, eigenvalues_schrodinger=tuple(shifted)))
    exact = [(op, r) for op, r in verify_outputs if r.exact][0]
    with pytest.raises(CheckFailed):
        exact[0].check(dataclasses.replace(exact[1], passed=False))
    asymptotic = [(op, r) for op, r in verify_outputs if not r.exact][0]
    with pytest.raises(CheckFailed):
        asymptotic[0].check(dataclasses.replace(asymptotic[1], trust_warnings=()))


def test_perturbed_invariant_sample_is_rejected(transform_outputs, cli_outputs):
    for op, (alpha, beta, ts, values) in transform_outputs:
        if op.label.startswith("case3-J"):
            with pytest.raises(CheckFailed):  # its check is on the map's end
                op.check((alpha, beta + 1e-8, ts, values))
            continue
        bad = list(values)
        bad[1] *= 1 + 1e-7  # near t = 0, where the tolerance is widest
        with pytest.raises(CheckFailed):
            op.check((alpha, beta, ts, bad))
    for op, (code, out, err) in cli_outputs:
        if op.label.startswith("slp transform") and code == 0:
            payload = json.loads(out)
            payload["invariant"][100] += 1e-6
            with pytest.raises(CheckFailed):
                op.check((code, json.dumps(payload), err))


def test_wrong_exit_code_and_changed_bytes_are_rejected(cli_outputs):
    for op, (code, out, err) in cli_outputs:
        with pytest.raises(CheckFailed):
            op.check((code + 1, out, err))
        if op.label.startswith("slp invert") and code == 0:
            with pytest.raises(CheckFailed):
                op.check((code, out.replace(",", ", ", 1), err))


def test_stored_oracles_match_independent_solvers():
    import mpmath
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    def fd(k, m, n):
        h = math.pi / (n + 1)
        t = np.arange(1, n + 1) * h
        return eigh_tridiagonal(2 / h**2 + k / (t + m) ** 2, np.full(n - 1, -1 / h**2),
                                select="i", select_range=(0, 4), eigvals_only=True)

    for (k, m), stored in workloads.SCHRODINGER_ORACLE.items():
        fresh = (4 * fd(k, m, 32001) - fd(k, m, 16000)) / 3
        assert np.abs(fresh - np.array(stored)).max() <= 5e-7, (k, m)

    result = slpkit.build_case("case3-J", slpkit.PaineSpec(0.75, 0.1), q0=1.0, r0=1.0)
    nu, x0 = result.extras["nu"], result.extras["x0"]
    e = 2 + 2 * nu
    cc = 0.5 * result.extras["gamma_triangle"]

    def p(x):  # case3-J with q0 = r0 = 1, written out with mpmath's J
        xb = (cc * (x + x0)) ** (1 / mpmath.mpf(e))
        return 4 * xb**2 * mpmath.besselj(nu, 2 * xb) ** 4

    with mpmath.workdps(30):
        a, b = result.canonical.a, result.canonical.b
        beta = mpmath.quad(lambda x: 1 / mpmath.sqrt(p(x)), [a, (a + b) / 2, b])
    assert abs(float(beta) - workloads.CASE3J_BETA) <= 1e-12


def test_tracer_wraps_every_binding_and_restores_them():
    names = ("spectral_match", "forward_transform", "solve_spectrum", "build_case",
             "validate", "parse_expr")
    before = {name: getattr(slpkit.cli, name) for name in names}
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unwrapped_bindings() == []
        for name in names:
            assert getattr(slpkit.cli, name) is not before[name]
        assert slpkit.verify.solve_spectrum is slpkit.eigensolver.solve_spectrum
        assert slpkit.liouville.validate is slpkit.problems.validate
        t.take()
        workloads.run_cli(["invert", "case4", "--k", "1", "--C1", "2"])
        stats = t.take()
    finally:
        t.uninstall()
    assert {name: getattr(slpkit.cli, name) for name in names} == before
    assert stats["cli.main"]["calls"] == 1
    assert stats["inverse.build_case"]["calls"] == 1
    assert stats["serialize.dumps"]["calls"] == 1  # recursion is one span


def test_tracer_lists_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("verify", "gone", None),))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == ["verify.gone"]
        assert t.unwrapped_bindings() == []
    finally:
        t.uninstall()


def test_differing_repeat_fails_a_guarding_self_check():
    def record(bisects):
        return run.Record("case4", 1.0, layers={
            "eigensolver.eig_bisect": {"calls": bisects, "self_s": 1.0}})

    totals = record(4).layers
    t = tracer.Tracer()
    t.install()
    try:
        same = run.self_checks("verify", [record(4)], totals, 0.0, t,
                               [(record(4), record(4))])
        differ = run.self_checks("verify", [record(4)], totals, 0.0, t,
                                 [(record(4), record(3))])
    finally:
        t.uninstall()
    fatal = {name: ok for name, ok, _, is_fatal in same if is_fatal}
    assert len(fatal) == 2 and all(fatal.values())
    assert [name for name, ok, _, is_fatal in differ if is_fatal and not ok] == [
        "the first round, traced again, records identical calls per operation"]


def test_deadline_interrupts_a_hung_operation():
    start = time.perf_counter()
    outcome = workloads.probe_case3_y(deadline_s=0.5)
    assert time.perf_counter() - start < 5.0
    assert isinstance(outcome, str)
    with pytest.raises(workloads.DeadlineExceeded):
        workloads.call_with_deadline(lambda: time.sleep(5), 0.2)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _, summary in run.END_TO_END if summary]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_workload_end_to_end(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in wanted]
    if trace:
        assert summary["metrics"]["trace.checks_failed"]["value"] == 0
        assert summary["metrics"]["eigensolver.eig_bisect.calls"]["value"] > 0


def test_host_speed_sampler_samples_long_operations():
    import hostspeed

    with hostspeed.Sampler(0.05) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    speed, speed_native, paused = sampler.speeds(start, end)
    inside = [s for s in sampler.samples if start <= s[0] < end]
    assert len(inside) >= 3
    assert paused == pytest.approx(sum(s[1] - s[0] for s in inside))
    assert speed == pytest.approx(
        hostspeed.REFERENCE_S / (sum(s[2] for s in inside) / len(inside)))
    assert speed_native == pytest.approx(
        hostspeed.NATIVE_REFERENCE_S / (sum(s[3] for s in inside) / len(inside)))
