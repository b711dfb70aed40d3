"""slpkit benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload verify|transform|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root: the package is imported from ./src.  The
workload seed sets the operation order and the free construction
constants; see bench/README.md for the workloads and metrics.

--trace 0 times whole rounds of operations, untraced, until --seconds have
passed and reports the end-to-end metrics.  Times in the summary are at
the reference host speed (see hostspeed.py); the wall-clock values are
printed beside them.  --trace 1 runs whole rounds
for --seconds, each operation twice, untraced and with the per-layer
tracer installed, and reports per-layer metrics per operation plus the
tracing overhead (traced median minus untraced median).

Human-readable lines come first; a result file with the environment goes
to .bench_results/; the last stdout line is the JSON summary
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
HOST_SPEED_INTERVAL_S = 0.2  # CPU seconds between two timings of the kernel

# stored in every end-to-end result file: the known bias of the scaled times
NATIVE_WORK_BIAS = (
    "setup_s, ops_per_s and latency_p50_s are scaled by the geometric mean "
    "of the speeds of an interpreted kernel (host_speed) and a numpy kernel "
    "(host_speed_native).  Compiled library code such as LAPACK slows much "
    "less than either when the host runs slow, so the scaled times credit "
    "such work with a speed it did not have.  A change that moves work into "
    "compiled code must also win on latency_p50_wall_s in at least ten "
    "paired runs that alternate the two versions, same seed within a pair "
    "(bench/README.md).")

END_TO_END = (
    # name, unit, in the summary line
    ("setup_s", "s", True),
    ("ops_per_s", "1/s", True),
    ("latency_p50_s", "s", True),
    ("latency_p90_s", "s", False),  # only where >= 100 operations ran
    ("peak_rss_mb", "MiB", True),
    ("fail_ratio", "1", False),  # zero on every workload; in attempted/failed
    ("host_speed", "1", False),  # reference kernel speed, 1 = reference host
    ("host_speed_native", "1", False),  # the same for the native kernel
    ("setup_wall_s", "s", False),
    ("ops_wall_per_s", "1/s", False),
    ("latency_p50_wall_s", "s", False),
)

# per-layer metrics: (span prefix, stats, end-to-end metrics the layer
# should move, workloads where it should move them)
_P50 = "latency_p50_s"
_P50_OPS = "latency_p50_s ops_per_s"
_P50_P90 = "latency_p50_s latency_p90_s"
LAYERS = (
    ("eigensolver.eig_bisect", ("calls", "self_s", "failed", "rows", "eigs", "share"),
     _P50_OPS, "verify cli"),
    ("eigensolver.discretize_canonical", ("self_s", "rows"), _P50, "verify cli"),
    ("eigensolver.discretize_schrodinger", ("self_s", "rows"), _P50, "verify cli"),
    ("eigensolver.solve_spectrum", ("self_s",), _P50, "verify cli"),
    ("verify.spectral_match", ("self_s",), _P50, "verify"),
    ("verify.roundtrip_invariant", ("calls", "self_s"), _P50, "verify"),
    ("liouville.build_map", ("calls", "self_s", "failed", "nodes", "share"),
     _P50_OPS, "transform"),
    ("liouville.forward_transform", ("self_s",), _P50_OPS, "transform"),
    ("liouville.TransformMap.x_of_t", ("calls", "self_s"), _P50, "verify transform"),
    ("liouville.invariant_at_x", ("calls", "self_s"), _P50, "verify"),
    ("liouville.TabulatedInvariant.evaluate", ("calls", "self_s"), _P50, "transform cli"),
    ("expr.evaluate", ("calls",), _P50, "transform verify"),
    ("expr.parse", ("calls", "self_s"), _P50_P90, "cli"),
    ("problems.validate", ("calls", "self_s", "failed"), _P50_P90, "cli"),
    ("inverse.build_case", ("calls", "self_s", "failed"), _P50_P90, "cli"),
    ("special.bessel_j", ("calls", "self_s"), _P50, "transform"),
    ("special.bessel_y", ("calls", "self_s"), _P50, "verify"),
    ("serialize.dumps", ("calls", "self_s"), _P50_P90, "cli"),
    ("cli.load_problem", ("self_s", "failed"), _P50_P90, "cli"),
    ("cli.main", ("self_s",), _P50_P90, "cli"),
)
TRACE_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "1"),
    ("trace.checks_failed", "count"),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "failed": "count", "rows": "count",
              "eigs": "count", "nodes": "count", "share": "1"}


def layer_metrics() -> list:
    """(name, unit) of every --trace 1 metric, in report order."""
    names = [(f"{prefix}.{stat}", STAT_UNITS[stat])
             for prefix, stats, _, _ in LAYERS for stat in stats]
    return names + list(TRACE_METRICS)


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Record:
    label: str
    latency_s: float
    error: str = ""  # empty when the operation passed its check
    layers: dict = field(default_factory=dict)  # traced phase only
    start: float = 0.0  # perf_counter() when the operation began
    speed: float = 1.0  # of the Python kernel while it ran, 1 = reference host
    speed_native: float = 1.0  # the same for the native kernel


def execute(op, deadline_s: float, workloads) -> Record:
    start = time.perf_counter()
    try:
        output = workloads.call_with_deadline(op.run, deadline_s)
    except workloads.DeadlineExceeded:
        return Record(op.label, time.perf_counter() - start,
                      f"missed its {deadline_s:g} s deadline", start=start)
    except Exception as err:  # any exception is a failed operation
        return Record(op.label, time.perf_counter() - start,
                      f"raised {type(err).__name__}: {err}", start=start)
    latency = time.perf_counter() - start
    try:
        op.check(output)
    except workloads.CheckFailed as err:
        return Record(op.label, latency, f"check failed: {err}", start=start)
    return Record(op.label, latency, start=start)


def run_rounds(workload, rng, seconds: float, workloads):
    """Whole rounds until `seconds` have passed; returns (records, host-speed samples).

    The reference kernels are timed throughout (hostspeed.Sampler).  Each
    record's latency excludes the kernel timings taken while it ran, and its
    kernel speeds come from them.
    """
    records = []
    with hostspeed.Sampler(HOST_SPEED_INTERVAL_S) as sampler:
        start = time.perf_counter()
        while True:
            for op in workload.round(rng):
                records.append(execute(op, workload.deadline_s, workloads))
            if time.perf_counter() - start >= seconds:
                break
    for record in records:
        record.speed, record.speed_native, paused = sampler.speeds(
            record.start, record.start + record.latency_s)
        record.latency_s -= paused
    return records, sampler.samples


def measure_setup(args) -> list:
    """Process start to ready for fresh benchmark processes.

    Each process samples the host speed while it sets up and reports the
    kernel speeds and the time the sampling took (see set_up_only).
    Returns (wall time without the sampling, speed, native speed) per process.
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        words = line.split()
        if code != 0 or len(words) != 4 or words[0] != "ready":
            raise RuntimeError(f"set-up process exited with {code}: {line!r}")
        speed, speed_native, paused = map(float, words[1:])
        runs.append((elapsed - paused, speed, speed_native))
    return runs


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(args, workload, workloads) -> dict:
    """ops_per_s is operations per second of operation time: a closed loop
    with one client, so the benchmark's own checks between operations and
    the kernel timings do not count."""
    setup = measure_setup(args)
    records, host = run_rounds(workload, random.Random(args.seed),
                               args.seconds, workloads)
    kernel = [sample[2] for sample in host]
    native = [sample[3] for sample in host]
    setup_wall = [wall for wall, _, _ in setup]
    wall = [r.latency_s for r in records]
    scaled = [r.latency_s * hostspeed.host_factor(r.speed, r.speed_native)
              for r in records]
    failed = sum(1 for r in records if r.error)
    n = len(records)
    values = {
        "setup_s": statistics.median(wall * hostspeed.host_factor(speed, native)
                                     for wall, speed, native in setup),
        "ops_per_s": n / sum(scaled),
        "latency_p50_s": statistics.median(scaled),
        "latency_p90_s": (statistics.quantiles(scaled, n=10)[-1] if n >= 100 else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / n,
        "host_speed": statistics.median(hostspeed.REFERENCE_S / k for k in kernel),
        "host_speed_native": statistics.median(
            hostspeed.NATIVE_REFERENCE_S / k for k in native),
        "setup_wall_s": statistics.median(setup_wall),
        "ops_wall_per_s": n / sum(wall),
        "latency_p50_wall_s": statistics.median(wall),
    }
    samples = {name: n for name, _, _ in END_TO_END}
    samples.update(setup_s=len(setup), setup_wall_s=len(setup),
                   peak_rss_mb=1, host_speed=len(kernel), host_speed_native=len(native))
    return {"records": records, "values": values, "samples": samples,
            "setup_runs": setup, "kernel_times_s": kernel,
            "native_kernel_times_s": native}


def _sum_stats(records) -> dict:
    totals: dict = {}
    for record in records:
        for prefix, stats in record.layers.items():
            into = totals.setdefault(prefix, {})
            for stat, value in stats.items():
                into[stat] = into.get(stat, 0) + value
    return totals


def _calls(layers: dict) -> dict:
    return {prefix: stats["calls"] for prefix, stats in layers.items()}


def self_checks(workload_name, traced, totals, overhead_s, spans, repeat) -> list:
    """(name, ok, detail, fatal) for the tracer's own consistency and the
    predictions.  A fatal check guards the per-layer metrics themselves and
    makes the run incorrect when it fails; the others are predictions about
    the seed's structure and timing that a legitimate change may break."""
    bindings = spans.unwrapped_bindings()
    checks = [("every binding of a traced function is wrapped", not bindings,
               f"unwrapped: {bindings}", True),
              ("every traced function exists (a missing one reads 0)", not spans.missing,
               f"missing: {spans.missing}", False)]
    differ = [(first.label, _calls(first.layers), _calls(again.layers))
              for first, again in repeat if _calls(first.layers) != _calls(again.layers)]
    checks.append(("the first round, traced again, records identical calls per operation",
                   not differ, f"{len(repeat)} operations, differing: {differ}", True))

    def gap(record):  # wall time outside every span
        return record.latency_s - sum(s.get("self_s", 0.0) for s in record.layers.values())

    allowance = max(overhead_s, 0.0) + 1e-3
    worst = max(traced, key=lambda r: abs(gap(r)))
    checks.append(("self times sum to each operation's wall time within the overhead",
                   0.0 <= gap(worst) <= allowance,
                   f"largest gap {gap(worst):.3g} s ({worst.label}), "
                   f"allowance {allowance:.3g} s", False))
    if workload_name == "verify":
        bisects = [r.layers.get("eigensolver.eig_bisect", {}).get("calls", 0) for r in traced]
        checks.append(("each verify operation calls eig_bisect four times",
                       all(n == 4 for n in bisects), f"calls per operation: {bisects}", False))
        top = max(totals, key=lambda p: totals[p].get("self_s", 0.0))
        checks.append(("eig_bisect has the largest self time on verify",
                       top == "eigensolver.eig_bisect", f"largest: {top}", False))
    if workload_name == "transform":
        solver = {p: s["calls"] for p, s in totals.items() if p.startswith("eigensolver.")}
        checks.append(("transform calls no eigensolver function", not solver,
                       f"calls: {solver}", False))
    return checks


def execute_traced(spans, op, deadline_s: float, workloads) -> Record:
    spans.install()
    try:
        spans.take()
        record = execute(op, deadline_s, workloads)
        record.layers = spans.take()
    finally:
        spans.uninstall()
    return record


def traced(args, workload, workloads) -> dict:
    """Each operation twice, untraced and traced, alternating which goes first."""
    spans = tracer.Tracer()
    rng = random.Random(args.seed)
    rounds, untraced, records = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(workload.round(rng))
        for op in rounds[-1]:
            if len(records) % 2:
                records.append(execute_traced(spans, op, workload.deadline_s, workloads))
                untraced.append(execute(op, workload.deadline_s, workloads))
            else:
                untraced.append(execute(op, workload.deadline_s, workloads))
                records.append(execute_traced(spans, op, workload.deadline_s, workloads))
    # the first round once more, traced, with the same drawn constants
    again = [execute_traced(spans, op, workload.deadline_s, workloads) for op in rounds[0]]

    base = statistics.median(r.latency_s for r in untraced)
    overhead = statistics.median(r.latency_s for r in records) - base
    totals = _sum_stats(records)
    spans.install()
    try:
        checks = self_checks(workload.name, records, totals, overhead, spans,
                             list(zip(records, again)))
    finally:
        spans.uninstall()
    traced_wall = sum(r.latency_s for r in records)
    values = {}
    for prefix, stats, _, _ in LAYERS:
        got = totals.get(prefix, {})
        for stat in stats:
            if stat == "share":
                values[f"{prefix}.share"] = got.get("self_s", 0.0) / traced_wall
            else:
                values[f"{prefix}.{stat}"] = got.get(stat, 0) / len(records)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / base
    values["trace.checks_failed"] = sum(1 for _, ok, _, _ in checks if not ok)
    return {"records": untraced + records + again, "untraced_p50_s": base,
            "values": values, "checks": checks, "totals": totals,
            "traced_ops": len(records)}


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_end_to_end(result) -> None:
    records = result["records"]
    failed = sum(1 for r in records if r.error)
    for name, unit, _ in END_TO_END:
        value = result["values"][name]
        count = result["samples"][name]
        note = f"n={count}"
        if name == "latency_p90_s" and value is None:
            note += " < 100, not reported"
        if name == "fail_ratio":
            note = f"{failed}/{len(records)}"
        print(f"  {name:<18} {_fmt(value):>12} {unit:<4} ({note})")


def report_traced(result, predictions) -> None:
    print(f"  traced operations {result['traced_ops']}, untraced median "
          f"{result['untraced_p50_s']:.6g} s, overhead "
          f"{result['values']['trace.overhead_s']:.6g} s "
          f"({100 * result['values']['trace.overhead_share']:.3g}%)")
    print(f"  {'layer (per operation)':<42} {'calls':>10} {'self_s':>11} "
          f"{'failed':>6}  should move")
    n = result["traced_ops"]
    for prefix, stats in sorted(result["totals"].items(),
                                key=lambda item: -item[1].get("self_s", 0.0)):
        print(f"  {prefix:<42} {stats['calls'] / n:>10.6g} "
              f"{stats.get('self_s', 0.0) / n:>11.4g} {stats.get('failed', 0):>6}  "
              f"{predictions.get(prefix, '')}")
    for name, ok, detail, fatal in result["checks"]:
        print(f"  self-check {'ok  ' if ok else 'FAIL'} {name}"
              f"{' (guards the metrics)' if fatal else ''}: {detail}")


def import_workloads():
    """The workloads module, with slpkit imported from ./src; None if it cannot be."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import slpkit
    except ImportError as err:
        print(f"error: cannot import slpkit from {src}: {err}", file=sys.stderr)
        return None
    if not Path(slpkit.__file__).resolve().is_relative_to(src):
        print(f"error: slpkit was imported from {slpkit.__file__}, not {src}",
              file=sys.stderr)
        return None
    import workloads

    return workloads


def pick_workload(workloads, args, parser):
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[args.workload]


def set_up_only(args, parser) -> int:
    """Import, set up and print "ready <speed> <native speed> <sampling s>"."""
    with hostspeed.Sampler(HOST_SPEED_INTERVAL_S) as sampler:
        workloads = import_workloads()
        if workloads is None:
            return 2
        workload = pick_workload(workloads, args, parser)
        workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        try:
            workload.setup(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    speed, speed_native, paused = sampler.speeds(-math.inf, math.inf)
    print(f"ready {speed!r} {speed_native!r} {paused!r}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (set-up timing)")
    args = parser.parse_args(argv)

    if args.setup_only:
        return set_up_only(args, parser)
    workloads = import_workloads()
    if workloads is None:
        return 2
    workload = pick_workload(workloads, args, parser)
    # one CPU for the operations, the set-up processes and the host-speed
    # kernel, so that the kernel measures the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload.setup(workdir)
        if args.trace:
            result = traced(args, workload, workloads)
        else:
            result = end_to_end(args, workload, workloads)
        probe = workloads.probe_case3_y() if workload.name == "transform" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failures = [(r.label, r.error) for r in records if r.error]
    predictions = {prefix: f"{moves} on {where}" for prefix, _, moves, where in LAYERS}
    print(f"slpkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(records)} operations, {len(failures)} failed")
    if args.trace:
        report_traced(result, predictions)
        metrics = {name: {"value": result["values"][name], "unit": unit}
                   for name, unit in layer_metrics()}
    else:
        report_end_to_end(result)
        metrics = {name: {"value": result["values"][name], "unit": unit}
                   for name, unit, summary in END_TO_END if summary}
    for label, error in failures:
        print(f"  FAILED {label}: {error}")
    if probe is not None:
        print("  known-defect probe, case3-Y expected rejection: "
              + (probe or "rejected as expected"))

    # a failed fatal self-check means the per-layer metrics cannot be trusted
    broken = [name for name, ok, _, fatal in result.get("checks", ()) if fatal and not ok]
    for name in broken:
        print(f"  FAILED self-check: {name}")
    summary = {"correct": not failures and not broken, "attempted": len(records),
               "failed": len(failures), "metrics": metrics}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "summary": summary,
        "values": result["values"],
        "operations": [{"label": r.label, "latency_s": r.latency_s,
                        "speed": r.speed, "speed_native": r.speed_native,
                        "error": r.error} for r in records],
        "case3_y_probe": probe,
    }
    if args.trace:
        detail["self_checks"] = [{"check": n, "ok": ok, "detail": d, "fatal": fatal}
                                 for n, ok, d, fatal in result["checks"]]
        detail["layer_totals"] = result["totals"]
        detail["predictions"] = predictions
    else:
        detail["samples"] = result["samples"]
        detail["setup_runs"] = [{"wall_s": wall, "speed": speed, "speed_native": native}
                                for wall, speed, native in result["setup_runs"]]
        detail["kernel_times_s"] = result["kernel_times_s"]
        detail["native_kernel_times_s"] = result["native_kernel_times_s"]
        detail["native_work_bias"] = NATIVE_WORK_BIAS
    out_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"  result file {out_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
