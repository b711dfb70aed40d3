"""The three workloads of the slpkit benchmark and their reference checks.

Each workload is a closed loop (one client, one thread) over *rounds*: a
round holds one operation of every kind the workload has, in an order the
seed shuffles, with free construction constants the seed draws afresh for
every operation.  Operations call the public API through module attributes
at call time (``slpkit.spectral_match``, ``slpkit.cli.main``), so the
tracer's wrappers see them.

Every output is checked against a reference that does not come from the
code under test: eigenvalue tables from LAPACK, the closed-form potential
k/(t+m)^2, an mpmath quadrature, and CLI output recorded from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import slpkit
import slpkit.cli

PI = math.pi

# I(t) = 1/(t+0.1)^2 on (0, pi), Dirichlet: copied from the acceptance gate
# (tests/test_acceptance.py)
PAINE_ORACLE = (1.519865838810803, 4.943309840435783, 10.284662654623384,
                17.559957759454843, 26.782863174254686)

# The five lowest eigenvalues of -v'' + k/(t+m)^2 v on (0, pi), Dirichlet,
# for the other (k, m) of the verify workload: three-point scheme solved by
# LAPACK dstebz (scipy.linalg.eigh_tridiagonal), Richardson-combined over
# n = 32000 and 64001 interior points; the n = 16000 combination agrees
# to 2e-7.
SCHRODINGER_ORACLE = {
    (1.0, 0.1): PAINE_ORACLE,
    (2.0, 1.0): (1.3480507291741493, 4.430284139078485, 9.456459420387187,
                 16.467287816801143, 25.472670159945324),
    (0.75, 1.0): (1.1328613215923289, 4.161556062145439, 9.170905328545544,
                  16.174931551856513, 25.176993733672543),
    (0.75, 0.1): (1.405313893398555, 4.731353613075336, 9.988445991412698,
                  17.19257217629705, 26.356147352798455),
    (0.75, 1.5): (1.0886095073163906, 4.101014777759445, 9.104432849185049,
                  16.10579416549542, 25.10646220632644),
    (3.0, 0.1): (2.270451412779427, 6.316967289907424, 12.243887464273202,
                 20.05826697966886, 29.767541533711142),
}
EIG_TOL = 1e-6  # the acceptance gate's tolerance at n = 2000
# at n = 200 the Richardson values keep an O(h^4) error: 1.5e-6 at the
# fifth Paine eigenvalue at the seed
EIG_TOL_N200 = 1e-5

QUAD_TOL = 1e-10
SAMPLES = 201
# t-domain end of the case3-J map (k=0.75, m=0.1, q0=r0=1): mpmath quad of
# sqrt(r/p) at 30 digits gives 17.8261186478166098900452649032
CASE3J_BETA = 17.82611864781661

PROBE_DEADLINE_S = 3.0


class CheckFailed(Exception):
    """An output differs from its reference."""


class DeadlineExceeded(BaseException):
    """An operation overran its deadline.

    A BaseException, so that no ``except Exception`` in the package
    swallows it on its way out.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, seconds: float):
    """fn() under a wall-clock deadline; raises DeadlineExceeded past it."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_eigenvalues(values, reference, tol: float, what: str) -> None:
    _require(len(values) == len(reference),
             f"{what}: {len(values)} eigenvalues, expected {len(reference)}")
    for i, (got, ref) in enumerate(zip(values, reference)):
        _require(abs(got - ref) <= tol,
                 f"{what}: eigenvalue {i} = {got!r}, reference {ref!r} (tol {tol})")


def check_increasing(values, what: str) -> None:
    _require(all(math.isfinite(v) for v in values), f"{what}: nonfinite eigenvalue")
    _require(all(lo < hi for lo, hi in zip(values, values[1:])),
             f"{what}: eigenvalues not strictly increasing")


def check_invariant(alpha, beta, ts, values, k, m, beta_ref=PI,
                    exact: bool = True) -> None:
    """Samples of the reduced potential against k/(t+m)^2.

    The map is refined until its t(x) error is within quad_tol (the
    cumulative quadrature and the Hermite midpoint test each contribute at
    most quad_tol), so a sample at t may read I at a point up to 2 quad_tol
    away: |dI| <= 2 quad_tol |I'(t)|.  The check allows twice that, plus
    1e-11 relative for the cancellation in the invariant formula.
    """
    _require(alpha == 0.0, f"alpha = {alpha!r}, expected 0")
    _require(abs(beta - beta_ref) <= 4.0 * QUAD_TOL,
             f"beta = {beta!r}, reference {beta_ref!r}")
    _require(len(ts) == SAMPLES and len(values) == SAMPLES,
             f"{len(values)} samples, expected {SAMPLES}")
    for t, value in zip(ts, values):
        _require(math.isfinite(value), f"I({t!r}) is not finite")
        if not exact:
            continue
        ref = k / (t + m) ** 2
        slope = 2.0 * k / (t + m) ** 3
        tol = 4.0 * QUAD_TOL * slope + 1e-11 * ref
        _require(abs(value - ref) <= tol,
                 f"I({t!r}) = {value!r}, reference {ref!r} (tol {tol:.3g})")


def sample_invariant(reduced):
    """The sampling `slp transform` does: I at evenly spaced t, ends included."""
    ts, values = [], []
    for i in range(SAMPLES):
        t = reduced.alpha + (reduced.beta - reduced.alpha) * i / (SAMPLES - 1)
        ts.append(t)
        values.append(reduced.invariant.evaluate(t))
    return ts, values


class Workload:
    name = ""
    deadline_s = 0.0

    def setup(self, workdir: Path) -> None:
        """Input generation and a fixed warm-up, before the first timed op."""

    def round(self, rng: random.Random) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify: spectral_match(count=5, n=2000) on the acceptance constructions


def _uniform(lo, hi):
    return lambda rng: rng.uniform(lo, hi)


# (label, k, m, fixed parameters, drawn parameters)
VERIFY_CASES = (
    ("case4", 1.0, 0.1, {}, {"C1": _uniform(1.5, 2.5)}),
    ("case1", 2.0, 1.0, {"branch": "plus"},
     {"r0": _uniform(0.5, 2.0), "x0": _uniform(-0.5, 0.5)}),
    ("case1", 0.75, 1.0, {"k34_branch": "power"},
     {"r0": _uniform(0.5, 2.0), "x0": _uniform(-0.5, 0.5)}),
    ("case1", 0.75, 1.0, {"k34_branch": "exponential"},
     {"r0": _uniform(0.5, 2.0), "x0": _uniform(-0.5, 0.5)}),
    ("case2-A1", 0.75, 0.1, {"q0": 1.0}, {"x0": _uniform(-0.5, 0.5)}),
    ("case2-A2", 0.75, 1.5, {"q0": 1.0}, {"x0": _uniform(-0.5, 0.5)}),
    ("case2-B", 3.0, 0.1, {"q0": 1.0}, {"x0": _uniform(-0.5, 0.5)}),
    # asymptotic: report-only in spectral_match, checked for sanity here
    ("case2-C1", 1.0, 0.1, {"q0": 2.0}, {"x0": _uniform(-0.5, 0.5)}),
    ("case3-Y", 1.0, 0.1, {"q0": 1.0, "r0": 1.0}, {"x0": _uniform(-0.5, 0.5)}),
)


def _draw(drawn: dict, rng: random.Random) -> dict:
    return {name: draw(rng) for name, draw in drawn.items()}


def _describe(label: str, params: dict) -> str:
    return label + "".join(f" {key}={value:.6g}" if isinstance(value, float)
                           else f" {key}={value}" for key, value in params.items())


def check_report(report, k: float, m: float) -> None:
    check_eigenvalues(report.eigenvalues_schrodinger, SCHRODINGER_ORACLE[(k, m)],
                      EIG_TOL, "schrodinger")
    if report.exact:
        _require(report.passed, f"spectral match failed: gaps {report.spectral_gaps}, "
                                f"budgets {report.gap_budgets}, "
                                f"residual {report.roundtrip_residual!r}")
    else:
        check_increasing(report.eigenvalues_canonical, "canonical")
        _require(report.trust_warnings
                 and report.trust_warnings[0].startswith("asymptotic construction"),
                 f"asymptotic case without its trust warning: {report.trust_warnings}")


def verify_op(label, k, m, params) -> Operation:
    spec = slpkit.PaineSpec(k, m)

    def run():
        result = slpkit.build_case(label, spec, **params)
        return slpkit.spectral_match(result, spec, count=5, n=2000)

    return Operation(_describe(label, params), run,
                     lambda report: check_report(report, k, m))


class VerifyWorkload(Workload):
    name = "verify"
    deadline_s = 60.0

    def setup(self, workdir):
        spec = slpkit.PaineSpec(1.0, 0.1)
        result = slpkit.build_case("case4", spec, C1=2.0)
        slpkit.spectral_match(result, spec, count=5, n=200)  # warm-up

    def round(self, rng):
        ops = [verify_op(label, k, m, {**fixed, **_draw(drawn, rng)})
               for label, k, m, fixed, drawn in VERIFY_CASES]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# transform: forward_transform(quad_tol=1e-10) and the 201-point sampling

# case1 keeps x0 = 0: a translated case1 problem (x0 = +-0.01) makes
# build_map raise QuadratureError at the seed, and x0 = +-0.5 runs 15x
# slower; case3-J keeps its constants because its beta reference is fixed
TRANSFORM_CASES = (
    ("case1", 2.0, 0.1, {}, {"r0": _uniform(0.5, 2.0)}),
    ("case4", 1.0, 0.1, {}, {"C1": _uniform(1.5, 2.5)}),
    ("case4-general", 1.0, 0.1, {"n_r": 2.99}, {"C1": _uniform(1.5, 2.5)}),
    ("case2-B", 3.0, 0.1, {"q0": 1.0}, {"x0": _uniform(-0.5, 0.5)}),
    ("case3-J", 0.75, 0.1, {"q0": 1.0, "r0": 1.0}, {}),
)


def transform_op(label, k, m, params) -> Operation:
    spec = slpkit.PaineSpec(k, m)
    exact = label != "case3-J"

    def run():
        result = slpkit.build_case(label, spec, **params)
        reduced, _ = slpkit.forward_transform(result.canonical, QUAD_TOL)
        ts, values = sample_invariant(reduced)
        return reduced.alpha, reduced.beta, ts, values

    def check(output):
        alpha, beta, ts, values = output
        check_invariant(alpha, beta, ts, values, k, m,
                        PI if exact else CASE3J_BETA, exact)

    return Operation(_describe(label, params), run, check)


def probe_case3_y(deadline_s: float = PROBE_DEADLINE_S) -> str:
    """The expected rejection of case3-Y (k=1, m=0.1, q0=r0=1) by forward_transform.

    p has an interior zero near x = 0.745, which validate's 201 samples
    miss; the map integrand sqrt(r/p) is not integrable there.  Passing
    means TransformError or a NumericalError within the deadline.  Returns
    "" on a pass, else what happened.
    """
    spec = slpkit.PaineSpec(1.0, 0.1)
    result = slpkit.build_case("case3-Y", spec, q0=1.0, r0=1.0)
    try:
        call_with_deadline(
            lambda: slpkit.forward_transform(result.canonical, QUAD_TOL), deadline_s)
    except DeadlineExceeded:
        return f"forward_transform missed its {deadline_s:g} s deadline"
    except (slpkit.TransformError, slpkit.NumericalError):
        return ""
    except Exception as err:  # any other outcome is the defect under watch
        return f"forward_transform raised {type(err).__name__}: {err}"
    return "forward_transform returned a map for a non-integrable problem"


class TransformWorkload(Workload):
    name = "transform"
    deadline_s = 20.0

    def setup(self, workdir):
        op = transform_op("case4", 1.0, 0.1, {"C1": 2.0})
        op.check(op.run())  # warm-up

    def round(self, rng):
        ops = [transform_op(label, k, m, {**fixed, **_draw(drawn, rng)})
               for label, k, m, fixed, drawn in TRANSFORM_CASES]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli: in-process slpkit.cli.main(argv) with stdout and stderr captured

PROBLEM_FILES = {
    "paine": {"form": "schrodinger", "coefficients": {"invariant": "1/((t+0.1)^2)"},
              "interval": [0.0, PI], "bc": "dirichlet"},
    # case4 with k=1, m=0.1, C1=2: the spectrum of the Paine problem
    "case4": {"form": "canonical",
              "coefficients": {"p": "(x+0.4472135954999579)^3",
                               "q": "4*(x+0.4472135954999579)",
                               "r": "(x+0.4472135954999579)^5"},
              "interval": [0.0, 2.098996393322564], "bc": "dirichlet"},
    "bad-expression": {"form": "schrodinger", "coefficients": {"invariant": "1/(t"},
                       "interval": [0.0, PI], "bc": "dirichlet"},
    "negative-weight": {"form": "canonical",
                        "coefficients": {"p": "1", "q": "0", "r": "x"},
                        "interval": [-1.0, 1.0], "bc": "dirichlet"},
    "singular-p": {"form": "canonical",
                   "coefficients": {"p": "(x-0.511)^2", "q": "0", "r": "1"},
                   "interval": [0.0, 1.0], "bc": "dirichlet"},
    "dip": {"form": "canonical",
            "coefficients": {"p": "1 - 1.5*exp(-((x-0.50225)/0.0001)^2)",
                             "q": "0", "r": "1"},
            "interval": [0.0, 1.0], "bc": "dirichlet"},
}

INVERT_ARGS = {
    "case1": ["--k", "2", "--m", "0.1", "--r0", "1"],
    "case2-A1": ["--k", "0.75", "--m", "0.1", "--q0", "1"],
    "case2-A2": ["--k", "0.75", "--m", "1.5", "--q0", "1"],
    "case2-B": ["--k", "3", "--m", "0.1", "--q0", "1"],
    "case2-C1": ["--k", "1", "--m", "0.1", "--q0", "2"],
    "case2-C2": ["--k", "1", "--m", "1.2", "--q0", "2"],
    "case3-J": ["--k", "0.75", "--m", "0.1", "--q0", "1", "--r0", "1"],
    "case3-Y": ["--k", "0.75", "--m", "0.1", "--q0", "1", "--r0", "1"],
    "case4": ["--k", "1", "--m", "0.1", "--C1", "2"],
    "case4-general": ["--k", "1", "--m", "0.1", "--C1", "2", "--nr", "2.99"],
}

# sha256 of the seed's `slp invert` stdout for INVERT_ARGS
INVERT_SHA256 = {
    "case1": "25d996f2b37e3689d2df8f0467ec85876d98f9e752e0c9122db3a97f140f3f95",
    "case2-A1": "6a07981a21642df18a671ec37fc7aa805e381af538c956e5882d3b778f9a5ab8",
    "case2-A2": "03dd83520fbc381496a71a713c865528176aac7a33f743333b0bd8a987b46850",
    "case2-B": "000627317ca3c1b7b78a57b870ba2768bf910e1482babc63ecd48f408ba1eddd",
    "case2-C1": "b994ce4ea132053963394c7f4c50ddbfd37467874b8a50692de79f9585e0223a",
    "case2-C2": "94ce4c8d48adf2642c2fdc806a032c3d40a7bd448df99f4c24de68ebd6e9e5de",
    "case3-J": "73adb4733b2c22e1d41cd50d9215196159d1eaf6de963f4cbd164eb26f17d008",
    "case3-Y": "3a944dd0d6ce1ac2f036342ef321cb9c0b682f673420477dfd2c495106b709a0",
    "case4": "0fedeedc1b58cd986724d8680b01e9498de218870bb7238c124c215c1005eeb5",
    "case4-general": "fbfc7fd5dbb52853b4cd241bb3b69e514d323d21d93a7b9a64a5d5f31df3a2bb",
}

INVERT_KEYS = ["case", "exact", "interval", "p", "q", "r", "map", "constants",
               "trust", "warnings"]
SOLVE_KEYS = ["form", "n", "count", "richardson", "eigenvalues",
              "error_estimates", "grid_size", "extrapolated"]
TRANSFORM_KEYS = ["alpha", "beta", "left_bc", "right_bc", "samples", "t",
                  "invariant"]

# acceptance criterion 9 rejections: (subcommand, file, extra argv, exit code)
REJECTIONS = (
    ("solve", "bad-expression", [], 2),
    ("transform", "negative-weight", [], 2),
    ("transform", "singular-p", [], 3),
    ("solve", "dip", ["--n", "1999"], 3),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = slpkit.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _payload(output, code: int, keys: list) -> dict:
    got_code, out, err = output
    _require(got_code == code, f"exit code {got_code}, expected {code}; stderr {err!r}")
    payload = json.loads(out)
    _require(list(payload) == keys, f"keys {list(payload)}, expected {keys}")
    return payload


def check_invert(output, label: str) -> None:
    payload = _payload(output, 0, INVERT_KEYS)
    _require(hashlib.sha256(output[1].encode()).hexdigest() == INVERT_SHA256[label],
             "invert stdout differs from the seed's bytes")
    _require(payload["case"] == label, f"case {payload['case']!r}, expected {label!r}")
    expected_err = "".join(f"warning: {w}\n" for w in payload["warnings"])
    _require(output[2] == expected_err, f"stderr {output[2]!r}, expected {expected_err!r}")


def check_solve(output, form: str) -> None:
    payload = _payload(output, 0, SOLVE_KEYS)
    expected = {"form": form, "n": 200, "count": 5, "richardson": True,
                "grid_size": 200, "extrapolated": True}
    for key, value in expected.items():
        _require(payload[key] == value, f"{key} = {payload[key]!r}, expected {value!r}")
    check_eigenvalues(payload["eigenvalues"], PAINE_ORACLE, EIG_TOL_N200, "solve")
    _require(output[2] == "", f"unexpected stderr {output[2]!r}")


def check_transform(output) -> None:
    payload = _payload(output, 0, TRANSFORM_KEYS)
    for key in ("left_bc", "right_bc"):
        _require(payload[key] == [1.0, 0.0], f"{key} = {payload[key]!r}, expected Dirichlet")
    _require(payload["samples"] == SAMPLES, f"samples = {payload['samples']!r}")
    check_invariant(payload["alpha"], payload["beta"], payload["t"],
                    payload["invariant"], 1.0, 0.1)
    _require(output[2] == "", f"unexpected stderr {output[2]!r}")


def check_rejection(output, code: int) -> None:
    got_code, out, err = output
    _require(got_code == code, f"exit code {got_code}, expected {code}; stderr {err!r}")
    _require(out == "", f"rejected input wrote stdout {out[:80]!r}")
    prefix = "error: " if code == 2 else "numerical failure: "
    _require(err.startswith(prefix), f"stderr {err!r} does not start with {prefix!r}")


def cli_op(argv, check) -> Operation:
    return Operation("slp " + " ".join(argv), lambda: run_cli(argv), check)


class CliWorkload(Workload):
    name = "cli"
    deadline_s = 20.0

    def setup(self, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for name, payload in PROBLEM_FILES.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            self.files[name] = str(path)
        for op in self.ops()[:2]:  # warm-up: one invert, one solve
            op.check(op.run())

    def ops(self) -> list:
        f = self.files
        solve = ["--n", "200", "--count", "5", "--richardson"]
        ops = [cli_op(["solve", f["paine"], *solve],
                      lambda out: check_solve(out, "schrodinger"))]
        ops += [cli_op(["invert", label, *args],
                       lambda out, label=label: check_invert(out, label))
                for label, args in INVERT_ARGS.items()]
        ops += [cli_op(["solve", f["case4"], *solve],
                       lambda out: check_solve(out, "canonical")),
                cli_op(["transform", f["case4"], "--samples", str(SAMPLES)],
                       check_transform)]
        ops += [cli_op([cmd, f[name], *extra],
                       lambda out, code=code: check_rejection(out, code))
                for cmd, name, extra, code in REJECTIONS]
        ops.append(cli_op(["invert", "case2-A1", "--k", "1", "--q0", "1"],
                          lambda out: check_rejection(out, 2)))
        return ops

    def round(self, rng):
        ops = self.ops()
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (VerifyWorkload(), TransformWorkload(), CliWorkload())}
