"""Command-line front-end: `slp solve|transform|invert|verify`.

Problems load from JSON files:

    {"form": "canonical",   "coefficients": {"p": "...", "q": "...", "r": "..."},
     "interval": [a, b], "bc": "dirichlet", "metadata": {...}}
    {"form": "schrodinger", "coefficients": {"invariant": "..."},
     "interval": [lo, hi], "bc": "dirichlet"}

Canonical coefficients are expressions in x, the invariant in t.  Results
go to stdout as deterministic JSON (17-significant-digit numbers, fixed key
order); diagnostics go to stderr.  Exit codes: 0 success, 2 rejected input
or failed validation, 3 numerical failure, 1 failed verification.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import _serialize
from .errors import NumericalError
from .expr import parse as parse_expr
from .eigensolver import solve_spectrum
from .inverse import CASE_LABELS, build_case
from .liouville import forward_transform
from .problems import CanonicalSLP, PaineSpec, SchrodingerSLP, validate
from .verify import spectral_match


class ProblemFileError(ValueError):
    pass


def _is_number(value) -> bool:
    # bool is a subclass of int, but true/false are not numbers in a problem file
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coefficient(path: str, coeffs: dict, key: str, variable: str):
    value = coeffs[key]
    if not (isinstance(value, str) or _is_number(value)):
        raise ProblemFileError(
            f"{path}: coefficient {key!r} must be an expression string or a number")
    return parse_expr(str(value), variable)


def load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ProblemFileError(f"cannot read {path}: {err}") from None
    except ValueError as err:
        # JSONDecodeError, and an integer beyond Python's digit limit
        raise ProblemFileError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    form = data.get("form")
    coeffs = data.get("coefficients")
    interval = data.get("interval")
    bc = data.get("bc", "dirichlet")
    if form not in ("canonical", "schrodinger"):
        raise ProblemFileError(f"{path}: form must be 'canonical' or 'schrodinger'")
    if not isinstance(coeffs, dict):
        raise ProblemFileError(f"{path}: coefficients must be an object")
    if (not isinstance(interval, (list, tuple)) or len(interval) != 2
            or not all(_is_number(v) for v in interval)):
        raise ProblemFileError(f"{path}: interval must be [lo, hi]")
    if bc != "dirichlet":
        raise ProblemFileError(f"{path}: only 'dirichlet' boundary conditions are supported")
    try:
        lo, hi = float(interval[0]), float(interval[1])
    except OverflowError:  # a JSON integer beyond the double range
        raise ProblemFileError(
            f"{path}: interval endpoints must be within the double range") from None
    if form == "canonical":
        missing = [key for key in ("p", "q", "r") if key not in coeffs]
        if missing:
            raise ProblemFileError(f"{path}: canonical form needs coefficients {missing}")
        problem = CanonicalSLP(
            p=_coefficient(path, coeffs, "p", "x"),
            q=_coefficient(path, coeffs, "q", "x"),
            r=_coefficient(path, coeffs, "r", "x"),
            a=lo, b=hi)
    else:
        if "invariant" not in coeffs:
            raise ProblemFileError(f"{path}: schrodinger form needs coefficients.invariant")
        problem = SchrodingerSLP(
            invariant=_coefficient(path, coeffs, "invariant", "t"),
            alpha=lo, beta=hi)
    bad = validate(problem)
    if bad:
        raise ProblemFileError(f"{path}: " + "; ".join(str(v) for v in bad))
    return problem


def _emit(payload: dict) -> None:
    sys.stdout.write(_serialize.dumps(payload) + "\n")


def _cmd_solve(args) -> int:
    problem = load_problem(args.file)
    spectrum = solve_spectrum(problem, args.n, args.count, richardson=args.richardson)
    form = "canonical" if isinstance(problem, CanonicalSLP) else "schrodinger"
    payload = {"form": form, "n": args.n, "count": args.count,
               "richardson": bool(args.richardson)}
    payload.update(_serialize.spectrum_dict(spectrum))
    _emit(payload)
    return 0


def _cmd_transform(args) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    problem = load_problem(args.file)
    if not isinstance(problem, CanonicalSLP):
        raise ProblemFileError("transform expects a canonical problem file")
    reduced, map_ = forward_transform(problem, args.quad_tol)
    samples = args.samples
    ts = [reduced.alpha + (reduced.beta - reduced.alpha) * i / (samples - 1)
          for i in range(samples)]
    values = reduced.invariant.evaluate_many(ts)
    payload = {
        "alpha": reduced.alpha,
        "beta": reduced.beta,
        # (d0, d1) of d0*u - d1*p*u' = 0: both forms carry Dirichlet conditions
        "left_bc": [1.0, 0.0],
        "right_bc": [1.0, 0.0],
        "samples": samples,
        "t": ts,
        "invariant": values,
    }
    if args.csv:
        # written before the JSON, so an unwritable path leaves stdout empty
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t", "invariant"])
                for t, v in zip(ts, values):
                    writer.writerow([format(t, ".17g"), format(v, ".17g")])
        except OSError as err:
            raise ValueError(f"cannot write {args.csv}: {err.strerror}") from None
        print(f"wrote {args.csv}", file=sys.stderr)
    _emit(payload)
    return 0


def _build_from_args(args):
    spec = PaineSpec(args.k, args.m)
    return spec, build_case(
        args.case, spec, q0=args.q0, r0=args.r0, C1=args.C1, x0=args.x0,
        branch=args.branch, k34_branch=args.variant, n_r=args.nr)


def _cmd_invert(args) -> int:
    _, result = _build_from_args(args)
    _emit(_serialize.inverse_result_dict(result))
    for warning in result.validity.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    spec, result = _build_from_args(args)
    report = spectral_match(result, spec, count=args.count, n=args.n)
    _emit(_serialize.report_dict(report))
    return 0 if report.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: every add_argument makes a HelpFormatter,
    # which asks for the terminal size; parse_args leaves the parser as it is
    parser = argparse.ArgumentParser(
        prog="slp",
        description="Sturm-Liouville canonical/Schrodinger conversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="eigenvalues of a problem file")
    solve.add_argument("file")
    solve.add_argument("--n", type=int, default=1000)
    solve.add_argument("--count", type=int, default=5)
    solve.add_argument("--richardson", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    transform = sub.add_parser("transform", help="canonical -> Schrodinger form")
    transform.add_argument("file")
    transform.add_argument("--quad-tol", type=float, default=1e-10, dest="quad_tol")
    transform.add_argument("--samples", type=int, default=201)
    transform.add_argument("--csv", default=None)
    transform.set_defaults(func=_cmd_transform)

    def add_case_args(cmd):
        cmd.add_argument("case", choices=list(CASE_LABELS))
        cmd.add_argument("--k", type=float, required=True)
        cmd.add_argument("--m", type=float, default=0.1)
        cmd.add_argument("--q0", type=float, default=None)
        cmd.add_argument("--r0", type=float, default=None)
        cmd.add_argument("--C1", type=float, default=None)
        cmd.add_argument("--x0", type=float, default=None)
        cmd.add_argument("--branch", choices=["plus", "minus"], default="plus")
        # case1 at k = 3/4: the rho = 3/2 power form or the exponential form
        cmd.add_argument("--variant", choices=["power", "exponential"],
                         default="power")
        cmd.add_argument("--nr", type=float, default=None)

    invert = sub.add_parser("invert", help="construct a canonical form")
    add_case_args(invert)
    invert.set_defaults(func=_cmd_invert)

    verify = sub.add_parser("verify", help="construct and check a canonical form")
    add_case_args(verify)
    verify.add_argument("--n", type=int, default=2000)
    verify.add_argument("--count", type=int, default=5)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
