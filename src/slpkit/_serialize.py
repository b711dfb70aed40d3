"""Deterministic JSON emission for the CLI.

Numbers are written with 17 significant digits so every double round-trips
exactly; dictionaries serialize in insertion order, which the callers keep
fixed, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize nonfinite number {value!r}")
    if value == int(value) and abs(value) < 1e16:
        # keep a trailing .0 so the value reads back as a float
        return repr(float(value))
    return format(value, ".17g")


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def spectrum_dict(spectrum) -> dict:
    return {
        "eigenvalues": list(spectrum.eigenvalues),
        "error_estimates": list(spectrum.error_estimates),
        "grid_size": int(spectrum.grid_size),
        "extrapolated": bool(spectrum.extrapolated),
    }


def inverse_result_dict(result) -> dict:
    trust = {
        "expansion_point": result.validity.expansion_point,
        "trust_lo": result.validity.trust_lo,
        "trust_hi": result.validity.trust_hi,
    }
    return {
        "case": result.case_label,
        "exact": bool(result.exact),
        "interval": [result.canonical.a, result.canonical.b],
        "p": result.canonical.p.to_text(),
        "q": result.canonical.q.to_text(),
        "r": result.canonical.r.to_text(),
        "map": {"t_of_x": result.map.t_text, "x_of_t": result.map.x_text},
        "constants": {key: result.extras[key] for key in sorted(result.extras)},
        "trust": trust,
        "warnings": list(result.validity.warnings),
    }


def report_dict(report) -> dict:
    return {
        "case": report.case_label,
        "exact": bool(report.exact),
        "passed": bool(report.passed),
        "roundtrip_residual": report.roundtrip_residual,
        "spectral_gaps": list(report.spectral_gaps),
        "gap_budgets": list(report.gap_budgets),
        "eigenvalues_canonical": list(report.eigenvalues_canonical),
        "eigenvalues_schrodinger": list(report.eigenvalues_schrodinger),
        "trust_warnings": list(report.trust_warnings),
        "parameters": {key: report.parameters[key] for key in sorted(report.parameters)},
    }
