import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slpkit
from slpkit.cli import main

PI = math.pi

FREE = {"form": "schrodinger", "coefficients": {"invariant": "0"},
        "interval": [0.0, PI], "bc": "dirichlet"}
PAINE = {"form": "schrodinger", "coefficients": {"invariant": "1/((t+0.1)^2)"},
         "interval": [0.0, PI], "bc": "dirichlet"}
IDENTITY = {"form": "canonical",
            "coefficients": {"p": "1", "q": "0", "r": "1"},
            "interval": [0.0, PI], "bc": "dirichlet"}
CASE4 = {"form": "canonical",
         "coefficients": {"p": "(x+0.4472135954999579)^3",
                          "q": "4*(x+0.4472135954999579)",
                          "r": "(x+0.4472135954999579)^5"},
         "interval": [0.0, 2.098996393322564], "bc": "dirichlet"}
BAD_WEIGHT = {"form": "canonical", "coefficients": {"p": "1", "q": "0", "r": "x"},
              "interval": [-1.0, 1.0], "bc": "dirichlet"}
CASE1 = {"form": "canonical", "coefficients": {"p": "(5*x)^1.6", "q": "0", "r": "1"},
         "interval": [2.0000000000000003e-06, 71.58502696213006], "bc": "dirichlet"}
SINGULAR_P = {"form": "canonical", "coefficients": {"p": "(x-0.511)^2", "q": "0", "r": "1"},
              "interval": [0.0, 1.0], "bc": "dirichlet"}
DIP_P = {"form": "canonical",
         "coefficients": {"p": "1 - 1.5*exp(-((x-0.50225)/0.0001)^2)", "q": "0", "r": "1"},
         "interval": [0.0, 1.0], "bc": "dirichlet"}
BAD_EXPR = {"form": "schrodinger", "coefficients": {"invariant": "1/(t"},
            "interval": [0.0, PI], "bc": "dirichlet"}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_free_particle(tmp_path, capsys):
    path = write(tmp_path, "free.json", FREE)
    code, out, _ = run_cli(capsys, "solve", path, "--n", "200", "--count", "3",
                           "--richardson")
    assert code == 0
    payload = json.loads(out)
    for lam, exact in zip(payload["eigenvalues"], (1.0, 4.0, 9.0)):
        assert abs(lam - exact) <= 1e-6
    assert payload["richardson"] is True
    assert len(payload["error_estimates"]) == 3


def test_solve_paine_first_eigenvalue(tmp_path, capsys):
    path = write(tmp_path, "paine.json", PAINE)
    code, out, _ = run_cli(capsys, "solve", path, "--n", "2000", "--count", "1",
                           "--richardson")
    assert code == 0
    lam1 = json.loads(out)["eigenvalues"][0]
    assert lam1 == pytest.approx(1.5198658211, abs=1e-6)


def test_solve_rejects_malformed_expression(tmp_path, capsys):
    path = write(tmp_path, "bad.json", BAD_EXPR)
    code, _, err = run_cli(capsys, "solve", path)
    assert code == 2
    assert "offset" in err


def test_solve_accepts_whitespace_after_an_expression(tmp_path, capsys):
    bare = {**IDENTITY, "coefficients": {"p": "1+x^2", "q": "x", "r": "1"}}
    spaced = {**IDENTITY, "coefficients": {"p": "1+x^2 ", "q": "x \t", "r": "1\n"}}
    outputs = [run_cli(capsys, "solve", write(tmp_path, f"{i}.json", payload),
                       "--n", "200", "--count", "2")
               for i, payload in enumerate((bare, spaced))]
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("source", [
    "(" * 300 + "x" + ")" * 300, "-" * 2000 + "x", "+".join(["x"] * 5000)])
def test_solve_rejects_deep_nesting(tmp_path, capsys, source):
    path = write(tmp_path, "deep.json",
                 {**IDENTITY, "coefficients": {"p": "1", "q": source, "r": "1"}})
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out) == (2, "")
    assert "expression nested too deeply" in err


COEFFICIENT_TYPE = "must be an expression string or a number"


@pytest.mark.parametrize("payload, message", [
    ({**FREE, "interval": [False, True]}, "interval must be [lo, hi]"),
    ({**FREE, "interval": [0.0, True]}, "interval must be [lo, hi]"),
    ({**FREE, "coefficients": {"invariant": None}},
     f"coefficient 'invariant' {COEFFICIENT_TYPE}"),
    ({**FREE, "coefficients": {"invariant": True}},
     f"coefficient 'invariant' {COEFFICIENT_TYPE}"),
    ({**FREE, "coefficients": {"invariant": [1]}},
     f"coefficient 'invariant' {COEFFICIENT_TYPE}"),
    ({**IDENTITY, "coefficients": {"p": "1", "q": None, "r": "1"}},
     f"coefficient 'q' {COEFFICIENT_TYPE}"),
    # None writes no file, a str is written as it stands; a message that
    # names {path} is the whole text, any other follows "{path}: "
    (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ('{"form": ', "{path} is not valid JSON: Expecting value: line 1 column 10 (char 9)"),
    ([FREE], "top level must be an object"),
    ({**FREE, "form": "reduced"}, "form must be 'canonical' or 'schrodinger'"),
    ({**FREE, "coefficients": "0"}, "coefficients must be an object"),
    ({**FREE, "bc": "neumann"}, "only 'dirichlet' boundary conditions are supported"),
    ({**IDENTITY, "coefficients": {"p": "1", "q": "0"}},
     "canonical form needs coefficients ['r']"),
    ({**FREE, "coefficients": {"potential": "0"}},
     "schrodinger form needs coefficients.invariant"),
    ({**FREE, "interval": [0, 10**400]}, "interval endpoints must be within the double range"),
    ({**FREE, "interval": [-10**400, 0]}, "interval endpoints must be within the double range"),
])
def test_solve_rejects_malformed_fields(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    if payload is not None:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    expected = message.format(path=path) if "{path}" in message else f"{path}: {message}"
    assert err == f"error: {expected}\n"


def test_solve_rejects_an_integer_beyond_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "long.json"
    text = json.dumps({**FREE, "interval": [0, 0]})
    path.write_text(text.replace("[0, 0]", "[0, 1" + "0" * 5000 + "]"))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0:
        # no digit limit: the integer parses and is beyond the double range
        assert err == f"error: {path}: interval endpoints must be within the double range\n"
    else:
        assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit")
        assert "value has 5001 digits" in err


def test_solve_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(FREE).encode().replace(b'"0"', b'"\xff"'))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec can't decode")


def test_one_parser_serves_every_call(tmp_path, capsys):
    from slpkit import cli
    path = write(tmp_path, "free.json", FREE)
    calls = [["invert", "case4", "--k", "1", "--C1", "2"],
             ["solve", path, "--n", "200", "--count", "2"],
             ["solve", path, "--n", "many"],
             ["invert", "case4", "--k", "1", "--C1", "2"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    cli._parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    assert "invalid int value: 'many'" in reused[2][2]
    assert reused[3] == reused[0]


@pytest.mark.parametrize("hi, n, h2", [
    (1e-170, "1000", "0.0"),    # h^2 underflows: 1/h^2 is a division by zero
    (1e160, "200", "inf"),      # h^2 overflows: 1/h^2 = 0 drops the kinetic term
])
def test_solve_rejects_a_mesh_the_scheme_cannot_represent(tmp_path, capsys, hi, n, h2):
    payload = {**FREE, "coefficients": {"invariant": "t/1e160"}, "interval": [0.0, hi]}
    path = write(tmp_path, "mesh.json", payload)
    code, out, err = run_cli(capsys, "solve", path, "--n", n)
    assert (code, out) == (2, "")
    assert err.startswith("error: mesh width h = ")
    assert err.endswith(f"is out of range for the difference scheme: h^2 = {h2}\n")


def test_numeric_coefficients_match_their_text(tmp_path, capsys):
    numeric = {**IDENTITY, "coefficients": {"p": 1, "q": 0, "r": 1.0}}
    outputs = []
    for name, payload in (("text.json", IDENTITY), ("numeric.json", numeric)):
        code, out, _ = run_cli(capsys, "solve", write(tmp_path, name, payload),
                               "--n", "200", "--count", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_solve_numerical_failure_exit_code(tmp_path, capsys):
    path = write(tmp_path, "dip.json", DIP_P)
    code, _, err = run_cli(capsys, "solve", path, "--n", "1999", "--count", "2")
    assert code == 3
    assert "nonpositive p" in err


# ---------------------------------------------------------------------------
# transform


def test_transform_identity_problem(tmp_path, capsys):
    path = write(tmp_path, "ident.json", IDENTITY)
    code, out, _ = run_cli(capsys, "transform", path, "--samples", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 0.0
    assert payload["beta"] == pytest.approx(PI, abs=1e-12)
    assert all(abs(v) <= 1e-12 for v in payload["invariant"])
    assert payload["left_bc"] == [1.0, 0.0]


def test_transform_case4_matches_target(tmp_path, capsys):
    path = write(tmp_path, "case4.json", CASE4)
    code, out, _ = run_cli(capsys, "transform", path, "--samples", "101")
    assert code == 0
    payload = json.loads(out)
    for t, v in zip(payload["t"], payload["invariant"]):
        assert abs(v - 1.0 / (t + 0.1) ** 2) <= 1e-8


def test_transform_rejects_sign_changing_weight(tmp_path, capsys):
    path = write(tmp_path, "badw.json", BAD_WEIGHT)
    code, _, err = run_cli(capsys, "transform", path)
    assert code == 2
    assert "positivity" in err


@pytest.mark.parametrize("command, payload", [
    ("transform", {**IDENTITY, "interval": [-1e308, 1e308]}),
    ("solve", {**FREE, "interval": [-1e308, 1e308]}),
])
def test_an_interval_whose_width_overflows_is_an_input_error(tmp_path, capsys, command,
                                                             payload):
    # it used to reach numpy's linspace: two RuntimeWarnings, then exit 3
    path = write(tmp_path, "wide.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: [interval] width must be finite, got [-1e+308, 1e+308]\n"


def test_transform_rejects_an_interval_too_narrow_for_its_grid(tmp_path, capsys):
    # it used to refine every cell, then exit 2 naming an invariant of the
    # tabulated map ("tabulated map must be strictly increasing")
    path = write(tmp_path, "narrow.json", {**IDENTITY, "interval": [1.0, 1.0000000000000004]})
    code, out, err = run_cli(capsys, "transform", path)
    assert (code, out) == (2, "")
    assert err == ("error: interval [1.0, 1.0000000000000004] holds too few floats "
                   "for a grid of 2049 nodes\n")


def test_transform_rejects_a_schrodinger_file(tmp_path, capsys):
    path = write(tmp_path, "paine.json", PAINE)
    code, out, err = run_cli(capsys, "transform", path)
    assert (code, out) == (2, "")
    assert err == "error: transform expects a canonical problem file\n"


def test_transform_divergent_map_exit_code(tmp_path, capsys):
    path = write(tmp_path, "singular.json", SINGULAR_P)
    code, _, err = run_cli(capsys, "transform", path)
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    (("--samples", "1"), "--samples must be at least 2, got 1"),
    (("--samples", "0"), "--samples must be at least 2, got 0"),
    (("--quad-tol", "nan"), "quad_tol must be positive and finite, got nan"),
    (("--quad-tol", "inf"), "quad_tol must be positive and finite, got inf"),
])
def test_transform_rejects_bad_numeric_options(tmp_path, capsys, argv, message):
    path = write(tmp_path, "case4.json", CASE4)
    code, out, err = run_cli(capsys, "transform", path, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("solve", "paine.json", "--n", "1000001"), "--n must be at most 1000000, got 1000001"),
    (("solve", "paine.json", "--n", "100000000000"),
     "--n must be at most 1000000, got 100000000000"),
    (("verify", "case4", "--k", "1", "--C1", "2", "--n", "100000000000"),
     "--n must be at most 1000000, got 100000000000"),
    (("transform", "case4.json", "--samples", "100000000000"),
     "--samples must be at most 1000000, got 100000000000"),
])
def test_grid_sizes_past_the_bound_are_refused_before_any_work(tmp_path, capsys,
                                                               monkeypatch, argv, message):
    import slpkit.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a grid past the bound was not refused first")

    for name in ("load_problem", "solve_spectrum", "build_case", "forward_transform"):
        monkeypatch.setattr(slpkit.cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "paine.json", PAINE)
    write(tmp_path, "case4.json", CASE4)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_transform_csv_output(tmp_path, capsys):
    path = write(tmp_path, "case4.json", CASE4)
    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "transform", path, "--samples", "11",
                         "--csv", str(csv_path))
    assert code == 0
    raw = csv_path.read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "invariant"]
    assert len(rows) == 12
    assert float(rows[1][1]) == pytest.approx(100.0, rel=1e-10)


def test_transform_unwritable_csv_path(tmp_path, capsys):
    path = write(tmp_path, "case4.json", CASE4)
    csv_path = tmp_path / "no-such-dir" / "out.csv"
    code, out, err = run_cli(capsys, "transform", path, "--samples", "11",
                             "--csv", str(csv_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {csv_path}: No such file or directory\n"


# ---------------------------------------------------------------------------
# invert


def test_invert_case4_classical(capsys):
    code, out, _ = run_cli(capsys, "invert", "case4", "--k", "1", "--m", "0.1",
                           "--C1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["p"].startswith("(x+0.4472135954999")
    assert payload["interval"][1] == pytest.approx(
        math.sqrt(2 * PI + 0.2) - math.sqrt(0.2), rel=1e-13)
    assert payload["constants"]["delta0"] == pytest.approx(0.04)
    assert payload["map"]["t_of_x"]


def test_invert_case2_b_endpoint(capsys):
    code, out, _ = run_cli(capsys, "invert", "case2-B", "--k", "3", "--q0", "1",
                           "--m", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["interval"][0] == pytest.approx(0.1**3 / 3.0, rel=1e-12)


def test_invert_constraint_violation(capsys):
    code, _, err = run_cli(capsys, "invert", "case2-A1", "--k", "1", "--q0", "1")
    assert code == 2
    assert "equal indicial roots" in err


def test_invert_unknown_case_label(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "case9", "--k", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_invert_variant_selects_case1_k34_form(capsys):
    argv = ["invert", "case1", "--k", "0.75", "--m", "1", "--r0", "1"]
    code, out, _ = run_cli(capsys, *argv, "--variant", "exponential")
    assert code == 0
    assert json.loads(out)["p"] == "exp(-2*x)"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["p"] == "(4*x)^1.5"  # the default power form
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--variant", "A1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_invert_asymptotic_warns_on_stderr(capsys):
    code, out, err = run_cli(capsys, "invert", "case3-Y", "--k", "0.75",
                             "--q0", "1", "--r0", "1", "--m", "0.1")
    assert code == 0
    assert json.loads(out)["exact"] is False
    assert "warning" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_case4_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "case4", "--k", "1", "--m", "0.1",
                           "--C1", "2", "--n", "500", "--count", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["roundtrip_residual"] <= 1e-8


def test_verify_case3_y_report_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "case3-Y", "--k", "0.75", "--q0", "1",
                           "--r0", "1", "--m", "0.1", "--n", "500", "--count", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["trust_warnings"]


def test_verify_case1_minus_branch_never_silent(capsys):
    code, out, err = run_cli(capsys, "verify", "case1", "--k", "2", "--r0", "1",
                             "--branch", "minus", "--n", "500", "--count", "3")
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out)["passed"] is True
    else:
        assert err


def test_verify_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "verify", "case4", "--k", "-1", "--C1", "2")
    assert code == 2
    assert "k must be positive" in err


@pytest.mark.parametrize("argv, message", [
    (["invert", "case1", "--k", "1e300"], "case1: floating-point failure"),
    (["verify", "case1", "--k", "1e300"], "case1: floating-point failure"),
    (["invert", "case3-J", "--k", "1", "--q0", "1", "--r0", "inf"],
     "case3-J: r0 must be finite, got inf"),
    (["invert", "case3-J", "--k", "1", "--q0", "nan", "--r0", "1"],
     "case3-J: q0 must be finite, got nan"),
    (["invert", "case4", "--k", "1", "--C1", "2", "--x0", "nan"],
     "case4: x0 must be finite, got nan"),
    (["invert", "case4", "--k", "1", "--C1", "inf"], "case4: C1 must be finite, got inf"),
    (["invert", "case4-general", "--k", "1", "--C1", "2", "--nr", "nan"],
     "case4-general: n_r must be finite, got nan"),
    (["invert", "case3-Y", "--k", "1", "--q0", "1", "--r0", "1e-300"],
     "case3-Y: endpoint guard failed: zero scan of [1e+149, "),
    (["invert", "case3-Y", "--k", "1", "--q0", "1e300", "--r0", "1e-300"],
     "case3-Y: scaled Bessel argument sqrt(|q0|/r0)*(t+m) overflows "
     "for q0=1e+300, r0=1e-300"),
    (["invert", "case1", "--k", "1", "--x0", "1e300"],
     "case1: interval collapsed to one float, a=b=-1e+300; "
     "the shift is too large for its width"),
])
def test_extreme_construction_parameters_are_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# determinism and schemas


def test_repeated_invocations_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "case4.json", CASE4)
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "transform", path, "--samples", "31")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "invert", "case4", "--k", "1", "--m", "0.1",
                               "--C1", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# sha256 of stdout and of the CSV for fixed invocations, so a refactor of the
# map, the solver or the serializer cannot shift a printed digit unnoticed
PINNED_SHA256 = {
    "transform": "7a1a6bebe9b10871e73711e763c3bf53ba91414f9c63ec30118a217d53e7af8e",
    "transform.csv": "55b3c5410e2410ecbedd33a414245af72d47d1e1e561f30ad2a81466e86cfb43",
    # case1 (k=2, r0=1): its map refines at the left end, where case4's never does
    "transform case1": "bccfa3d452cf074974a1b837bf02230ca50f266baab790448300955e2bce054a",
    "solve": "921a666bc43bfcef85d722971a5c1edbb9dc7428b9dc70854ef0060502b98d93",
    "verify": "4f41340134aa90d02990bac97e2e74aac54dc83d5e40a9566565d7aee9958876",
}


def test_outputs_match_pinned_bytes(tmp_path, capsys):
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    csv_path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "transform", write(tmp_path, "case4.json", CASE4),
                           "--csv", str(csv_path))
    assert code == 0
    assert sha(out.encode()) == PINNED_SHA256["transform"]
    assert sha(csv_path.read_bytes()) == PINNED_SHA256["transform.csv"]

    code, out, err = run_cli(capsys, "transform", write(tmp_path, "case1.json", CASE1))
    assert (code, err) == (0, "")
    assert sha(out.encode()) == PINNED_SHA256["transform case1"]

    code, out, err = run_cli(capsys, "solve", write(tmp_path, "paine.json", PAINE),
                             "--n", "200", "--count", "5", "--richardson")
    assert (code, err) == (0, "")
    assert sha(out.encode()) == PINNED_SHA256["solve"]

    code, out, err = run_cli(capsys, "verify", "case4", "--k", "1", "--C1", "2",
                             "--n", "500", "--count", "2")
    assert (code, err) == (0, "")
    assert sha(out.encode()) == PINNED_SHA256["verify"]


def test_output_schemas(tmp_path, capsys):
    import jsonschema

    spectrum_schema = {
        "type": "object",
        "required": ["form", "n", "count", "richardson", "eigenvalues",
                     "error_estimates", "grid_size", "extrapolated"],
        "properties": {
            "eigenvalues": {"type": "array", "items": {"type": "number"}},
            "error_estimates": {"type": "array", "items": {"type": "number"}},
            "grid_size": {"type": "integer"},
        },
    }
    invert_schema = {
        "type": "object",
        "required": ["case", "exact", "interval", "p", "q", "r", "map",
                     "constants", "trust", "warnings"],
        "properties": {
            "interval": {"type": "array", "minItems": 2, "maxItems": 2},
            "map": {"type": "object", "required": ["t_of_x", "x_of_t"]},
            "warnings": {"type": "array", "items": {"type": "string"}},
        },
    }
    report_schema = {
        "type": "object",
        "required": ["case", "exact", "passed", "roundtrip_residual",
                     "spectral_gaps", "gap_budgets", "eigenvalues_canonical",
                     "eigenvalues_schrodinger", "trust_warnings", "parameters"],
    }
    path = write(tmp_path, "free.json", FREE)
    _, out, _ = run_cli(capsys, "solve", path, "--n", "200", "--count", "2")
    jsonschema.validate(json.loads(out), spectrum_schema)
    _, out, _ = run_cli(capsys, "invert", "case4", "--k", "1", "--C1", "2")
    jsonschema.validate(json.loads(out), invert_schema)
    _, out, _ = run_cli(capsys, "verify", "case4", "--k", "1", "--C1", "2",
                        "--n", "500", "--count", "2")
    jsonschema.validate(json.loads(out), report_schema)


def test_console_script_end_to_end(tmp_path):
    path = write(tmp_path, "free.json", FREE)
    # the child imports the same package as this process, installed or not
    package_root = str(Path(slpkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "slpkit.cli", "solve", path, "--n", "200",
         "--count", "1", "--richardson"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eigenvalues"][0] == pytest.approx(1.0, abs=1e-6)
