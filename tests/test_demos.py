"""Smoke test: the narrative demos run start to end against the public API."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_expressions_and_derivatives.py",
    "02_forward_transform.py",
    "03_exact_inversions.py",
    "04_asymptotic_inversions.py",
    "05_spectral_verification.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()
