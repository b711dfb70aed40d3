import math

import pytest

from slpkit.expr import parse
from slpkit.problems import (CanonicalSLP, PaineSpec, SchrodingerSLP, Spectrum,
                             paine_schrodinger, validate)


def canonical(p="1", q="0", r="1", a=0.0, b=math.pi):
    return CanonicalSLP(parse(p), parse(q), parse(r), a, b)


def test_validate_accepts_constant_problem():
    assert validate(canonical()) == []


def test_validate_flags_sign_changing_weight():
    bad = validate(canonical(r="x", a=-1.0, b=1.0))
    assert any(v.code == "positivity" for v in bad)


def test_validate_flags_bad_interval():
    bad = validate(canonical(a=1.0, b=0.0))
    assert any(v.code == "interval" for v in bad)
    bad = validate(canonical(b=math.inf))
    assert any(v.code == "interval" for v in bad)


def test_validate_flags_evaluation_failure():
    bad = validate(canonical(p="sqrt(x)", a=-1.0, b=1.0))
    assert any(v.code == "evaluation" for v in bad)


def test_validate_schrodinger_invariant_evaluability():
    good = SchrodingerSLP(parse("0", "t"), 0.0, math.pi)
    assert validate(good) == []
    bad = SchrodingerSLP(parse("ln(t-1)", "t"), 0.0, math.pi)
    assert any(v.code == "evaluation" for v in validate(bad))


def test_paine_schrodinger_values():
    prob = paine_schrodinger(PaineSpec(1.0, 0.1))
    assert prob.invariant.evaluate(0.0) == pytest.approx(100.0)
    assert prob.invariant.evaluate(math.pi) == pytest.approx(1.0 / (math.pi + 0.1) ** 2)
    assert prob.alpha == 0.0 and prob.beta == math.pi
    assert validate(prob) == []

    assert paine_schrodinger(PaineSpec(2.0, 1.0)).invariant.evaluate(0.0) == pytest.approx(2.0)
    assert paine_schrodinger(PaineSpec(0.75, 0.5)).invariant.evaluate(0.0) == pytest.approx(3.0)


def test_paine_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PaineSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        PaineSpec(1.0, -0.5)
    with pytest.raises(ValueError):
        PaineSpec(math.nan, 0.1)


def test_spectrum_requires_strict_ordering():
    Spectrum((1.0, 2.0, 3.0), 10, False, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 1.0), 10, False, (0.0, 0.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 2.0), 10, False, (0.0,))
