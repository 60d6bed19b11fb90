"""Acceptance gate: the paper's claims that no verify registry row checks.

Each test prints as its own pass/fail line under pytest -v.  Criteria 2
(superintegrability brackets), 3 (flow against closed-form curves), 5
(actions), 6 (spectra and the count law) and 9 (curvature) are rows of
`koenigs.verify.CHECKS`, and `tests/test_verify.py` runs each row as its
own line.  The third turning-point anchor is recorded as a strict expected
failure: the closed form gives x_*(eta=10) = 1.6207, outside the reference
band 1.60 +- 0.01, and we do not widen gates to force green.
"""

import math

import pytest

from koenigs.errors import NotBounded
from koenigs.flow import closure_test
from koenigs.geodesics import classify
from koenigs.models import make_model
from koenigs.quantum import schrodinger_residual, spectrum
from koenigs.specfun import basis_coefficients, coefficient_oracle
from koenigs.verify import REGIME_CASES


def _turning_angle(eta):
    model = make_model("trig", 0.5, 4.0 * eta)
    regime = classify(model, 2.0 * eta, 1.0)
    assert regime.tag == "epos_single"
    return regime.params["x_star"]


def test_criterion_1_turning_point_anchors():
    assert _turning_angle(0.1) == pytest.approx(2.70, abs=0.01)
    assert _turning_angle(1.0) == pytest.approx(2.00, abs=0.01)


@pytest.mark.xfail(reason="closed form gives x_*(eta=10) = 1.6207, outside the 1.60 band", strict=True)
def test_criterion_1_third_anchor_literal():
    assert _turning_angle(10.0) == pytest.approx(1.60, abs=0.01)


def test_regime_cases_cover_ten_branches():
    # the flow rows of the registry integrate every REGIME_CASES entry
    assert len({(family, tag) for family, *_, tag in REGIME_CASES}) >= 10


def test_criterion_4_closure_dichotomy():
    model_h0 = make_model("h0", 0.8, 1.1)
    report = closure_test(model_h0, 0.5, 0.5, tol=1e-5)
    assert report["closed"] and report["gap"] < 1e-5
    assert report["angular_advance"] == pytest.approx(math.pi, abs=1e-6)

    model_hp = make_model("hplus", 2.0, 8.0)  # xi - rho L^2 = 6 > 0
    report = closure_test(model_hp, 1.8, 1.0, tol=1e-5)
    assert report["closed"] and report["gap"] < 1e-5
    assert report["angular_advance"] == pytest.approx(math.pi, abs=1e-6)

    with pytest.raises(NotBounded):
        closure_test(model_hp, 2.5, 1.0, tol=1e-5)  # e > 1 side
    with pytest.raises(NotBounded):
        closure_test(model_h0, 1.1 / 1.6 * 1.3, 0.5, tol=1e-5)


def test_criterion_7_eigenfunction_residuals():
    cases = (
        (make_model("h0", 0.8, 1.1), (1, 1)),
        (make_model("hplus", 0.5, 7.75), (1, 0)),
    )
    for model, (n, m) in cases:
        lv = [l for l in spectrum(model, n, max(m, 0)) if (l.n, l.m) == (n, m)][0]
        r_h = schrodinger_residual(model, lv, h=1e-3)
        r_half = schrodinger_residual(model, lv, h=5e-4)
        assert r_h < 1e-5, (model.family, r_h)
        assert r_h / r_half > 2.5, (model.family, r_h, r_half)


def test_criterion_8_oscillator_basis_expansion():
    for n in range(4):
        for m in range(0, 7 - 2 * n):
            table = basis_coefficients(n, m).entries
            for (n1, n2), c in table.items():
                assert abs(c - coefficient_oracle(n, m, n1, n2)) < 1e-8
