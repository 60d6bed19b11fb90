"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints as its own pass/fail line under pytest -v.  The third
turning-point anchor is recorded as a strict expected failure: the
closed form gives x_*(eta=10) = 1.6207, outside the reference band 1.60 +- 0.01
band, and we do not widen gates to force green.
"""

import math

import numpy as np
import pytest

from koenigs.actions import action_quadrature, action_variables, energy_from_J, integral_values_on_torus
from koenigs.errors import BoundaryReached, NotBounded
from koenigs.flow import closure_test, drift_report, integrate
from koenigs.geodesics import classify, curve_residual, start_point
from koenigs.invariants import conserved_functions, conserved_set, poisson_bracket
from koenigs.models import brioschi_curvature, hamiltonian, make_model, scalar_curvature
from koenigs.quantum import count_bound_levels, schrodinger_residual, shoot_eigenvalue, spectrum
from koenigs.specfun import basis_coefficients, coefficient_oracle, _cartesian_mode, _oscillator_mode
from koenigs.verify import REGIME_CASES, flow_span, _random_points, _VERIFY_MODELS


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


def test_criterion_2_superintegrability_brackets():
    # residuals follow the library's reporting rule: relative to the
    # larger of 1 and the magnitudes of the bracketed quantities
    rng = np.random.default_rng(20260819)
    for model in _VERIFY_MODELS.values():
        pts = _random_points(model, rng, 1000)
        funcs = conserved_functions(model)
        h_func = lambda z, m=model: hamiltonian(m, z)
        e_vals = hamiltonian(model, pts)
        for name in ("L", "S1", "S2"):
            vals = poisson_bracket(h_func, funcs[name], pts, h=1e-5, model=model)
            scale = np.maximum(1.0, np.maximum(np.abs(e_vals), np.abs(funcs[name](pts))))
            assert float(np.max(np.abs(vals) / scale)) < 1e-7, (model.family, name)


def test_criterion_3_flow_matches_closed_form_curves():
    assert len(REGIME_CASES) >= 10
    tags = set()
    for family, rho, xi, E, L, expected in REGIME_CASES:
        model = make_model(family, rho, xi)
        regime = classify(model, E, L)
        tags.add((family, regime.tag))
        try:
            traj = integrate(model, start_point(regime), flow_span(regime.tag, E), tol=1e-10)
        except BoundaryReached as reached:
            traj = reached.trajectory
        worst = max(curve_residual(regime, traj.point(i)) for i in range(len(traj.t)))
        assert worst < 1e-6, (family, regime.tag, worst)
        assert max(drift_report(traj).values()) < 1e-8, (family, regime.tag)
    assert len(tags) >= 10


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


def test_criterion_5_actions():
    for family, rho, xi, L in (("h0", 0.8, 1.1, 0.5), ("hplus", 2.0, 8.0, 1.0)):
        model = make_model(family, rho, xi)
        edge = xi / (2.0 * rho)
        if family == "h0":
            e_lo = L**2 * (-rho + math.sqrt(rho**2 + xi / L**2))
        else:
            e_lo = L * (math.sqrt(xi + rho * (rho - 1.0) * L**2) - (rho - 0.5) * L)
        sweep = np.linspace(e_lo + 0.02 * (edge - e_lo), edge - 0.02 * (edge - e_lo), 20)
        for E in sweep:
            av = action_variables(model, float(E), L)
            quad_val = action_quadrature(model, float(E), L)
            assert abs(av.I_radial - quad_val) <= 1e-8 * max(1.0, abs(av.I_radial))
            assert energy_from_J(model, av.J) == pytest.approx(float(E), abs=1e-10)

    model = make_model("h0", 0.8, 1.1)
    for E in np.linspace(0.45, 0.65, 5):
        s1_pred, s2_pred = integral_values_on_torus(model, float(E), 0.5)
        cs = conserved_set(model, start_point(classify(model, float(E), 0.5)))
        assert cs.S1 == pytest.approx(s1_pred, abs=1e-10)
        assert cs.S2 == pytest.approx(s2_pred, abs=1e-10)


def test_criterion_6_spectra_against_shooting():
    grids = [("h0", rho, xi) for rho in (0.5, 1.0, 2.0) for xi in (1.0, 3.0)]
    grids += [("hplus", 0.5, 7.75), ("hplus", 2.0, 31.75)]
    for family, rho, xi in grids:
        model = make_model(family, rho, xi)
        # highest n first: one solve per (model, |m|) returns every lower level
        for lv in sorted(spectrum(model, 3, 3), key=lambda lv: -lv.n):
            if lv.m < 0:
                continue  # the radial problem sees |m| only
            shot = shoot_eigenvalue(model, lv.m, lv.n)
            assert abs(shot - lv.E) < 1e-8, (family, rho, xi, lv.n, lv.m)

    single = make_model("hplus", 2.0, 3.75)
    levels = spectrum(single, 3, 3)
    assert len(levels) == 1
    assert levels[0].E == pytest.approx(math.sqrt(6.0) - 1.5, abs=1e-6)

    rng = np.random.default_rng(20260819)
    accepted = []
    while len(accepted) < 5 and rng:
        rho = float(rng.uniform(0.3, 3.0))
        if abs(rho - 1.0) < 0.05:
            continue
        xi = float(rng.uniform(0.5, 40.0))
        xe = xi + 0.25
        j_max = math.sqrt(xe / rho)
        j_levels = [j for j in range(1, int(j_max) + 2) if j < j_max]
        if not j_levels:
            continue
        if min(abs(j - j_max) for j in range(1, int(j_max) + 2)) < 0.05:
            continue
        model = make_model("hplus", rho, xi)
        top = max(j_levels)
        delta_min = xe - 2.0 * rho * top * (math.sqrt(xe + rho * (rho - 1.0) * top**2)
                                            - (rho - 0.5) * top)
        if delta_min < 0.2:
            continue
        accepted.append((rho, xi))
    assert len(accepted) == 5
    for rho, xi in accepted:
        model = make_model("hplus", rho, xi)
        j_max = math.sqrt((xi + 0.25) / rho)
        m = 0
        while m < j_max:
            predicted = sum(1 for n in range(64) if 2 * n + m + 1 < j_max)
            assert count_bound_levels(model, m) == predicted, (rho, xi, m)
            m += 1


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

    rng = np.random.default_rng(99)
    zeta = np.linspace(0.05, 9.0, 20)
    phi = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    Z, P = np.meshgrid(zeta, phi, indexing="ij")
    for n, m in ((0, 1), (1, 1), (2, 0), (0, 3)):
        table = basis_coefficients(n, m).entries
        for _ in range(20):
            lam, mu = rng.uniform(-1.0, 1.0, 2)
            total = sum((lam**n1) * (mu**n2) * (2.0 ** (n1 + n2)) * c
                        for (n1, n2), c in table.items())
            target = ((-1.0) ** n * (lam - 1j * mu) ** n
                      * (lam + 1j * mu) ** (n + m) / math.factorial(n))
            assert abs(total - target) < 1e-9
        resummed = sum(c * _cartesian_mode(n1, n2, Z, P) for (n1, n2), c in table.items())
        assert np.max(np.abs(resummed - _oscillator_mode(n, m, Z, P))) < 1e-9

    for n, m, shift in ((0, 1, 2), (1, 0, -2), (1, 1, 2)):
        total = 2 * n + abs(m) + shift
        for k in range(max(total, 0) + 1):
            assert abs(coefficient_oracle(n, m, k, total - k)) < 1e-9


def test_criterion_9_curvature():
    grids = {
        "trig": np.linspace(0.35, math.pi - 0.35, 20),
        "h0": np.linspace(0.3, 2.5, 20),
        "hplus": np.linspace(0.3, 2.2, 20),
        "affine": np.linspace(0.3, 2.5, 20),
    }
    for family, grid in grids.items():
        model = _VERIFY_MODELS[family]
        for q1 in grid:
            assert abs(scalar_curvature(model, q1) - brioschi_curvature(model, q1)) < 1e-6

    model = _VERIFY_MODELS["hminus"]
    near = math.asinh(1e-3 - model.rho)
    far = math.asinh(1.0 - model.rho)
    ratio = abs(scalar_curvature(model, near)) / abs(scalar_curvature(model, far))
    assert ratio > 1e6
