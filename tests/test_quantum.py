import math

import numpy as np
import pytest

from koenigs import quantum
from koenigs.errors import DomainError, NoBoundState
from koenigs.models import make_model
from koenigs.quantum import (
    count_bound_levels,
    eigenfunction,
    radial_problem,
    schrodinger_residual,
    shoot_eigenvalue,
    spectrum,
)


def _j_tilde(n, m):
    return 2 * n + abs(m) + 1


def test_h0_closed_form_levels():
    model = make_model("h0", 0.8, 1.1)
    for lv in spectrum(model, 2, 2):
        jt = _j_tilde(lv.n, lv.m)
        expected = jt * (math.sqrt(1.1 + 0.64 * jt**2) - 0.8 * jt)
        assert lv.J_tilde == jt
        assert lv.E == pytest.approx(expected, rel=1e-14)


def test_h0_spectrum_infinite_in_n():
    model = make_model("h0", 0.8, 1.1)
    assert len(spectrum(model, 6, 0)) == 7  # no window cap for this family


def test_hplus_window_caps_levels():
    model = make_model("hplus", 2.0, 3.75)
    levels = spectrum(model, 3, 3)
    assert len(levels) == 1
    only = levels[0]
    assert (only.n, only.m) == (0, 0)
    assert only.E == pytest.approx(math.sqrt(6.0) - 1.5, abs=1e-12)


def test_energies_degenerate_in_j_tilde():
    model = make_model("hplus", 2.0, 31.75)
    by_j = {}
    for lv in spectrum(model, 3, 3):
        by_j.setdefault(lv.J_tilde, []).append(lv.E)
    assert any(len(v) >= 3 for v in by_j.values())
    for energies in by_j.values():
        assert max(energies) - min(energies) < 1e-13


def test_spectrum_sorted_and_sign_symmetric():
    model = make_model("h0", 0.5, 3.0)
    levels = spectrum(model, 2, 2)
    energies = [lv.E for lv in levels]
    assert energies == sorted(energies)
    pairs = {(lv.n, lv.m) for lv in levels}
    assert (0, 1) in pairs and (0, -1) in pairs


def test_nonpositive_coupling_rejected():
    model = make_model("h0", 0.8, -1.0)
    with pytest.raises(DomainError):
        spectrum(model, 1, 1)


def test_shooting_matches_formula_spot():
    model = make_model("h0", 2.0, 3.0)
    levels = {(lv.n, lv.m): lv.E for lv in spectrum(model, 1, 1)}
    assert shoot_eigenvalue(model, 0, 1) == pytest.approx(levels[(1, 0)], abs=1e-8)
    assert shoot_eigenvalue(model, 1, 0) == pytest.approx(levels[(0, 1)], abs=1e-8)


def test_shooting_matches_formula_hplus_spot():
    # (n=1, m=0) has J_tilde = 3, inside the window sqrt(xi_tilde/rho) = 4;
    # (n=1, m=1) would sit exactly on the continuum edge and is excluded
    model = make_model("hplus", 0.5, 7.75)
    levels = {(lv.n, lv.m): lv.E for lv in spectrum(model, 1, 1)}
    assert (1, 1) not in levels
    assert shoot_eigenvalue(model, 0, 1) == pytest.approx(levels[(1, 0)], abs=1e-8)
    assert shoot_eigenvalue(model, 1, 0) == pytest.approx(levels[(0, 1)], abs=1e-8)


def test_count_bound_levels_matches_window():
    model = make_model("hplus", 0.5, 7.75)
    j_max = math.sqrt(8.0 / 0.5)  # = 4
    for m in range(0, 4):
        predicted = sum(1 for n in range(32) if 2 * n + m + 1 < j_max)
        assert count_bound_levels(model, m) == predicted


def _count_cases():
    # seeded wells on both sides of rho = 1, m up to the window J_max; at
    # xi = 4.2661 the grid's n = 1 level sits 4.4e-7 below the probe, at
    # xi = 4.2659 it sits 5.9e-7 above
    rng = np.random.default_rng(7)
    cases = [(0.5, 4.2661, 0), (0.5, 4.2659, 0)]
    for i in range(10):
        rho = rng.uniform(0.3, 1.0) if i % 2 else rng.uniform(1.0, 3.0)
        xi = rng.uniform(0.3, 60.0)
        j_max = math.sqrt((xi + 0.25) / rho)
        cases.append((rho, xi, int(rng.integers(0, math.floor(j_max) + 1))))
    return cases


@pytest.mark.parametrize("rho, xi, m", _count_cases())
def test_count_bound_levels_equals_refined_count(rho, xi, m):
    # the count from two Sturm counts against every level bisected to
    # full precision on the same matrix
    model = make_model("hplus", rho, xi)
    probe = quantum._edge(model) * (1.0 - 1e-6)
    refined = quantum._eigenvalues(
        model, m, quantum._X_MAX, quantum._H_COARSE, select="v", select_range=(0.0, probe)
    )
    assert count_bound_levels(model, m) == len(refined)


def test_count_bound_levels_h0_rejected():
    model = make_model("h0", 0.8, 1.1)
    with pytest.raises(DomainError):
        count_bound_levels(model, 0)


def test_no_bound_state_beyond_window():
    model = make_model("hplus", 2.0, 3.75)
    with pytest.raises(NoBoundState):
        shoot_eigenvalue(model, 0, 1)  # J_tilde = 3 exceeds sqrt(2)
    with pytest.raises(NoBoundState):
        shoot_eigenvalue(model, 0, 10**6)  # more levels than any grid has cells


def test_eigenfunction_nodes_and_angular_factor():
    model = make_model("h0", 0.8, 1.1)
    lv = [l for l in spectrum(model, 2, 1) if (l.n, l.m) == (2, 1)][0]
    # nodes for this level sit near r = 3.34 and 6.46
    r = np.linspace(0.05, 10.0, 2000)
    vals = np.array([eigenfunction(model, lv, (ri, 0.0)) for ri in r])
    radial = vals.real
    sign_changes = np.sum(radial[:-1] * radial[1:] < 0)
    assert sign_changes == 2
    # angular factor is a pure phase e^{i m phi}
    v0 = eigenfunction(model, lv, (1.0, 0.0))
    v1 = eigenfunction(model, lv, (1.0, 0.7))
    assert abs(v1 / v0 - np.exp(1j * 0.7)) < 1e-12


def test_radial_problem_validation(h0_model):
    prob = radial_problem(h0_model, 1)
    assert prob.m == 1


def _hand_flux_coefficients(model, m, x):
    # reference: the h0 and hplus radial operators derived by hand, times
    # twice the measure W r (h0) or W sinh(chi) / cosh(chi)^2 (hplus)
    if model.family == "h0":
        return x, m**2 / x + model.xi * x**3, 2.0 * x * (1.0 + model.rho * x**2)
    s = np.sinh(x)
    c2 = 1.0 + s * s
    return s, m**2 / s + model.xi * s**3 / c2, 2.0 * (1.0 + model.rho * s * s) * s / c2


@pytest.mark.parametrize("family, rho, xi, x_max", [
    ("h0", 0.8, 1.1, 60.0), ("h0", 2.0, 3.0, 60.0),
    ("hplus", 0.5, 7.75, quantum._X_MAX), ("hplus", 2.0, 31.75, quantum._X_MAX),
])
def test_flux_coefficients_match_hand_formulas(family, rho, xi, x_max):
    # the Carter operator read from the kernel is the hand-derived radial
    # operator on every face and centre of the fine grid
    model = make_model(family, rho, xi)
    h = quantum._H_FINE
    x = 0.5 * h * np.arange(1, 2 * round(x_max / h) + 1)
    for m in (0, 1, 5):
        got = quantum._flux_coefficients(model, m, x)
        for g, ref in zip(got, _hand_flux_coefficients(model, m, x)):
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(ref))
            assert np.max(np.abs(g - ref) / np.abs(ref)) < 1e-13


@pytest.mark.parametrize("family, rho, xi, n, m", [("h0", 0.8, 1.1, 1, 1), ("hplus", 0.5, 7.75, 1, 0)])
def test_flux_coefficients_annihilate_closed_form_wave(family, rho, xi, n, m):
    # -(p y')' + V y - E w y on the closed-form radial wave, by central differences
    model = make_model(family, rho, xi)
    lv = [l for l in spectrum(model, n, m) if (l.n, l.m) == (n, m)][0]
    prob = radial_problem(model, m)
    x = np.linspace(0.2, 4.0, 200)
    h = 1e-4

    def flux(u):
        return prob.p(u) * (quantum._radial_wave(model, lv, u + h / 2)
                            - quantum._radial_wave(model, lv, u - h / 2)) / h

    y = quantum._radial_wave(model, lv, x)
    div = (flux(x + h / 2) - flux(x - h / 2)) / h
    res = -div + (prob.V(x) - lv.E * prob.w(x)) * y
    scale = np.abs(div) + np.abs(prob.V(x) * y) + np.abs(lv.E * prob.w(x) * y)
    assert np.max(np.abs(res)) < 1e-5 * np.max(scale)


def test_level_cache_bounded_and_reused(monkeypatch):
    solves = []
    real = quantum._solve_levels

    def counting(model, m, k):
        solves.append((model, m, k))
        return real(model, m, k)

    monkeypatch.setattr(quantum, "_solve_levels", counting)
    monkeypatch.setattr(quantum, "_LEVELS", {})
    model = make_model("hplus", 2.0, 31.75)
    high = shoot_eigenvalue(model, 0, 1)
    low = shoot_eigenvalue(model, 0, 0)
    assert shoot_eigenvalue(model, 0, 1) == high and low < high
    assert len(solves) == 1
    for i in range(quantum._LEVEL_CACHE_CAP + 5):
        shoot_eigenvalue(make_model("hplus", 2.0, 31.75 + 0.01 * (i + 1)), 1, 0)
        assert len(quantum._LEVELS) <= quantum._LEVEL_CACHE_CAP
    assert (model, 0) not in quantum._LEVELS  # the oldest entry went first


def test_residual_converges_quadratically():
    model = make_model("h0", 0.8, 1.1)
    lv = [l for l in spectrum(model, 1, 1) if (l.n, l.m) == (1, 1)][0]
    r1 = schrodinger_residual(model, lv, h=1e-3)
    r2 = schrodinger_residual(model, lv, h=5e-4)
    assert r1 < 1e-5
    assert r1 / r2 > 2.5
