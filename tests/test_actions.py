import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from koenigs import actions
from koenigs.actions import action_quadrature, action_variables, energy_from_J
from koenigs.errors import DomainError, NotClosedRegime, QuadratureFailure
from koenigs.models import make_model


def _h0_window(model, L):
    e_plus = L**2 * (-model.rho + math.sqrt(model.rho**2 + model.xi / L**2))
    return e_plus, model.xi / (2.0 * model.rho)


def _hplus_window(model, L):
    e_plus = L * (math.sqrt(model.xi + model.rho * (model.rho - 1.0) * L**2)
                  - (model.rho - 0.5) * L)
    return e_plus, model.xi / (2.0 * model.rho)


def test_h0_closed_form_matches_quadrature(h0_model):
    L = 0.5
    lo, hi = _h0_window(h0_model, L)
    for E in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 8):
        av = action_variables(h0_model, float(E), L)
        quad_val = action_quadrature(h0_model, float(E), L)
        assert av.I_radial == pytest.approx(quad_val, rel=1e-12, abs=1e-12)
        assert av.I_angle == L
        assert av.J == pytest.approx(av.I_radial + av.I_angle, rel=1e-14)


def test_hplus_closed_form_matches_quadrature(hplus_model):
    L = 1.0
    lo, hi = _hplus_window(hplus_model, L)
    for E in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 8):
        av = action_variables(hplus_model, float(E), L)
        quad_val = action_quadrature(hplus_model, float(E), L)
        assert av.I_radial == pytest.approx(quad_val, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family,rho,xi,E", [("h0", 0.8, 1.1, 0.6), ("hplus", 2.0, 8.0, 1.9)])
def test_action_quadrature_small_angular_momentum(family, rho, xi, E):
    # in log q1 the centrifugal pole near the inner turning point is gone
    model = make_model(family, rho, xi)
    closed = action_variables(model, E, 1e-3).I_radial
    assert action_quadrature(model, E, 1e-3) == pytest.approx(closed, rel=1e-12)


def test_action_quadrature_at_the_h0_window_top(h0_model):
    # I(E) has condition number about 1e5 here, so a rounding of E alone
    # moves it by about 1e-11 relative
    L = 0.5
    e_plus, edge = _h0_window(h0_model, L)
    E = edge - 1e-5 * (edge - e_plus)
    closed = action_variables(h0_model, E, L).I_radial
    assert action_quadrature(h0_model, E, L) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("family,rho,xi,E,L", [("h0", 0.8, 1.1, 0.5, 0.5), ("hplus", 2.0, 8.0, 1.9, 1.0)])
def test_action_quadrature_refuses_a_moved_turning_point(monkeypatch, family, rho, xi, E, L):
    # an outer turning point 1e-6 too far out leaves a sqrt kink inside the
    # interval, and the trapezoid ladder does not settle
    classify = actions.classify

    def moved(model, E, L):
        regime = classify(model, E, L)
        q_lo, q_hi = regime.turning_points
        return dataclasses.replace(regime, turning_points=(q_lo, q_hi * (1.0 + 1e-6)))

    monkeypatch.setattr(actions, "classify", moved)
    with pytest.raises(QuadratureFailure, match="N 256 .* N 512"):
        action_quadrature(make_model(family, rho, xi), E, L)


def test_action_depends_only_on_J(h0_model, hplus_model):
    for model, L_pair, E in ((h0_model, (0.3, 0.5), 0.55), (hplus_model, (0.8, 1.0), 1.9)):
        js = [action_variables(model, E, L).J for L in L_pair]
        assert js[0] == pytest.approx(js[1], abs=1e-10)


def test_energy_roundtrip(h0_model, hplus_model):
    for model, L in ((h0_model, 0.5), (hplus_model, 1.0)):
        window = _h0_window if model.family == "h0" else _hplus_window
        lo, hi = window(model, L)
        for E in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 6):
            j = action_variables(model, float(E), L).J
            assert energy_from_J(model, j) == pytest.approx(float(E), abs=1e-10)


def test_radial_action_vanishes_at_circular_orbit(hplus_model):
    L = 1.0
    e_plus, _ = _hplus_window(hplus_model, L)
    assert abs(action_quadrature(hplus_model, e_plus, L)) < 1e-8


def test_action_window_invariant(h0_model, hplus_model):
    L = 0.5
    lo, hi = _h0_window(h0_model, L)
    for E in np.linspace(lo + 1e-3, hi - 1e-3, 6):
        av = action_variables(h0_model, float(E), L)
        assert av.J >= av.I_angle - 1e-12
    j_cap = math.sqrt(hplus_model.xi / hplus_model.rho)
    lo_p, hi_p = _hplus_window(hplus_model, 1.0)
    for E in np.linspace(lo_p + 1e-3, hi_p - 1e-3, 6):
        av = action_variables(hplus_model, float(E), 1.0)
        assert 1.0 - 1e-12 <= av.J < j_cap


def test_open_regime_rejected(h0_model):
    _, edge = _h0_window(h0_model, 0.5)
    with pytest.raises(NotClosedRegime):
        action_variables(h0_model, edge * 1.2, 0.5)
    with pytest.raises(NotClosedRegime):
        action_quadrature(h0_model, edge * 1.2, 0.5)


def test_families_without_closed_regimes_rejected():
    model = make_model("trig", 0.5, 0.7)
    with pytest.raises(NotClosedRegime):
        action_variables(model, 1.0, 1.0)


def test_energy_from_J_domain(h0_model, hplus_model):
    with pytest.raises(DomainError):
        energy_from_J(h0_model, -0.5)
    with pytest.raises(DomainError):
        energy_from_J(hplus_model, math.sqrt(hplus_model.xi / hplus_model.rho) + 0.1)
    # the window's top, J^2 = xi / rho exactly (rho 2, xi 8, J 2)
    assert hplus_model.rho * 2.0**2 == hplus_model.xi
    with pytest.raises(DomainError):
        energy_from_J(hplus_model, 2.0)


@pytest.mark.parametrize("xi", [-1.1, -0.1, 0.0])
def test_energy_from_J_rejects_h0_without_closed_orbits(xi):
    # xi < -rho^2 J^2 once took the square root of a negative number, and
    # -rho^2 J^2 <= xi <= 0 returned an energy with no closed orbit
    with pytest.raises(DomainError):
        energy_from_J(make_model("h0", 0.8, xi), 0.5)


@pytest.mark.parametrize("rho,xi,L", [(0.3, 1000.0, 1e-4), (3.0, 200.0, 1e-3)])
def test_hplus_action_matches_decimal_reference(rho, xi, L):
    # near the bottom of a deep window the difference of square roots
    # sqrt(xi - 2 (rho - 1) E) - sqrt(xi - 2 rho E) lost 1.7e-11 and 9.1e-13
    model = make_model("hplus", rho, xi)
    E = energy_from_J(model, L) * (1.0 + 1e-6)
    with localcontext() as ctx:
        ctx.prec = 50
        r, x, e = Decimal(rho), Decimal(xi), Decimal(E)
        ref = 2 * e / ((x - 2 * (r - 1) * e).sqrt() + (x - 2 * r * e).sqrt())
    J = action_variables(model, E, L).J
    assert float(abs(Decimal(J) - ref) / ref) <= 1e-14
