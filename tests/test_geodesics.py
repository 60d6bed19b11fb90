import math

import numpy as np
import pytest
from scipy.optimize import brentq

from koenigs.errors import DomainError, NoMotion, OutOfDomain
from koenigs.geodesics import (
    classify,
    curve_residual,
    radial_momentum_sq,
    start_point,
)
from koenigs.models import kernel, make_model
from koenigs.verify import REGIME_CASES, _window


@pytest.mark.parametrize("family,rho,xi,E,L,expected", REGIME_CASES)
def test_regime_tags(family, rho, xi, E, L, expected):
    model = make_model(family, rho, xi)
    regime = classify(model, E, L)
    assert regime.tag == expected


@pytest.mark.parametrize("family,rho,xi,E,L,expected", REGIME_CASES)
def test_radial_momentum_vanishes_at_turnings(family, rho, xi, E, L, expected):
    model = make_model(family, rho, xi)
    regime = classify(model, E, L)
    for t_pt in regime.turning_points:
        assert abs(radial_momentum_sq(model, E, L, t_pt)) < 1e-9


def test_radial_momentum_on_the_axis_raises_for_a_float_and_warns_for_numpy():
    # the scalar kernel runs on math, which raises where numpy divides by
    # zero with a warning; classify's turning points and start points stay
    # inside the chart, so no caller in the package meets it
    model = make_model("h0", 0.8, 1.1)
    with pytest.raises(ZeroDivisionError):
        radial_momentum_sq(model, 0.5, 0.5, 0.0)
    with pytest.warns(RuntimeWarning):
        assert radial_momentum_sq(model, 0.5, 0.5, np.zeros(1))[0] == -math.inf


@pytest.mark.parametrize("family,rho,xi,E,L,expected", REGIME_CASES)
def test_start_point_sits_on_curve(family, rho, xi, E, L, expected):
    model = make_model(family, rho, xi)
    regime = classify(model, E, L)
    pt = start_point(regime)
    assert curve_residual(regime, pt) < 1e-9


def test_e0_full_example_parameters():
    # E=0 with xi below -L^2 circulates fully; sinh(theta) = sqrt(|xi|/L^2 - 1)
    model = make_model("trig", 0.5, -2.0)
    regime = classify(model, 0.0, 1.0)
    assert regime.tag == "e0_full"
    assert regime.params["sinh_theta"] == pytest.approx(1.0, abs=1e-12)
    assert regime.params["theta"] == pytest.approx(math.asinh(1.0), abs=1e-12)


def test_trig_no_motion_above_sigma_one():
    model = make_model("trig", 0.5, 4.0)
    with pytest.raises(NoMotion):
        classify(model, 1.0, 1.0)


def test_h0_no_motion_below_circular_energy():
    model = make_model("h0", 0.8, 1.1)
    L = 0.5
    e_plus = L**2 * (-0.8 + math.sqrt(0.8**2 + 1.1 / L**2))
    with pytest.raises(NoMotion):
        classify(model, 0.5 * e_plus, L)


def test_h0_circular_at_window_bottom():
    model = make_model("h0", 0.8, 1.1)
    L = 0.5
    e_plus = L**2 * (-0.8 + math.sqrt(0.8**2 + 1.1 / L**2))
    regime = classify(model, e_plus, L)
    assert regime.eccentricity == pytest.approx(0.0, abs=1e-9)
    assert regime.closed


def test_h0_eccentricity_window():
    model = make_model("h0", 0.8, 1.1)
    L = 0.5
    e_plus = L**2 * (-0.8 + math.sqrt(0.8**2 + 1.1 / L**2))
    edge = 1.1 / 1.6
    inside = classify(model, 0.5 * (e_plus + edge), L)
    assert inside.closed and 0.0 < inside.eccentricity < 1.0
    above = classify(model, edge * 1.2, L)
    assert not above.closed


def test_negative_energy_is_reflected():
    model_pos = make_model("trig", 0.5, 2.0)
    model_neg = make_model("trig", 0.5, -2.0)
    pos = classify(model_pos, 1.0, 1.0)
    neg = classify(model_neg, -1.0, 1.0)
    assert neg.applied_map is not None
    assert pos.applied_map is None
    assert neg.turning_points[0] == pytest.approx(math.pi - pos.turning_points[0], abs=1e-12)


@pytest.mark.parametrize("family,rho,xi,E", [("h0", 0.8, 1.1, 0.6), ("hplus", 2.0, 8.0, 1.9)])
@pytest.mark.parametrize("L", [1e-2, 1e-3, 1e-4, 1e-6, 1e-9])
def test_turning_points_are_roots_at_small_angular_momentum(family, rho, xi, E, L):
    # as L -> 0 the outer root written as L^2 / (A - sqrt(delta)) cancels
    # (off by 1e-10 at L = 1e-3, dividing by zero at L = 1e-9); the Vieta
    # form (A + sqrt(delta)) / (-sigma) keeps both roots to rounding
    model = make_model(family, rho, xi)
    regime = classify(model, E, L)
    lo, hi = regime.turning_points
    mid = math.sqrt(lo * hi)

    def psq(q1):
        return radial_momentum_sq(model, E, L, q1)

    for t_pt, bracket in ((lo, (0.5 * lo, mid)), (hi, (mid, 2.0 * hi))):
        root = brentq(psq, *bracket, xtol=1e-300, rtol=1e-15)
        assert abs(t_pt - root) <= 1e-13 * root


@pytest.mark.parametrize("family,rho,xi,E", [("h0", 0.8, -1.1, -0.6), ("hplus", 0.5, -2.0, -1.5)])
@pytest.mark.parametrize("L", [1e-2, 1e-3, 1e-6])
def test_open_turning_point_with_negative_A_is_a_root(family, rho, xi, E, L):
    # open orbits with A < 0 (here sigma > 0): L^2 / (A + sqrt(delta))
    # cancels, the sum form (sqrt(delta) - A) / sigma does not
    model = make_model(family, rho, xi)
    regime = classify(model, E, L)
    assert regime.tag == "open" and regime.params["A"] < 0.0
    (t_pt,) = regime.turning_points
    root = brentq(lambda q1: radial_momentum_sq(model, E, L, q1), 0.5 * t_pt, 2.0 * t_pt,
                  xtol=1e-300, rtol=1e-15)
    assert abs(t_pt - root) <= 1e-13 * root


def test_edge_band_drops_the_far_root():
    # within 1e-12 of 2 rho E = xi the root at the chart's far edge is
    # dropped: the orbit is open from L^2/(2A) on h0 and L^2/|sigma| on hplus
    h0 = make_model("h0", 0.8, 1.1)
    E = 1.1 / 1.6 * (1.0 - 1e-14)
    regime = classify(h0, E, 0.5)
    assert regime.tag == "open"
    assert regime.turning_points[0] ** 2 == pytest.approx(0.25 / (2.0 * E), rel=1e-15)
    hplus = make_model("hplus", 2.0, 8.0)
    regime = classify(hplus, 2.0 - 1e-13, 1.0)
    assert regime.tag == "open"
    assert math.tanh(regime.turning_points[0]) ** 2 == pytest.approx(1.0 / 4.0, rel=1e-12)
    for model, E, L in ((hplus, 2.0, 2.5), (make_model("h0", 0.8, -1.1), -1.1 / 1.6, 0.5)):
        with pytest.raises(NoMotion):
            classify(model, E, L)


def test_h0_draw_next_to_the_edge_band_classifies():
    # 2 rho E - xi lies just outside an edge band scaled by max(1, |rho E|, |xi|)
    # alone; there the outer root written as L^2 / (E - sqrt(delta)) divides by zero
    model = make_model("h0", 0.14232908664317406, 39.41910208301015)
    regime = classify(model, 138.478729164435, 0.07470754388544995)
    assert all(math.isfinite(t_pt) and t_pt > 0.0 for t_pt in regime.turning_points)


def test_closed_families_seeded_sweep():
    # beyond REGIME_CASES: turning points are roots, the closed window is
    # (E_plus, xi / (2 rho)), and every regime's start point is on its curve
    rng = np.random.default_rng(20261018)
    for family in ("h0", "hplus"):
        for _ in range(300):
            rho = rng.uniform(0.1, 3.0)
            xi = rng.uniform(0.05, 40.0)
            L = rng.uniform(0.05, 2.0)
            edge = xi / (2.0 * rho)
            E = rng.uniform(-0.2, 1.3) * edge
            model = make_model(family, rho, xi)
            try:
                e_plus, _ = _window(model, L)
            except DomainError:
                e_plus = math.inf  # hplus with L^2 >= xi / rho: no closed window
            if min(abs(E - e_plus), abs(E - edge)) <= 1e-9 * edge:
                continue
            try:
                regime = classify(model, E, L)
            except NoMotion:
                assert not e_plus < E < edge
                continue
            assert regime.closed == (e_plus < E < edge)
            if regime.closed:
                assert 0.0 <= regime.eccentricity < 1.0
            for t_pt in regime.turning_points:
                _, b, c = kernel(model, t_pt)
                terms = abs(2.0 * E) + abs(b * L**2) + abs(c)
                assert abs(2.0 * E - b * L**2 - c) <= 1e-12 * terms
            assert curve_residual(regime, start_point(regime)) < 1e-9


@pytest.mark.parametrize("family, rho, xi", [("trig", 0.5, 0.8), ("h0", 0.8, 1.1), ("hplus", 2.0, 8.0),
                                             ("hminus", 0.6, 0.9), ("affine", 1.2, 1.0)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["E", "L"])
def test_classify_refuses_a_non_finite_energy_or_momentum(family, rho, xi, value, name):
    # L = nan used to pass the L <= 0 test: h0 returned a closed regime with
    # NaN turning points, trig and affine tagged E = nan epos_full and ellipse
    args = {"E": 0.5, "L": 0.5, name: value}
    with pytest.raises(DomainError, match=rf"{name}={value}"):
        classify(make_model(family, rho, xi), **args)


def test_curve_residual_rejects_points_outside_domain():
    model = make_model("h0", 0.8, 1.1)
    regime = classify(model, 0.5, 0.5)
    with pytest.raises(OutOfDomain):
        curve_residual(regime, (10.0, 0.0))


def test_affine_lines_slope():
    model = make_model("affine", 1.2, 2.0)
    regime = classify(model, 1.0, 1.0)
    assert regime.tag == "lines"
    # u = slope * |y - y0| with slope^2 = (2 rho E - L^2)/L^2
    assert regime.params["slope"] == pytest.approx(math.sqrt(1.4), rel=1e-12)


def test_affine_parabola_focal_length():
    model = make_model("affine", 1.2, 1.0)
    regime = classify(model, 1.0, math.sqrt(2.4))
    assert regime.tag == "parabola"
    vert = 2.0 * 1.0 - 1.0
    assert regime.params["focal"] == pytest.approx(math.sqrt(2.4) / (2.0 * math.sqrt(vert)), rel=1e-12)


def test_affine_ellipse_is_bounded():
    model = make_model("affine", 1.2, 1.0)
    regime = classify(model, 1.0, 2.0)
    assert regime.tag == "ellipse"
    lo, hi = regime.domain[0]
    assert lo == 0.0
    assert hi == pytest.approx(regime.params["u_star"])
    assert math.isfinite(hi)
