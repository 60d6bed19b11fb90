import math

import numpy as np
import pytest

from koenigs.errors import BoundaryReached, NotBounded
from koenigs.flow import _rhs, closure_test, drift_report, integrate
from koenigs.geodesics import classify, curve_residual, start_point
from koenigs.models import (
    FAMILIES,
    PhasePoint,
    chart_margin,
    hamiltonian,
    make_model,
    make_point,
)
from koenigs.verify import _VERIFY_MODELS, _random_points


def test_drift_small_on_long_bounded_run(h0_model):
    # several radial periods of a closed orbit; momenta stay order one,
    # so absolute drift tracks the integrator tolerance
    regime = classify(h0_model, 0.5, 0.5)
    traj = integrate(h0_model, start_point(regime), 100.0, tol=1e-10)
    rep = drift_report(traj)
    assert max(rep.values()) < 1e-8


def test_drift_monotone_in_tol(h0_model):
    regime = classify(h0_model, 0.5, 0.5)
    start = start_point(regime)
    drifts = []
    for tol in (1e-6, 1e-10):
        traj = integrate(h0_model, start, 12.0, tol=tol)
        drifts.append(max(drift_report(traj).values()))
    assert drifts[0] > drifts[1]


def test_trajectory_times_increase_and_shapes_match(h0_model):
    regime = classify(h0_model, 0.5, 0.5)
    traj = integrate(h0_model, start_point(regime), 3.0, tol=1e-9, samples=57)
    assert len(traj.t) == 57
    assert np.all(np.diff(traj.t) > 0)
    assert traj.states.shape == (57, 4)
    assert len(traj.samples) == 57


def test_boundary_event_carries_partial_trajectory():
    # zero-energy arcs run into the x -> 0 chart edge
    model = make_model("trig", 0.5, -0.5)
    regime = classify(model, 0.0, 1.0)
    with pytest.raises(BoundaryReached) as excinfo:
        integrate(model, start_point(regime), 50.0, tol=1e-9)
    reached = excinfo.value
    assert reached.trajectory is not None
    assert 0.0 < reached.t <= 50.0
    assert reached.point is not None


@pytest.mark.parametrize("family", FAMILIES)
def test_rhs_matches_central_differences_of_hamiltonian(family):
    # the complex-step derivatives of the kernel against a plain
    # central difference of H: -dH/dq1, dH/dp1, dH/dp2
    model = _VERIFY_MODELS[family]
    pts = _random_points(model, np.random.default_rng(11), 100)
    f = _rhs(model)
    for q1, q2, p1, p2 in zip(pts.q1, pts.q2, pts.p1, pts.p2):
        dq1, dq2, dp1, _ = f(0.0, (q1, q2, p1, p2))

        def dH(i):
            z = [q1, q2, p1, p2]
            h = 1e-5 * max(1.0, abs(z[i]))
            z[i] += h
            up = hamiltonian(model, PhasePoint(*z))
            z[i] -= 2.0 * h
            return (up - hamiltonian(model, PhasePoint(*z))) / (2.0 * h)

        for got, want in ((dp1, -dH(0)), (dq1, dH(2)), (dq2, dH(3))):
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (q1, got, want)


def test_hminus_edge_stops_the_run():
    # a radial geodesic (xi = 0) reaches the edge sinh(x) + rho = 0
    model = make_model("hminus", 0.6, 0.0)
    start = make_point(model, 0.5, 0.0, -3.0, 0.0)
    with pytest.raises(BoundaryReached) as excinfo:
        integrate(model, start, 20.0, tol=1e-10)
    assert abs(excinfo.value.point.q1 - math.asinh(-0.6)) < 1e-6


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("p1", [-3.0, -1.0])
def test_hminus_fall_into_the_edge_is_boundary_reached(p1, tol):
    # with xi < 0 dq1/dt blows up at sinh(x) + rho = 0: DOP853 gives up a few
    # 1e-8 inside the edge, or its event point lands beyond it; either way
    # the reported point and the trajectory's last row lie inside the chart
    model = make_model("hminus", 0.6, -0.5)
    for samples in (400, 0):
        with pytest.raises(BoundaryReached) as excinfo:
            integrate(model, PhasePoint(0.5, 0.0, p1, 0.0), 5.0, tol=tol, samples=samples)
        assert 0.0 < chart_margin(model, excinfo.value.point.q1) < 1e-6
        assert chart_margin(model, excinfo.value.trajectory.states[-1, 0]) > 0.0


def test_trajectory_counts_solver_evaluations(h0_model):
    # DOP853 makes 12 evaluations per accepted step, more for rejected ones
    regime = classify(h0_model, 0.5, 0.5)
    traj = integrate(h0_model, start_point(regime), 30.0, tol=1e-10, samples=0)
    assert traj.nfev >= 12 * (len(traj.t) - 1)


def test_trig_orbit_reaches_the_pi_edge(trig_model):
    # x reaches pi - 1e-9 at t = 12.7; a short span keeps a missing event
    # from stepping on towards the edge for long
    start = make_point(trig_model, 0.5 * math.pi, 0.0, 2.0, 0.0)
    with pytest.raises(BoundaryReached) as excinfo:
        integrate(trig_model, start, 14.0, tol=1e-10)
    assert abs(excinfo.value.point.q1 - math.pi) < 1e-6


def test_time_reversal_returns_to_start(hplus_model):
    regime = classify(hplus_model, 1.8, 1.0)
    start = start_point(regime)
    fwd = integrate(hplus_model, start, 2.0, tol=1e-10, samples=2)
    end = fwd.point(-1)
    back = integrate(hplus_model, PhasePoint(end.q1, end.q2, -end.p1, -end.p2),
                     2.0, tol=1e-10, samples=2)
    ret = back.point(-1)
    assert ret.q1 == pytest.approx(start.q1, abs=1e-9)
    assert ret.q2 == pytest.approx(start.q2, abs=1e-9)
    assert ret.p1 == pytest.approx(-start.p1, abs=1e-9)
    assert ret.p2 == pytest.approx(-start.p2, abs=1e-9)


def test_flow_stays_on_classified_curve(h0_model):
    regime = classify(h0_model, 0.5, 0.5)
    traj = integrate(h0_model, start_point(regime), 12.0, tol=1e-10)
    worst = max(curve_residual(regime, traj.point(i)) for i in range(len(traj.t)))
    assert worst < 1e-6


def test_radial_momentum_flips_with_continuous_integrals(h0_model):
    # radial period here is about 13.4, so 30 time units give several flips
    regime = classify(h0_model, 0.5, 0.5)
    traj = integrate(h0_model, start_point(regime), 30.0, tol=1e-10, samples=1500)
    p1 = traj.states[:, 2]
    flips = np.nonzero(p1[:-1] * p1[1:] < 0.0)[0]
    assert flips.size >= 2
    diag = traj.diagnostics
    for i in flips:
        for series in (diag.E, diag.L, diag.S1, diag.S2):
            assert abs(series[i + 1] - series[i]) < 1e-7


def test_affine_line_regime_traces_straight_lines():
    model = make_model("affine", 1.2, 2.0)
    regime = classify(model, 1.0, 1.0)
    slope = regime.params["slope"]
    y0 = regime.params["y0"]
    try:
        traj = integrate(model, start_point(regime), 2.0, tol=1e-10)
    except BoundaryReached as reached:
        traj = reached.trajectory
    for i in range(len(traj.t)):
        pt = traj.point(i)
        assert abs(pt.q1 - slope * abs(pt.q2 - y0)) < 1e-6


def test_closure_h0_window():
    model = make_model("h0", 0.8, 1.1)
    report = closure_test(model, 0.5, 0.5, tol=1e-5)
    assert report["closed"]
    assert report["gap"] < 1e-5
    assert report["angular_advance"] == pytest.approx(math.pi, abs=1e-6)


def test_closure_hplus_window(hplus_model):
    report = closure_test(hplus_model, 1.8, 1.0, tol=1e-5)
    assert report["closed"]
    assert report["gap"] < 1e-5
    assert report["angular_advance"] == pytest.approx(math.pi, abs=1e-6)


def test_closure_rejects_unbounded_regime(hplus_model):
    # above the essential edge the orbit opens up (e > 1)
    with pytest.raises(NotBounded):
        closure_test(hplus_model, 2.5, 1.0, tol=1e-5)
