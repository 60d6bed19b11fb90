import importlib.util
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.optimize import brentq

from koenigs import flow
from koenigs.errors import BoundaryReached, ChartError, DomainError, NotBounded, StepFailure
from koenigs.flow import _rhs, closure_test, drift_report, integrate
from koenigs.geodesics import classify, curve_residual, start_point
from koenigs.models import (
    FAMILIES,
    FAMILY,
    PhasePoint,
    chart_margin,
    hamiltonian,
    kernel,
    make_model,
    make_point,
)
from koenigs.verify import REGIME_CASES, _VERIFY_MODELS, _random_points, _regime, _window, flow_span


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
    for q1, q2, p1, p2 in zip(pts.q1, pts.q2, pts.p1, pts.p2):
        dq1, dq2, dp1 = _rhs(model, p2)(q1, p1)

        def dH(i):
            z = [q1, q2, p1, p2]
            h = 1e-5 * max(1.0, abs(z[i]))
            z[i] += h
            up = hamiltonian(model, PhasePoint(*z))
            z[i] -= 2.0 * h
            return (up - hamiltonian(model, PhasePoint(*z))) / (2.0 * h)

        for got, want in ((dp1, -dH(0)), (dq1, dH(2)), (dq2, dH(3))):
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (q1, got, want)


@pytest.mark.parametrize("family", FAMILIES)
def test_rhs_real_parts_are_the_float_kernel(family):
    # the real parts of the complex step are a and b at q1; cmath's sinh and
    # cosh differ from numpy's float64 ones by up to 2 ulp, and the hplus b
    # chains six of them
    model = _VERIFY_MODELS[family]
    q1 = _random_points(model, np.random.default_rng(13), 5000).q1.tolist()
    f = _rhs(model, 1.0)
    got = np.array([f(x, 1.0)[:2] for x in q1])
    want = np.array([kernel(model, x)[:2] for x in q1])
    assert np.all(np.abs(got - want) <= 16.0 * np.spacing(np.abs(want)))


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
    # the reported point and the trajectory's last row lie inside the chart,
    # and the partial trajectory's times stay strictly increasing
    model = make_model("hminus", 0.6, -0.5)
    for samples in (400, 0):
        with pytest.raises(BoundaryReached) as excinfo:
            integrate(model, PhasePoint(0.5, 0.0, p1, 0.0), 5.0, tol=tol, samples=samples)
        assert 0.0 < chart_margin(model, excinfo.value.point.q1) < 1e-6
        assert chart_margin(model, excinfo.value.trajectory.states[-1, 0]) > 0.0
        assert np.all(np.diff(excinfo.value.trajectory.t) > 0)


def test_trajectory_counts_solver_evaluations(h0_model):
    # two evaluations pick the first step, then 12 per attempted step; with
    # samples=0 and no event no interpolant is built
    regime = classify(h0_model, 0.5, 0.5)
    traj = integrate(h0_model, start_point(regime), 30.0, tol=1e-10, samples=0)
    assert traj.nfev == 2 + 12 * (traj.accepted + traj.rejected)
    assert len(traj.t) == traj.accepted + 1
    assert (traj.accepted, traj.rejected, traj.nfev) == (89, 29, 1418)


@pytest.mark.parametrize("t_end, tol", [(math.inf, 1e-10), (math.nan, 1e-10), (-1.0, 1e-10),
                                        (0.0, 1e-10), (30.0, math.inf), (30.0, math.nan),
                                        (30.0, 0.0)])
def test_span_and_tolerance_must_be_positive_and_finite(h0_model, t_end, tol):
    # an infinite span used to step on forever, a row per step
    start = start_point(classify(h0_model, 0.5, 0.5))
    with pytest.raises(StepFailure, match="positive and finite"):
        integrate(h0_model, start, t_end, tol=tol, samples=0)


@pytest.mark.parametrize("tol", [1e-100, 1e-200])
def test_tolerance_below_the_floor_is_refused(h0_model, tol):
    # 1e-100 stepped on for over a minute; 1e-200 overflowed in the initial
    # step's (v / s) ** 2
    start = start_point(classify(h0_model, 0.5, 0.5))
    with pytest.raises(StepFailure, match="below 100 eps"):
        integrate(h0_model, start, 30.0, tol=tol, samples=0)


@pytest.mark.parametrize("samples", [-1, 2.5, 50.0, "50", None])
def test_samples_must_be_a_whole_count(h0_model, samples):
    start = start_point(classify(h0_model, 0.5, 0.5))
    with pytest.raises(DomainError, match="samples"):
        integrate(h0_model, start, 3.0, samples=samples)


def test_samples_take_numpy_integers(h0_model):
    start = start_point(classify(h0_model, 0.5, 0.5))
    traj = integrate(h0_model, start, 3.0, samples=np.int64(7))
    assert len(traj.t) == 7


def _oracle(model, start, t_end, tol, samples):
    """scipy's own DOP853 on the same right-hand side and edge events."""
    f = _rhs(model, start.p2)
    lo, hi = FAMILY[model.family].chart(model.rho)
    gaps = [lambda t, z: z[0] - (lo + 1e-9)]
    if hi < math.inf:
        gaps.append(lambda t, z: (hi - 1e-9) - z[0])
    for gap in gaps:
        gap.terminal, gap.direction = True, -1.0
    return solve_ivp(lambda t, z: (*f(z[0], z[2]), 0.0), (0.0, t_end),
                     [start.q1, start.q2, start.p1, start.p2],
                     method="DOP853", rtol=tol, atol=tol, events=gaps,
                     t_eval=np.linspace(0.0, t_end, samples) if samples else None)


def _regime_run(case, samples):
    model, regime = _regime(case)
    start = start_point(regime)
    span = flow_span(case[5], case[3])
    return integrate(model, start, span, tol=1e-10, samples=samples), \
        _oracle(model, start, span, 1e-10, samples)


@pytest.mark.parametrize("case", REGIME_CASES, ids=lambda c: f"{c[0]}-{c[5]}")
def test_steps_match_solve_ivp(case):
    # same tableau and controller: the same steps and evaluations, and the
    # same end state up to rounding
    traj, sol = _regime_run(case, 0)
    assert sol.status == 0
    assert traj.accepted == len(sol.t) - 1
    assert traj.nfev == sol.nfev
    want = sol.y[:, -1]
    assert np.all(np.abs(traj.states[-1] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("case", REGIME_CASES, ids=lambda c: f"{c[0]}-{c[5]}")
def test_samples_match_solve_ivp(case):
    traj, sol = _regime_run(case, 50)
    want = sol.y.T
    np.testing.assert_array_equal(traj.t, sol.t)
    assert np.all(np.abs(traj.states - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _edge_run(name):
    if name == "trig-e0_arcs-8x":
        model, regime = _regime(REGIME_CASES[0])
        return model, start_point(regime), 8.0 * flow_span("e0_arcs", 0.0), 1e-10
    ulps = int(name.removeprefix("hminus-fall").removesuffix("ulp") or 0)
    p1 = -3.0 + ulps * math.ulp(3.0)
    return make_model("hminus", 0.6, -0.5), PhasePoint(0.5, 0.0, p1, 0.0), 5.0, 1e-8


@pytest.mark.parametrize("name", ["trig-e0_arcs-8x", "hminus-fall",
                                  *(f"hminus-fall{k:+d}ulp" for k in range(-6, 7) if k)])
def test_edge_time_matches_solve_ivp(name):
    # the oracle ends at its edge event or, where the flow outruns the step
    # control (hminus), gives up within 1e-6 of the edge; a start a few ulp
    # away can end either way, and `integrate` stops at the oracle's end
    model, start, span, tol = _edge_run(name)
    with pytest.raises(BoundaryReached) as excinfo:
        integrate(model, start, span, tol=tol, samples=0)
    sol = _oracle(model, start, span, tol, 0)
    events = [te[0] for te in sol.t_events if len(te)]
    if events:
        (t_end,) = events
    else:
        assert sol.status == -1
        assert abs(chart_margin(model, sol.y[0, -1])) < 1e-6
        t_end = sol.t[-1]
    assert abs(excinfo.value.t - t_end) <= 1e-12


def test_tableau_is_scipys_sparse_rows():
    # the coefficient file executed by path against scipy's imported module
    sparse, n = flow._sparse, dop.N_STAGES
    want = (tuple(sparse(dop.A[s, :s]) for s in range(1, n)),
            sparse(dop.B), sparse(dop.E3), sparse(dop.E5),
            tuple(sparse(dop.A[s, :s]) for s in range(n + 1, dop.N_STAGES_EXTENDED)),
            tuple(sparse(row) for row in dop.D))
    assert flow._tableau() == want


def test_tableau_without_scipys_source_file_is_an_import_error(monkeypatch, tmp_path):
    # a scipy installed without its .py files: the error names the file
    (tmp_path / "__init__.pyc").touch()
    spec = importlib.util.spec_from_file_location("scipy", tmp_path / "__init__.pyc")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    flow._tableau.cache_clear()
    try:
        with pytest.raises(ImportError, match="dop853_coefficients.py, not found"):
            flow._tableau()
    finally:
        monkeypatch.undo()
        flow._tableau.cache_clear()

def test_brentq_matches_scipy_on_seeded_brackets():
    # sign-changing brackets of seeded degree-7 polynomials, at the flow's
    # xtol, verify's and the tightest: the same float every time
    rng = np.random.default_rng(29)
    tols = [flow._ROOT_TOL, 1e-14, 5e-324]
    checked = 0
    while checked < 2400:
        coef = rng.normal(size=8).tolist()

        def poly(x):
            v = 0.0
            for c in coef:
                v = v * x + c
            return v
        xs = np.sort(rng.uniform(-3.0, 3.0, 16)).tolist()
        for a, b in zip(xs, xs[1:]):
            if (poly(a) < 0.0) != (poly(b) < 0.0):
                xtol = tols[checked % len(tols)]
                ours = flow._brentq(poly, a, b, xtol)
                assert ours == brentq(poly, a, b, xtol=xtol, rtol=flow._ROOT_TOL)
                checked += 1


def test_brentq_matches_scipy_on_every_event_root(monkeypatch):
    # every event root search of the edge runs and of seeded closure tests
    # across both closed windows: scipy's brentq finds the same float
    roots = []
    search = flow._brentq

    def both(f, a, b, xtol):
        roots.append((search(f, a, b, xtol), brentq(f, a, b, xtol=xtol, rtol=flow._ROOT_TOL)))
        return roots[-1][0]
    monkeypatch.setattr(flow, "_brentq", both)
    for name in ["trig-e0_arcs-8x", "hminus-fall", *(f"hminus-fall{k:+d}ulp" for k in range(-6, 7) if k)]:
        model, start, span, tol = _edge_run(name)
        with pytest.raises(BoundaryReached):
            integrate(model, start, span, tol=tol, samples=0)
    rng = np.random.default_rng(29)
    for family, rho, xi in (("h0", 0.8, 1.1), ("hplus", 2.0, 8.0)):
        model = make_model(family, rho, xi)
        for L in rng.uniform(0.3, 1.2, 32).tolist():
            e_plus, edge = _window(model, L)
            E = e_plus + rng.uniform(0.05, 0.95) * (edge - e_plus)
            closure_test(model, E, L, tol=1e-5)
    assert len(roots) > 60
    assert all(type(ours) is float and ours == theirs for ours, theirs in roots)


@pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -2.0), (1e-200, 2e-200)])
def test_brentq_refuses_a_bracket_without_a_sign_change(fa, fb):
    # f(a) f(b) underflows to 0 on the last pair, and the signs still agree
    def f(x):
        return fa if x < 0.5 else fb
    for search in (lambda: flow._brentq(f, 0.0, 1.0, 1e-14), lambda: brentq(f, 0.0, 1.0, xtol=1e-14)):
        with pytest.raises(ValueError, match="different signs"):
            search()


def test_brentq_gives_up_after_100_iterations():
    # a step function takes only bisection steps: about 2100 of them
    # from 1e300 wide down to xtol = 5e-324
    def step(x):
        return math.copysign(1.0, x - 0.1)
    with pytest.raises(RuntimeError, match="100 iterations"):
        flow._brentq(step, -1e300, 1e300, 5e-324)
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, -1e300, 1e300, xtol=5e-324)


def test_brentq_refuses_a_nan_value():
    def f(x):
        return math.nan if x > 0.5 else x - 0.3
    with pytest.raises(ValueError, match="NaN"):
        flow._brentq(f, 0.0, 1.0, 1e-14)


def _stage(row, K):
    """sum of a_i K_i over a sparse stage row, for q1 and p1 only."""
    x = z = 0.0
    for i, a in row:
        k = K[i]
        x += a * k[0]
        z += a * k[2]
    return x, z


def _combine(row, K):
    """sum of a_i K_i over a sparse tableau row, per component."""
    x = y = z = 0.0
    for i, a in row:
        k = K[i]
        x += a * k[0]
        y += a * k[1]
        z += a * k[2]
    return x, y, z


def _loop_step_functions():
    """`flow._step_functions`'s two functions as loops over the sparse tableau rows."""
    A, B, E3, E5, A_extra, D = flow._tableau()

    def trial(f, q1, q2, p1, k0, h, tol):
        K = [k0]
        for row in A:
            x, z = _stage(row, K)
            K.append(f(q1 + x * h, p1 + z * h))
        x, w, z = _combine(B, K)
        y_new = (q1 + h * x, q2 + h * w, p1 + h * z)
        K.append(f(y_new[0], y_new[2]))
        n5 = n3 = 0.0
        for e5, e3, v, w in zip(_combine(E5, K), _combine(E3, K), (q1, q2, p1), y_new):
            scale = tol + max(abs(v), abs(w)) * tol
            n5 += (e5 / scale) ** 2
            n3 += (e3 / scale) ** 2
        return y_new, K, n5, n3

    def extend(f, h, K, q1, p1):
        K = list(K)
        for row in A_extra:
            x, z = _stage(row, K)
            K.append(f(q1 + x * h, p1 + z * h))
        return [[h * c for c in _combine(row, K)] for row in D]
    return trial, extend


def _records(samples):
    """Every REGIME_CASES run, the hminus edge runs and the closed-case
    closure reports, as exact bytes and reprs."""
    def run(model, start, span, tol):
        try:
            traj = integrate(model, start, span, tol=tol, samples=samples)
            end = None
        except BoundaryReached as reached:
            traj, end = reached.trajectory, (reached.t, reached.point)
        return (traj.t.tobytes(), traj.states.tobytes(), traj.nfev,
                traj.accepted, traj.rejected, repr(end))
    out = {}
    for case in REGIME_CASES:
        model, regime = _regime(case)
        out[case] = run(model, start_point(regime), flow_span(case[5], case[3]), 1e-10)
        if regime.closed:
            out[case, "closure"] = repr(closure_test(model, case[3], case[4], tol=1e-5))
    for name in ["hminus-fall", *(f"hminus-fall{k:+d}ulp" for k in range(-6, 7) if k)]:
        model, start, span, tol = _edge_run(name)
        out[name] = run(model, start, span, tol)
    return out


@pytest.mark.parametrize("samples", [0, 50])
def test_generated_step_matches_the_tableau_loops_bitwise(monkeypatch, samples):
    # the straight-line trial step and dense extension against loops over
    # the sparse tableau rows: every time, state, count, edge event and
    # closure report is the same to the bit
    got = _records(samples)
    monkeypatch.setattr(flow, "_step_functions", _loop_step_functions)
    want = _records(samples)
    assert all(want[key][-1] != "None" for key in want if str(key).startswith("hminus"))
    for key in want:
        assert got[key] == want[key], key


def test_solver_failure_names_where_it_happened():
    # DOP853 gives up a few 1e-8 inside the hminus edge: the message gives
    # t, the step that fell below 10 ulp(t) and the margin of the last
    # state inside the chart
    model = make_model("hminus", 0.6, -0.5)
    with pytest.raises(BoundaryReached) as excinfo:
        integrate(model, PhasePoint(0.5, 0.0, -3.0, 0.0), 5.0, tol=1e-10, samples=0)
    reached = excinfo.value
    where = re.search(r"gave up at t=(\S+): step (\S+) below 10 ulp\(t\), "
                      r"chart_margin (\S+) at the last state inside", str(reached))
    t, step, margin = map(float, where.groups())
    assert t == reached.trajectory.t[-1]
    assert 0.0 < step < 10.0 * math.ulp(t)
    assert 0.0 < margin < 1e-6
    assert margin == pytest.approx(chart_margin(model, reached.point.q1), rel=1e-3)


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


@pytest.mark.parametrize("family, rho, xi, E, L",
                         [("h0", 0.8, 1.1, 0.5, 0.5), ("hplus", 2.0, 8.0, 1.8, 1.0)])
def test_closure_integrates_each_stretch_once(monkeypatch, family, rho, xi, E, L):
    # launch to aphelion, then on for 1.5 radial periods: the runs cover
    # the two radial periods once, and the report counts their evaluations
    runs = []
    solve = flow._solve

    def recorded(*args, **kwargs):
        traj, hit = solve(*args, **kwargs)
        runs.append(traj)
        return traj, hit
    monkeypatch.setattr(flow, "_solve", recorded)
    report = closure_test(make_model(family, rho, xi), E, L, tol=1e-5)
    assert sum(traj.t[-1] for traj in runs) == pytest.approx(report["period"], rel=1e-9)
    assert report["nfev"] == sum(traj.nfev for traj in runs)


@pytest.mark.parametrize("family, rho, xi, E", [("h0", 0.8, 1.1, 0.5), ("hplus", 2.0, 8.0, 1.8)])
def test_closure_refuses_a_perihelion_on_the_axis(family, rho, xi, E):
    # at L = 1e-300 the inner turning point underflows to 0, where the scalar
    # kernel would divide by zero
    model = make_model(family, rho, xi)
    assert classify(model, E, 1e-300).turning_points[0] == 0.0
    with pytest.raises(ChartError):
        closure_test(model, E, 1e-300, tol=1e-5)


def test_closure_rejects_unbounded_regime(hplus_model):
    # above the essential edge the orbit opens up (e > 1)
    with pytest.raises(NotBounded):
        closure_test(hplus_model, 2.5, 1.0, tol=1e-5)
