"""Runtime verification suite: one registry row per documented invariant.

Each row of `CHECKS` is `(name, check, gate)`.  `check(rng)` returns the
measured value, lower is better, and `run_suite` compares it once against
the effective gate `min(gate, tol)`: a finite value below it passes,
anything else fails.  `tol` can tighten a gate, never loosen one.

Rows that test a law rather than a tolerance (the eccentricity windows,
the count law, drift scaling, the hminus blow-up, CLI determinism) have
`gate=None`; their check returns a detail string and raises
AssertionError with the measured numbers on a violation.  Any check that
raises is reported as FAIL.

`EXPECTED_FAILURES` names the one row recorded as unattainable, the third
turning-point anchor, whose true value sits outside its reference band.
It reports XFAIL while it fails its gate and FAIL if it ever passes.

`--suite models` etc. runs the rows whose name starts with that module;
`--suite all` runs everything.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import actions as actions_mod
from . import quantum as quantum_mod
from . import specfun as specfun_mod
from .errors import BoundaryReached, KoenigsError, NoMotion
from .flow import drift_report, integrate
from .geodesics import classify, curve_residual, radial_momentum_sq, start_point
from .invariants import _bracket, _gradients, algebra_residuals, conserved_set
from .models import (
    COMPLEX_STEP,
    FAMILY,
    PhasePoint,
    brioschi_curvature,
    embed,
    generators,
    hamiltonian,
    make_model,
    make_point,
    metric_components,
    potential,
    scalar_curvature,
)

DEFAULT_SEED = 20260819


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, FAIL, XFAIL
    detail: str
    value: float | None = None  # measured value; None for law rows and crashes
    gate: float | None = None  # effective gate, min(registry gate, tol)


_VERIFY_MODELS = {
    "trig": make_model("trig", 0.5, 0.7),
    "h0": make_model("h0", 0.8, 1.1),
    "hplus": make_model("hplus", 2.0, 1.3),
    "hminus": make_model("hminus", 0.6, 0.9),
    "affine": make_model("affine", 1.2, 0.9),
}

_Q1_RANGES = {
    "trig": (0.35, math.pi - 0.35),
    "h0": (0.3, 2.5),
    "hplus": (0.3, 2.2),
    "affine": (0.3, 2.5),
}

# one regime per classification branch; shared with the tests
REGIME_CASES = (
    ("trig", 0.5, -0.5, 0.0, 1.0, "e0_arcs"),
    ("trig", 0.5, -1.0, 0.0, 1.0, "e0_wall"),
    ("trig", 0.5, -2.0, 0.0, 1.0, "e0_full"),
    ("trig", 0.5, 2.0, 1.0, 1.0, "epos_single"),
    ("trig", 0.5, 0.8, 1.0, 1.0, "epos_arcs"),
    ("trig", 0.5, 0.0, 1.0, 1.0, "epos_full"),
    ("trig", 0.5, 0.0, 2.0 * (2.0 - math.sqrt(3.0)), 1.0, "epos_sep"),
    ("trig", 0.5, -2.0, -1.0, 1.0, "epos_single"),  # mirrored negative energy
    ("h0", 0.8, 1.1, 2.0, 0.9, "open"),
    ("h0", 0.8, 1.1, 0.5, 0.5, "closed"),
    ("hplus", 2.0, 1.0, 1.0, 0.8, "open"),
    ("hplus", 2.0, 8.0, 1.8, 1.0, "closed"),
    ("affine", 1.2, 2.0, 1.0, 1.0, "lines"),
    ("affine", 1.2, 3.0, 1.0, 1.0, "hyperbola"),
    ("affine", 1.2, 1.0, 1.0, 1.0, "conjugate_hyperbola"),
    ("affine", 1.2, 1.0, 1.0, math.sqrt(2.4), "parabola"),
    ("affine", 1.2, 1.0, 1.0, 2.0, "ellipse"),
)

_H0_CLOSED = ("h0", 0.8, 1.1, 0.5, 0.5, "closed")

_FLOW_SPANS = {
    "e0_arcs": 2.0,
    "e0_wall": 3.0,
    "e0_full": 3.0,
    "epos_single": 4.0,
    "epos_arcs": 4.0,
    "epos_full": 2.0,
    "epos_sep": 2.0,
    "open": 6.0,
    "closed": 12.0,
    "lines": 2.0,
    "hyperbola": 4.0,
    "conjugate_hyperbola": 2.0,
    "parabola": 2.0,
    "ellipse": 2.5,
}


def flow_span(tag, E):
    """Integration span for a regime demonstration run.

    Wall-bound trig orbits accelerate without limit, and the negative
    energy mirror reaches the x=0 wall sooner than its positive twin
    reaches x=pi; spans keep momenta moderate so absolute drift stays
    comparable to the integrator tolerance.
    """
    if tag == "epos_single" and E < 0:
        return 1.5
    return _FLOW_SPANS[tag]


def _random_points(model, rng, n):
    lo, hi = _Q1_RANGES.get(model.family, (0.3, 2.5))
    if model.family == "hminus":
        x_lo = math.asinh(0.4 - model.rho)
        q1 = rng.uniform(x_lo + 0.15, x_lo + 2.2, n)
    else:
        q1 = rng.uniform(lo, hi, n)
    q2 = rng.uniform(-1.5, 1.5, n)
    p1 = rng.uniform(-2.0, 2.0, n)
    p2 = rng.uniform(-2.0, 2.0, n)
    return PhasePoint(q1=q1, q2=q2, p1=p1, p2=p2)


def _regime(case):
    family, rho, xi, E, L, _ = case
    model = make_model(family, rho, xi)
    return model, classify(model, E, L)


def _window(model, L):
    """(E_plus, edge): the closed-orbit energy window of an h0 or hplus model at L.

    The circular orbit at the bottom has J = L.
    """
    return actions_mod.energy_from_J(model, L), model.xi / (2.0 * model.rho)


def _flow_case(case, tol=1e-10):
    model, regime = _regime(case)
    if regime.tag != case[5]:
        raise AssertionError(f"{case[0]} (E={case[3]}, L={case[4]}) classified {regime.tag}, expected {case[5]}")
    span = flow_span(regime.tag, case[3])
    try:
        traj = integrate(model, start_point(regime), span, tol=tol)
    except BoundaryReached as reached:
        traj = reached.trajectory
    return model, regime, traj


# -- models ------------------------------------------------------------------

def _check_hamiltonian_from_metric(rng):
    worst = 0.0
    for model in _VERIFY_MODELS.values():
        pts = _random_points(model, rng, 1000)
        g11, g22 = metric_components(model, pts.q1)
        rebuilt = 0.5 * (pts.p1**2 / g11 + pts.p2**2 / g22) + potential(model, pts.q1)
        direct = hamiltonian(model, pts)
        err = np.max(np.abs(rebuilt - direct) / np.maximum(1.0, np.abs(direct)))
        worst = max(worst, float(err))
    return worst


def _check_curvature_vs_brioschi(rng):
    return max(
        abs(scalar_curvature(model, q1) - brioschi_curvature(model, q1))
        for model in _VERIFY_MODELS.values()
        for q1 in _random_points(model, rng, 25).q1.tolist()
    )


def _check_embed_hyperboloid(rng):
    worst = 0.0
    for fam in ("trig", "hplus", "affine"):
        model = _VERIFY_MODELS[fam]
        lo, hi = _Q1_RANGES[fam]
        for q1 in np.linspace(lo, hi, 12):
            for q2 in np.linspace(-1.2, 1.2, 7):
                x1, x2, x3 = embed(model, q1, q2)
                worst = max(worst, abs(x1**2 + x2**2 - x3**2 + 1.0))
    return worst


# {g0, g1} = -eps g2, {g1, g2} = g0 and {g2, g0} = g1 in the canonical
# order: eps = 0 on the plane (h0), 1 on the hyperboloid
_GENERATOR_EPS = {"trig": 1.0, "h0": 0.0, "hplus": 1.0, "affine": 1.0}


def _check_generator_algebra(rng):
    worst = 0.0
    for fam, eps in _GENERATOR_EPS.items():
        model = _VERIFY_MODELS[fam]
        pts = _random_points(model, rng, 30)
        g0, g1, g2 = generators(model, pts)
        d0, d1, d2 = _gradients(lambda z: generators(model, z), pts, model=model)
        residuals = (_bracket(d0, d1) + eps * g2, _bracket(d1, d2) - g0, _bracket(d2, d0) - g1)
        worst = max(worst, *(float(np.max(np.abs(r))) for r in residuals))
    return worst


def _check_hminus_blowup(rng):
    model = _VERIFY_MODELS["hminus"]
    x_near = math.asinh(1e-3 - model.rho)
    x_far = math.asinh(1.0 - model.rho)
    ratio = abs(scalar_curvature(model, x_near)) / abs(scalar_curvature(model, x_far))
    detail = f"|R| ratio near/far {ratio:.3e} (law: > 1e6)"
    if not ratio > 1e6:
        raise AssertionError(detail)
    return detail


# -- invariants ---------------------------------------------------------------

def _check_conservation_brackets(rng):
    # {H, X} for X = L, S1, S2, relative to max(1, |E|, |X|)
    worst = 0.0
    for model in _VERIFY_MODELS.values():
        res = algebra_residuals(model, _random_points(model, rng, 1000))
        worst = max(worst, *(float(np.max(res[key])) for key in ("dH_L", "dH_S1", "dH_S2")))
    return worst


def _check_algebra_identities(rng):
    # every family's Casimir is the gated value; the complex-step bracket
    # relations of the same table hold a fixed 2e-12 bound
    worst_casimir = 0.0
    worst_bracket = 0.0
    for model in _VERIFY_MODELS.values():
        res = algebra_residuals(model, _random_points(model, rng, 40))
        worst_casimir = max(worst_casimir, float(np.max(res["casimir"])))
        for key in ("w_L_S1", "w_L_S2", "w_S1_S2"):
            worst_bracket = max(worst_bracket, float(np.max(res[key])))
    if not worst_bracket < 2e-12:
        raise AssertionError(f"bracket relations {worst_bracket:.3e} (bound 2e-12)")
    return worst_casimir


def _check_trig_eigen(rng):
    model = _VERIFY_MODELS["trig"]
    res = algebra_residuals(model, _random_points(model, rng, 60))
    return float(max(np.max(res["w_L_S1"]), np.max(res["w_L_S2"])))


# -- geodesics ----------------------------------------------------------------

def _check_turnings_vs_bisection(rng):
    from scipy.optimize import brentq

    worst = 0.0
    for case in REGIME_CASES:
        family, _, _, E, L, _ = case
        model, regime = _regime(case)
        if regime.eccentricity == 0.0:
            continue  # circular: double root with no independent locator
        for t_pt in regime.turning_points:
            f = lambda q: radial_momentum_sq(model, E, L, q)
            root = None
            for d in (1e-4, 1e-3, 1e-2):
                d_eff = d * max(1.0, abs(t_pt))
                lo_q, hi_q = t_pt - d_eff, t_pt + d_eff
                if family == "trig":
                    lo_q = max(lo_q, 1e-9)
                    hi_q = min(hi_q, math.pi - 1e-9)
                else:
                    lo_q = max(lo_q, 1e-12)
                try:
                    if f(lo_q) * f(hi_q) < 0.0:
                        root = brentq(f, lo_q, hi_q, xtol=1e-14)
                        break
                except ValueError:
                    continue
            if root is None:
                # tangency (double root): bisect the complex-step derivative instead
                df = lambda q: radial_momentum_sq(model, E, L, complex(q, COMPLEX_STEP)).imag / COMPLEX_STEP
                lo_q = t_pt - 1e-3 * max(1.0, abs(t_pt))
                hi_q = t_pt + 1e-3 * max(1.0, abs(t_pt))
                if df(lo_q) * df(hi_q) < 0.0:
                    root = brentq(df, lo_q, hi_q, xtol=1e-14)
            if root is None:
                raise AssertionError(f"no bracket at turning {t_pt:.6f} of {regime.tag}")
            worst = max(worst, abs(root - t_pt))
    return worst


_FLOW_RESULTS = {}


def _flow_results():
    if not _FLOW_RESULTS:
        for case in REGIME_CASES:
            _FLOW_RESULTS[case] = _flow_case(case)
    return _FLOW_RESULTS


def _check_flow_curve_residual(rng):
    return max(
        curve_residual(regime, traj.point(i))
        for _, regime, traj in _flow_results().values()
        for i in range(len(traj.t))
    )


def _check_eccentricity_windows(rng):
    cases = (
        # (model, L, lowest energy sampled, top of the sweep as a multiple of the edge)
        (_VERIFY_MODELS["h0"], 0.5, 0.05, 1.3),
        (make_model("hplus", 2.0, 8.0), 1.0, 0.2, 1.2),
    )
    for model, L, e_low, reach in cases:
        e_plus, edge = _window(model, L)
        for E in np.linspace(e_low, edge * reach, 60):
            if min(abs(E - e_plus), abs(E - edge)) < 1e-3:
                continue
            try:
                regime = classify(model, float(E), L)
                closed, ecc = regime.closed, regime.eccentricity
            except NoMotion:
                closed, ecc = False, None
            if closed != (e_plus < E < edge) or (closed and not 0.0 <= ecc < 1.0):
                raise AssertionError(
                    f"{model.family} at E={E:.4f}: closed={closed}, e={ecc}, "
                    f"window ({e_plus:.4f}, {edge:.4f})"
                )
    return "closed <=> E in (E_plus, edge) on h0 and hplus; e < 1 inside"


def _check_trig_reflection(rng):
    worst = 0.0
    for case, (model, regime, traj) in _flow_results().items():
        if case[0] != "trig":
            continue
        for i in range(0, len(traj.t), 7):
            pt = traj.point(i)
            worst = max(worst, curve_residual(regime, (pt.q1, -pt.q2)))
    return worst


def _affine_curve_y(regime, u):
    p = regime.params
    y0 = p["y0"]
    tag = regime.tag
    if tag == "ellipse":
        return y0 + math.sqrt(max(p["u_star"] ** 2 - u**2, 0.0) / p["kappa"])
    if tag == "hyperbola":
        return y0 + math.sqrt(max(u**2 - p["u_star"] ** 2, 0.0) / p["k"])
    if tag == "conjugate_hyperbola":
        return y0 + math.sqrt((u**2 + p["u_star"] ** 2) / p["k"])
    if tag == "parabola":
        return y0 + p["focal"] * u**2
    return y0 + u / p["slope"]


def _check_affine_s2_conservation(rng):
    worst = 0.0
    for case in REGIME_CASES:
        if case[0] != "affine":
            continue
        E, L = case[3], case[4]
        model, regime = _regime(case)
        lo, hi = regime.domain[0]
        lo = max(lo + 0.05, 0.05)
        hi = min(hi, lo + 2.0) if math.isfinite(hi) else lo + 2.0
        sign = -1.0 if regime.tag == "ellipse" else 1.0
        if regime.tag == "ellipse":
            hi = regime.params["u_star"] * 0.98
        s1_vals, s2_vals = [], []
        for u in np.linspace(lo, hi, 40):
            psq = radial_momentum_sq(model, E, L, float(u))
            if psq < 0.0:
                continue
            pt = make_point(model, float(u), _affine_curve_y(regime, float(u)), sign * math.sqrt(psq), L)
            cs = conserved_set(model, pt)
            s1_vals.append(cs.S1)
            s2_vals.append(cs.S2)
        spread = max(np.ptp(s1_vals), np.ptp(s2_vals))
        scale = max(1.0, max(abs(v) for v in s1_vals + s2_vals))
        worst = max(worst, spread / scale)
    return worst


# -- flow ---------------------------------------------------------------------

def _check_drift_scaling(rng):
    model, regime = _regime(_H0_CLOSED)
    start = start_point(regime)
    tols = (1e-6, 1e-8, 1e-10)
    drifts = [max(drift_report(integrate(model, start, 12.0, tol=t)).values()) for t in tols]
    detail = "drift at tol 1e-6/8/10: " + ", ".join(f"{d:.2e}" for d in drifts)
    if not (all(d < 100.0 * t for d, t in zip(drifts, tols)) and drifts[0] > drifts[2]):
        raise AssertionError(detail + " (law: each < 100 tol, decreasing)")
    return detail


def _check_regime_drift(rng):
    return max(max(drift_report(traj).values()) for _, _, traj in _flow_results().values())


def _check_time_reversal(rng):
    worst = 0.0
    for case in (_H0_CLOSED, ("trig", 0.5, 2.0, 1.0, 1.0, "epos_single")):
        model, regime = _regime(case)
        start = start_point(regime)
        end = integrate(model, start, 2.0, tol=1e-10, samples=2).point(-1)
        back = integrate(
            model,
            PhasePoint(q1=end.q1, q2=end.q2, p1=-end.p1, p2=-end.p2),
            2.0,
            tol=1e-10,
            samples=2,
        )
        ret = back.point(-1)
        err = max(
            abs(ret.q1 - start.q1), abs(ret.q2 - start.q2),
            abs(ret.p1 + start.p1), abs(ret.p2 + start.p2),
        )
        worst = max(worst, err)
    return worst


def _check_two_sided_residual(rng):
    # every regime is retraced in reversed time (both momenta flipped at a
    # mid sample), so the same positions are visited on the opposite
    # radial-momentum branch
    worst = 0.0
    sided = 0
    for case, (model, regime, traj) in _flow_results().items():
        trajs = [traj]
        mid = traj.point(2 * len(traj.t) // 3)
        if abs(mid.p1) > 1e-9:
            reversed_state = PhasePoint(mid.q1, mid.q2, -mid.p1, -mid.p2)
            try:
                trajs.append(integrate(model, reversed_state, flow_span(regime.tag, regime.E), tol=1e-10))
            except BoundaryReached as reached:
                trajs.append(reached.trajectory)
        p1 = np.concatenate([t.states[:, 2] for t in trajs])
        if not (np.any(p1 > 1e-9) and np.any(p1 < -1e-9)):
            continue
        sided += 1
        for t in trajs:
            for i in range(0, len(t.t), 5):
                worst = max(worst, curve_residual(regime, t.point(i)))
    if sided < 8:
        raise AssertionError(f"only {sided} regimes visited both momentum branches (need 8)")
    return worst


def _check_turning_reflection(rng):
    model, regime = _regime(_H0_CLOSED)
    traj = integrate(model, start_point(regime), 12.0, tol=1e-10, samples=1200)
    p1 = np.asarray([traj.point(i).p1 for i in range(len(traj.t))])
    flips = np.nonzero(p1[:-1] * p1[1:] < 0.0)[0]
    if flips.size == 0:
        raise AssertionError("no radial turning crossed")
    diag = traj.diagnostics
    worst = 0.0
    for i in flips:
        for vals in (diag.E, diag.L, diag.S1, diag.S2):
            worst = max(worst, abs(float(vals[i + 1] - vals[i])))
    return worst


# -- actions ------------------------------------------------------------------

def _window_sweep():
    """(model, E, L) at 20 energies inside each closed window, 2% clear of both ends."""
    for fam, rho, xi, L in (("h0", 0.8, 1.1, 0.5), ("hplus", 2.0, 8.0, 1.0)):
        model = make_model(fam, rho, xi)
        e_lo, edge = _window(model, L)
        for E in np.linspace(e_lo + 0.02 * (edge - e_lo), edge - 0.02 * (edge - e_lo), 20):
            yield model, float(E), L


def _check_degenerate_frequency(rng):
    worst = 0.0
    for fam, rho, xi, L_pair, E in (
        ("h0", 0.8, 1.1, (0.3, 0.5), 0.55),
        ("hplus", 2.0, 8.0, (0.8, 1.0), 1.9),
    ):
        model = make_model(fam, rho, xi)
        # J = I_radial + L with I_radial by quadrature over each orbit, so
        # the same J at both L is measured, not built in by a J(E) formula
        js = [actions_mod.action_quadrature(model, E, L) + L for L in L_pair]
        worst = max(worst, abs(js[0] - js[1]))
        # positive frequency: E(J) strictly increasing across the window
        j_grid = np.linspace(js[0] * 0.5, js[0] * 0.99, 12)
        e_grid = [actions_mod.energy_from_J(model, float(j)) for j in j_grid]
        if not all(b > a for a, b in zip(e_grid, e_grid[1:])):
            raise AssertionError(f"{fam}: E(J) not increasing on J in [{j_grid[0]:.4f}, {j_grid[-1]:.4f}]")
    return worst


def _check_actions_quadrature(rng):
    # the fixed window sweep, then 10 seeded draws per model: L log-uniform
    # from 1e-3, E a log-uniform fraction 1e-4 to 0.5 of the window from
    # either end, where a near-end pole or an ill-conditioned I(E) shows
    cases = list(_window_sweep())
    for fam, rho, xi, L_top in (("h0", 0.8, 1.1, 1.0), ("hplus", 2.0, 8.0, 1.5)):
        model = make_model(fam, rho, xi)
        for _ in range(10):
            L = math.exp(rng.uniform(math.log(1e-3), math.log(L_top)))
            eps = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
            e_lo, edge = _window(model, L)
            E = edge - eps * (edge - e_lo) if rng.integers(2) else e_lo + eps * (edge - e_lo)
            cases.append((model, E, L))
    worst = 0.0
    for model, E, L in cases:
        closed = actions_mod.action_variables(model, E, L).I_radial
        quadr = actions_mod.action_quadrature(model, E, L)
        worst = max(worst, abs(closed - quadr) / max(1e-12, abs(closed)))
    return worst


def _check_energy_roundtrip(rng):
    return max(
        abs(actions_mod.energy_from_J(model, actions_mod.action_variables(model, E, L).J) - E)
        for model, E, L in _window_sweep()
    )


def _check_circular_limit(rng):
    # I_radial vanishes linearly at the circular orbit: the slope I_r / eps
    # at E = E_plus + eps (edge - E_plus) changes by less than eps, relative,
    # from eps to eps/10
    laws = []
    for fam, rho, xi, L in (("h0", 0.8, 1.1, 0.5), ("hplus", 2.0, 8.0, 1.0)):
        model = make_model(fam, rho, xi)
        e_plus, edge = _window(model, L)
        eps = (1e-3, 1e-4, 1e-5, 1e-6)
        slopes = [actions_mod.action_quadrature(model, e_plus + e * (edge - e_plus), L) / e for e in eps]
        change = max(abs(a - b) / (abs(b) * e) for e, a, b in zip(eps, slopes, slopes[1:]))
        if not change < 1.0:
            raise AssertionError(f"{fam}: slope I_r/eps {slopes} changes by {change:.3g} eps")
        laws.append(f"{fam} {change:.2f} eps")
    return "slope I_r/eps settles linearly: " + ", ".join(laws)


# -- quantum ------------------------------------------------------------------

# (family, rho, xi, n_max, m_max) of the spectrum row's fixed models; the
# last one holds a high-E level (n 4, m 0, E about 34) that a two-grid
# extrapolation put 1.12e-8 off
SPECTRUM_MODELS = tuple(
    ("h0", rho, xi, 3, 3) for rho in (0.5, 1.0, 2.0) for xi in (1.0, 3.0)
) + (("hplus", 0.5, 7.75, 3, 3), ("hplus", 2.0, 31.75, 3, 3), ("h0", 0.339, 37.36, 4, 4))


def _eigensolve(model, levels):
    """{m: eigensolve levels 0..n} for each m >= 0 in `levels`, n the highest n of that m.

    One `quantum._solve_levels` call per (model, m) bypasses the level cache,
    whose entries depend on the highest level asked for before, so a row
    reads the same whatever ran earlier in the process.
    """
    top = {}
    for lv in levels:
        if lv.m >= 0:
            top[lv.m] = max(top.get(lv.m, 0), lv.n)
    return {m: quantum_mod._solve_levels(model, m, n) for m, n in top.items()}


def _check_spectrum_vs_shooting(rng):
    # the fixed models, then two deep h0 wells drawn from the seed, whose
    # top levels reach E of 3 to 46, and two deep hplus wells, whose top
    # levels reach E of about 57.  A drawn hplus level is kept while
    # xi + 1/4 - 2 rho E >= 0.2: much closer to the edge its density decays
    # too slowly for N = 401 or for chi = 200, and the solve raises
    # ConvergenceFailure
    cases = [case + (0.0,) for case in SPECTRUM_MODELS]
    for _ in range(2):
        cases.append(("h0", float(rng.uniform(0.3, 3.0)), float(rng.uniform(20.0, 40.0)), 4, 4, 0.0))
    for _ in range(2):
        cases.append(("hplus", float(rng.uniform(0.3, 1.0)), float(rng.uniform(20.0, 40.0)), 4, 4, 0.2))
    worst = 0.0
    for fam, rho, xi, n_max, m_max, gap in cases:
        model = make_model(fam, rho, xi)
        xe = xi + FAMILY[fam].radial.xi_shift
        levels = [lv for lv in quantum_mod.spectrum(model, n_max, m_max)
                  if lv.m >= 0 and xe - 2.0 * rho * lv.E >= gap]
        solved = _eigensolve(model, levels)
        worst = max(worst, *(abs(solved[lv.m][lv.n] - lv.E) for lv in levels))
    return worst


def _check_degeneracy(rng):
    # spread of the eigensolve's levels within each J_tilde multiplet, n <= 4
    # and 0 <= m <= 4; the closed form names the levels, the eigensolve
    # gives their energies
    worst = 0.0
    for fam, rho, xi in (("h0", 0.8, 1.1), ("hplus", 2.0, 31.75)):
        model = make_model(fam, rho, xi)
        levels = quantum_mod.spectrum(model, 4, 4)
        solved = _eigensolve(model, levels)
        by_j = {}
        for lv in levels:
            if lv.m >= 0:
                by_j.setdefault(lv.J_tilde, []).append(solved[lv.m][lv.n])
        worst = max(worst, *(max(es) - min(es) for es in by_j.values()))
    return worst


# (rho, xi) of HypPlus wells whose level J~ = 3 sits just inside J_max =
# 3.0033 to 3.0053 and 3.0036: a Dirichlet end misses it up to chi = 200
_NEAR_EDGE_WELLS = ((0.5, 4.26), (0.5, 4.263), (0.5, 4.2659), (1.2364, 10.904))


def _check_count_law(rng):
    pairs = [(2.0, 3.75), (0.5, 7.75)]
    tried = 0
    while len(pairs) < 7 and tried < 400:
        tried += 1
        rho = float(rng.uniform(0.3, 3.0))
        if abs(rho - 1.0) < 0.05:
            continue
        xi = float(rng.uniform(0.5, 40.0))
        xe = xi + 0.25
        jmax = math.sqrt(xe / rho)
        j_levels = [j for j in range(1, int(jmax) + 2) if j < jmax]
        if not j_levels:
            continue
        if min(abs(j - jmax) for j in range(1, int(jmax) + 2)) < 0.05:
            continue  # a level too close to the window edge
        delta_min = xe - 2.0 * rho * FAMILY["hplus"].radial.energy(rho, xe, max(j_levels))
        if delta_min < 0.2:
            continue
        pairs.append((rho, xi))
    if len(pairs) < 7:
        raise AssertionError(f"only {len(pairs)} parameter pairs accepted in {tried} draws (need 7)")
    for rho, xi in pairs + list(_NEAR_EDGE_WELLS):
        model = make_model("hplus", rho, xi)
        jmax = math.sqrt((xi + 0.25) / rho)
        m = 0
        while m < jmax:
            predicted = sum(1 for n in range(64) if 2 * n + m + 1 < jmax)
            counted = quantum_mod.count_bound_levels(model, m)
            if predicted != counted:
                raise AssertionError(
                    f"(rho,xi)=({rho:.3f},{xi:.3f}) m={m}: predicted {predicted}, counted {counted}"
                )
            m += 1
    return (f"{len(pairs)} parameter pairs and {len(_NEAR_EDGE_WELLS)} near-edge wells,"
            " all per-m counts match")


def _check_ebk_vs_eigensolve(rng):
    # EBK quantization through two numeric oracles: the energy where the
    # quadrature's I_radial + L reaches J_tilde on the model at xi + xi_shift,
    # L = J_tilde/2, against the eigensolve.  The closed-form E_plus only
    # sets the bracket's lower end; the upper end moves halfway to the edge
    # until the sign changes, and a trial where the quadrature raises has not
    # changed it yet
    from scipy.optimize import brentq

    worst = 0.0
    for fam, rho, xi in (("h0", 0.8, 1.1), ("h0", 0.339, 37.36), ("hplus", 2.0, 31.75), ("hplus", 0.5, 7.75)):
        model = make_model(fam, rho, xi)
        shifted = make_model(fam, rho, xi + FAMILY[fam].radial.xi_shift)
        levels = quantum_mod.spectrum(model, 3, 3)
        solved = _eigensolve(model, levels)
        for lv in levels:
            if lv.m < 0:
                continue
            L = 0.5 * lv.J_tilde
            e_plus, edge = _window(shifted, L)

            def excess(E):
                return actions_mod.action_quadrature(shifted, E, L) + L - lv.J_tilde

            lo = hi = e_plus + 1e-9 * (edge - e_plus)
            for _ in range(60):
                hi = 0.5 * (hi + edge)
                try:
                    if excess(hi) > 0.0:
                        break
                except KoenigsError:
                    pass
            else:
                raise AssertionError(f"{fam} J~={lv.J_tilde}: no sign change below the edge {edge:.10g}")
            E = brentq(excess, lo, hi, xtol=1e-14)
            worst = max(worst, abs(E - solved[lv.m][lv.n]))
    return worst


def _check_norms_finite(rng):
    # share of the norm in the outer tenth of the grid; scipy's trapezoid,
    # since np.trapezoid needs numpy >= 2.0
    from scipy.integrate import trapezoid

    worst = 0.0
    for fam, rho, xi in (("h0", 0.8, 1.1), ("hplus", 0.5, 7.75)):
        model = make_model(fam, rho, xi)
        for lv in quantum_mod.spectrum(model, 2, 2)[:4]:
            delta = quantum_mod._xi_eff(model) - 2.0 * model.rho * lv.E
            if fam == "h0":
                q = np.linspace(1e-3, math.sqrt(60.0 / math.sqrt(delta)), 4000)
            else:
                q = np.linspace(1e-3, 12.0 + 3.0 / math.sqrt(delta), 4000)
            w = quantum_mod._flux_coefficients(model, lv.m, q)[2]
            psi = quantum_mod._radial_wave(model, lv, q)
            dens = w * psi**2
            total = float(trapezoid(dens, q))
            if not math.isfinite(total) or total <= 0.0:
                raise AssertionError(f"{fam} (n={lv.n}, m={lv.m}): bad norm {total}")
            worst = max(worst, float(trapezoid(dens[-400:], q[-400:])) / total)
    return worst


# -- specfun ------------------------------------------------------------------

def _check_off_diagonal(rng):
    worst = 0.0
    for n, m in ((0, 1), (1, 0), (1, 1), (0, 2)):
        N = 2 * n + abs(m)
        for shift in (-2, 2):
            total = N + shift
            if total < 0:
                continue
            for k in range(total + 1):
                val = abs(specfun_mod.coefficient_oracle(n, m, k, total - k))
                worst = max(worst, val)
    return worst


def _check_conjugation(rng):
    worst = 0.0
    for n in range(3):
        for m in range(1, 4):
            plus = specfun_mod.basis_coefficients(n, m).entries
            minus = specfun_mod.basis_coefficients(n, -m).entries
            for key, val in plus.items():
                worst = max(worst, abs(minus[key] - val.conjugate()))
    return worst


def _check_generating_function(rng):
    worst = 0.0
    for n in range(4):
        for m in range(4):
            table = specfun_mod.basis_coefficients(n, m).entries
            for _ in range(20):
                lam, mu = rng.uniform(-1.0, 1.0, 2)
                total = sum(
                    (lam**n1) * (mu**n2) * (2.0 ** (n1 + n2)) * c
                    for (n1, n2), c in table.items()
                )
                # the oracle fixes the sign (-1)^n on the closed product form
                target = (
                    (-1.0) ** n
                    * (lam - 1j * mu) ** n
                    * (lam + 1j * mu) ** (n + m)
                    / math.factorial(n)
                )
                worst = max(worst, abs(total - target))
    return worst


def _check_pointwise_resummation(rng):
    worst = 0.0
    zeta = np.linspace(0.05, 9.0, 20)
    phi = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    Z, P = np.meshgrid(zeta, phi, indexing="ij")
    for n, m in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 3), (2, 0), (2, 1)):
        table = specfun_mod.basis_coefficients(n, m).entries
        total = np.zeros_like(Z, dtype=complex)
        for (n1, n2), c in table.items():
            total += c * specfun_mod._cartesian_mode(n1, n2, Z, P)
        target = specfun_mod._oscillator_mode(n, m, Z, P)
        worst = max(worst, float(np.max(np.abs(total - target))))
    return worst


# -- cli ----------------------------------------------------------------------

def _check_deterministic_output(rng):
    from . import cli as cli_mod

    first = cli_mod.render_for_determinism_check()
    second = cli_mod.render_for_determinism_check()
    if first != second:
        raise AssertionError(f"two renders differ: {len(first)} and {len(second)} bytes")
    return f"{len(first)} bytes rendered twice, identical"


# -- acceptance xfail ---------------------------------------------------------

def _check_fig1_third_anchor(rng):
    """Reference turning-point anchors for the sigma=0 family.

    The first two anchors (2.70, 2.00 +- 0.01) hold.  The third reference
    value (1.60 +- 0.01) does not: the turning point at eta=10 is
    arccos(10 - sqrt(101)), which is 1.6207 and sits outside that band.
    Kept here, run honestly, and reported as an expected failure.
    """
    return max(
        abs(math.acos(eta - math.sqrt(eta**2 + 1.0)) - anchor)
        for eta, anchor in ((0.1, 2.70), (1.0, 2.00), (10.0, 1.60))
    )


CHECKS = (
    ("models.hamiltonian_from_metric", _check_hamiltonian_from_metric, 1e-12),
    ("models.curvature_closed_vs_brioschi", _check_curvature_vs_brioschi, 5e-12),
    ("models.embed_hyperboloid", _check_embed_hyperboloid, 1e-12),
    ("models.generator_algebra", _check_generator_algebra, 1e-12),
    ("models.hminus_curvature_blowup", _check_hminus_blowup, None),
    ("invariants.conservation_brackets", _check_conservation_brackets, 5e-12),
    ("invariants.algebra_identities", _check_algebra_identities, 1e-11),
    ("invariants.trig_eigen_structure", _check_trig_eigen, 5e-14),
    ("geodesics.turnings_vs_bisection", _check_turnings_vs_bisection, 1e-12),
    ("geodesics.flow_curve_residual", _check_flow_curve_residual, 1e-6),
    ("geodesics.eccentricity_windows", _check_eccentricity_windows, None),
    ("geodesics.trig_reflection_symmetry", _check_trig_reflection, 1e-6),
    ("geodesics.affine_integral_conservation", _check_affine_s2_conservation, 1e-10),
    ("flow.drift_scales_with_tol", _check_drift_scaling, None),
    ("flow.regime_drift", _check_regime_drift, 1e-8),
    ("flow.time_reversal", _check_time_reversal, 1e-9),
    ("flow.curve_residual_two_sided", _check_two_sided_residual, 1e-6),
    ("flow.turning_reflection", _check_turning_reflection, 1e-7),
    ("actions.degenerate_frequency", _check_degenerate_frequency, 1e-10),
    ("actions.quadrature_vs_closed", _check_actions_quadrature, 5e-11),
    ("actions.energy_roundtrip", _check_energy_roundtrip, 1e-10),
    ("actions.circular_limit_linear", _check_circular_limit, None),
    ("quantum.spectrum_vs_shooting", _check_spectrum_vs_shooting, 4e-11),
    ("quantum.degeneracy_via_j_tilde", _check_degeneracy, 1e-12),
    ("quantum.hplus_count_law", _check_count_law, None),
    ("quantum.ebk_vs_eigensolve", _check_ebk_vs_eigensolve, 1e-11),
    ("quantum.norms_finite", _check_norms_finite, 1e-6),
    ("specfun.off_diagonal_vanish", _check_off_diagonal, 1e-9),
    ("specfun.conjugation_symmetry", _check_conjugation, 1e-14),
    ("specfun.generating_function", _check_generating_function, 1e-10),
    ("specfun.pointwise_resummation", _check_pointwise_resummation, 1e-9),
    ("cli.deterministic_output", _check_deterministic_output, None),
    ("acceptance.fig1_third_anchor", _check_fig1_third_anchor, 0.01),
)

EXPECTED_FAILURES = frozenset({"acceptance.fig1_third_anchor"})


def run_suite(suite="all", tol=None, seed=DEFAULT_SEED):
    """Run the named slice of the registry; returns a list of CheckResult.

    tol, when given, tightens each numeric gate to min(gate, tol); it never
    loosens one.  Every check gets a fresh generator seeded with seed.
    """
    results = []
    for name, check, gate in CHECKS:
        if suite != "all" and not name.startswith(suite + "."):
            continue
        if gate is not None and tol is not None:
            gate = min(gate, tol)
        try:
            outcome = check(np.random.default_rng(seed))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, "FAIL", f"{type(exc).__name__}: {exc}", gate=gate))
            continue
        if gate is None:
            results.append(CheckResult(name, "PASS", outcome))
            continue
        value = float(outcome)
        passed = math.isfinite(value) and value < gate
        if name in EXPECTED_FAILURES:
            status = "FAIL" if passed else "XFAIL"
        else:
            status = "PASS" if passed else "FAIL"
        results.append(CheckResult(name, status, f"{value:.3e} (gate {gate:g})", value, gate))
    return results
