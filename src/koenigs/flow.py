"""Hamiltonian flow integration: the independent oracle for everything.

Hamilton's equations close over the kernel coefficients:

    dq1/dt = a(q1) p1          dp1/dt = -(a' p1^2 + b' p2^2 + c')/2
    dq2/dt = b(q1) p2          dp2/dt = 0

The derivatives a', b', c' come from one complex-step evaluation of the
kernel, Im kernel(q1 + ih) / h with h = 1e-30 (Squire & Trapp, SIAM Rev. 40,
1998): exact to rounding, with no difference taken and no hand-derived
formula.  So `models.kernel` must stay analytic in q1: no abs, maximum,
comparisons or branches on q1.

Integration is adaptive explicit Runge-Kutta (DOP853).  It is not
symplectic on purpose: runs are short and the four conserved quantities
give a sharper correctness signal than long-time energy behavior would.
Chart edges terminate the run with BoundaryReached; radial turning points
are passed through naturally in phase space.  Where the flow runs into an
edge faster than the step control can follow (hminus, where dq1/dt grows
like 1/(sinh q1 + rho)), a solver failure within 1e-6 of the edge, or an
event point that lands beyond it, is also BoundaryReached, at the latest
state inside the chart.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BoundaryReached, NotBounded, StepFailure
from .models import FAMILY, PhasePoint, chart_margin, check_chart, kernel
from .invariants import conserved_set
from .geodesics import classify

_EDGE = 1e-9
_STEP = 1e-30
# a solver failure this close to a chart edge is the run reaching it
_NEAR_EDGE = 1e-6


@dataclass(frozen=True)
class Trajectory:
    model: object
    t: np.ndarray          # strictly increasing sample times
    states: np.ndarray     # shape (len(t), 4): q1, q2, p1, p2
    nfev: int = 0          # right-hand side evaluations the solver made

    @property
    def samples(self):
        return [(ti, PhasePoint(*row)) for ti, row in zip(self.t, self.states)]

    def point(self, i):
        return PhasePoint(*self.states[i])

    @property
    def diagnostics(self):
        """ConservedSet with array-valued fields, one entry per sample."""
        z = PhasePoint(self.states[:, 0], self.states[:, 1],
                       self.states[:, 2], self.states[:, 3])
        return conserved_set(self.model, z)


def _rhs(model):
    def f(t, z):
        q1, q2, p1, p2 = z
        a, b, c = kernel(model, complex(q1, _STEP))
        return (a.real * p1, b.real * p2,
                -0.5 * (a.imag * p1**2 + b.imag * p2**2 + c.imag) / _STEP, 0.0)
    return f


def _edge_events(model, inside):
    """Terminal events 1e-9 inside each finite edge of the chart.

    solve_ivp evaluates the events at every accepted step and in its root
    search, so they also keep in `inside` the latest (t, z) they saw
    inside the chart.
    """
    lo, hi = FAMILY[model.family].chart(model.rho)

    def watching(gap):
        def event(t, z):
            if lo < z[0] < hi:
                inside[:] = t, z
            return gap(z[0])

        event.terminal = True
        event.direction = -1.0
        return event

    events = [watching(lambda q1: q1 - (lo + _EDGE))]
    if hi < math.inf:
        events.append(watching(lambda q1: (hi - _EDGE) - q1))
    return events


def _solve(model, initial, t_end, tol, samples, events):
    check_chart(model, initial.q1)
    if tol <= 0:
        raise StepFailure("integration tolerance must be positive")
    y0 = (initial.q1, initial.q2, initial.p1, initial.p2)
    inside = [0.0, y0]
    edge = _edge_events(model, inside)
    t_eval = np.linspace(0.0, t_end, samples) if samples else None
    sol = solve_ivp(
        _rhs(model), (0.0, t_end), y0, method="DOP853",
        rtol=tol, atol=tol, t_eval=t_eval, events=edge + list(events or ()),
        dense_output=False,
    )
    # solve_ivp leaves t/y as empty lists when a terminal event fires
    # before the first requested sample
    ts = np.asarray(sol.t, dtype=float)
    ys = np.asarray(sol.y, dtype=float)
    if ys.size == 0:
        ys = ys.reshape(4, 0)
    traj = Trajectory(model, ts.copy(), ys.T.copy(), int(sol.nfev))
    if sol.status == -1:
        if chart_margin(model, inside[1][0]) < _NEAR_EDGE:
            raise BoundaryReached(inside[0], PhasePoint(*inside[1]), traj)
        raise StepFailure(f"integrator failed: {sol.message}")
    if sol.status == 1:
        edge_hits = [te for te in sol.t_events[: len(edge)] if len(te)]
        if edge_hits:
            t_hit = min(te[0] for te in edge_hits)
            idx = next(
                i for i, te in enumerate(sol.t_events[: len(edge)])
                if len(te) and te[0] == t_hit
            )
            z = sol.y_events[idx][0]
            if not chart_margin(model, z[0]) > 0.0:
                t_hit, z = inside
                if not samples:  # the event point is also the last row
                    traj.t[-1], traj.states[-1] = t_hit, z
            raise BoundaryReached(t_hit, PhasePoint(*z), traj)
    return traj, sol


def integrate(model, initial, t_end, tol=1e-10, samples=400):
    """Trajectory of the Hamiltonian flow from `initial` over [0, t_end].

    tol is both the relative and absolute integrator tolerance, so the
    per-step error stays at or below it.  The run raises BoundaryReached
    (with the partial trajectory attached) if a chart edge is approached
    within 1e-9, or if the solver gives up within 1e-6 of one, and
    StepFailure if it gives up elsewhere.  `samples` fixes the output grid;
    samples=0 returns the solver's own accepted steps.  The trajectory's
    `nfev` counts the right-hand side evaluations.
    """
    traj, _ = _solve(model, initial, t_end, tol, samples, None)
    return traj


def drift_report(trajectory):
    """Max deviation of each conserved quantity from its initial value."""
    d = trajectory.diagnostics
    return {
        "max_dE": float(np.max(np.abs(d.E - d.E[0]))),
        "max_dL": float(np.max(np.abs(d.L - d.L[0]))),
        "max_dS1": float(np.max(np.abs(d.S1 - d.S1[0]))),
        "max_dS2": float(np.max(np.abs(d.S2 - d.S2[0]))),
    }


def _embedding_gap(model, za, zb):
    from .models import embed

    ea = embed(model, za[0], za[1])
    eb = embed(model, zb[0], zb[1])
    gap = max(abs(x - y) for x, y in zip(ea, eb))
    return max(gap, abs(za[2] - zb[2]), abs(za[3] - zb[3]))


def closure_test(model, E, L, tol=1e-5):
    """Integrate one radial libration and report phase-space closure.

    Starts at the perihelion (inner turning point, q2=0, p1=0).  The
    half period is located by the first downward crossing of p1=0 (the
    aphelion); the radial motion is symmetric in time about either
    apsis, so the full radial period and its angular advance are twice
    the aphelion values.  The advance should be pi for the closed
    families (the curves depend on cos 2*phi).  The closure gap is
    measured over two radial periods in embedding coordinates plus
    momenta, so angle wrapping cannot fake a gap.  Raises NotBounded
    on open regimes.
    """
    regime = classify(model, E, L)
    if not regime.closed:
        raise NotBounded(f"regime {regime.tag} (e={regime.eccentricity}) is not bounded")
    itol = max(1e-13, min(1e-11, tol * 1e-6))
    r0 = regime.turning_points[0]
    b0 = kernel(model, r0)[1]
    t_ang = 2.0 * math.pi / (b0 * L)

    if regime.eccentricity == 0.0:
        # circular orbit: phi advances uniformly, radial motion frozen
        start = PhasePoint(r0, 0.0, 0.0, L)
        t_r = 0.5 * t_ang
        traj = integrate(model, start, t_r, tol=itol, samples=3)
        advance = traj.states[-1, 1] - traj.states[0, 1]
        traj2 = integrate(model, start, 2.0 * t_r, tol=itol, samples=3)
        gap = _embedding_gap(model, traj2.states[0], traj2.states[-1])
        return {
            "closed": bool(gap < tol),
            "period": 2.0 * t_r,
            "radial_period": t_r,
            "angular_advance": float(advance),
            "gap": float(gap),
        }

    # p1 rises from exactly 0 at launch, so only the aphelion crossing
    # (downward) is sign-safe to detect by event
    def aphelion(t, z):
        return z[2]

    aphelion.terminal = True
    aphelion.direction = -1.0

    start = PhasePoint(r0, 0.0, 0.0, L)
    t_max = 10.0 * t_ang
    t_r = None
    for _ in range(6):
        _, sol = _solve(model, start, t_max, itol, 0, [aphelion])
        hits = sol.t_events[-1]
        if len(hits):
            t_r = 2.0 * float(hits[0])
            advance = 2.0 * float(sol.y_events[-1][0][1])
            break
        t_max *= 8.0
    if t_r is None:
        raise StepFailure("no radial period found within the time budget")

    traj2 = integrate(model, start, 2.0 * t_r, tol=itol, samples=5)
    gap = _embedding_gap(model, traj2.states[0], traj2.states[-1])
    return {
        "closed": bool(gap < tol),
        "period": 2.0 * t_r,
        "radial_period": t_r,
        "angular_advance": advance,
        "gap": float(gap),
    }
