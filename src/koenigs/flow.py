"""Hamiltonian flow integration: the independent oracle for everything.

Hamilton's equations close over the kernel coefficients:

    dq1/dt = a(q1) p1          dp1/dt = -(a' p1^2 + b' p2^2 + c')/2
    dq2/dt = b(q1) p2          dp2/dt = 0

The derivatives a', b', c' come from one complex-step evaluation of the
kernel, Im kernel(q1 + ih) / h with h = 1e-30 (Squire & Trapp, SIAM Rev. 40,
1998): exact to rounding, with no difference taken and no hand-derived
formula.  So `models.kernel` must stay analytic in q1: no abs, maximum,
comparisons or branches on q1.  The step point is a Python complex, so the
family's kernel runs on CPython's complex arithmetic and `cmath`, with no
numpy scalar in the loop.  p2 is a constant of the motion, so the
integrator carries (q1, q2, p1) and p2 rides along; a stage sums only the
q1 and p1 slopes, the only ones it reads.

Integration is adaptive explicit Runge-Kutta, DOP853 (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., 1993: II.4
for the step control, II.6 for the dense output).  The loop is written
here over Python floats.  The tableau is scipy's own
(`scipy.integrate._ivp.dop853_coefficients`); at the first run it is
written out as two straight-line functions (`_step_functions`), the trial step
and the dense-output extension, with every coefficient inlined and every
sum in the order of a loop over the tableau's rows.  The initial step, error
norm, step-size controller, dense output and event search are those of
scipy's DOP853, so a run takes the same steps as scipy's integrator; the
tests keep that integrator as the oracle.  scipy enters at the first run,
not at import: scipy.integrate for the tableau, and scipy.optimize for
the first event root search.  It is not symplectic on purpose: runs are
short and the four conserved quantities give a sharper correctness
signal than long-time energy behavior would.

Chart edges terminate the run with BoundaryReached; radial turning points
are passed through naturally in phase space.  Where the flow runs into an
edge faster than the step control can follow (hminus, where dq1/dt grows
like 1/(sinh q1 + rho)), a solver failure within 1e-6 of the edge, or an
event point that lands beyond it, is also BoundaryReached, at the latest
state inside the chart.
"""

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryReached, DomainError, NotBounded, StepFailure
from .models import COMPLEX_STEP, FAMILY, PhasePoint, chart_margin, check_chart, kernel
from .invariants import conserved_set
from .geodesics import classify

_EDGE = 1e-9
# a solver failure this close to a chart edge is the run reaching it
_NEAR_EDGE = 1e-6


def _sparse(row):
    return tuple((i, float(a)) for i, a in enumerate(row) if a != 0.0)


@functools.cache
def _tableau():
    """scipy's DOP853 tableau as (index, coefficient) pairs without the zeros.

    (A, B, E3, E5, A_EXTRA, D): stages 1..11, the solution weights, the two
    error estimators, the three extra stages of the dense output and its
    four interpolation rows.  Read from scipy on the first solve.
    """
    from scipy.integrate._ivp import dop853_coefficients as dop
    n = dop.N_STAGES
    return (tuple(_sparse(dop.A[s, :s]) for s in range(1, n)),
            _sparse(dop.B), _sparse(dop.E3), _sparse(dop.E5),
            tuple(_sparse(dop.A[s, :s]) for s in range(n + 1, dop.N_STAGES_EXTENDED)),
            tuple(_sparse(row) for row in dop.D))


@functools.cache
def _step_functions():
    """The DOP853 trial step and dense-output extension as straight-line code.

    Generated once per process, at the first solve, from `_tableau`:

      trial(f, q1, q2, p1, k0, h, tol) -> (y_new, K, n5, n3): stages 1..11,
        the solution, the FSAL slope K[12] = f(y_new), and the sums of
        squares over (q1, q2, p1) of the 5th- and 3rd-order error estimates
        scaled by tol + max(|y|, |y_new|) tol;
      extend(f, h, K, q1, p1) -> the four interpolation rows, times h, after
        the three extra stages from (q1, p1), the start of the step.

    Each coefficient is written by repr, which round-trips, and each sum
    runs in index order from 0.0; so the arithmetic is that of a loop over
    the sparse rows, to the bit.
    """
    A, B, E3, E5, A_extra, D = _tableau()
    n = len(A) + 1  # K[n] is the FSAL slope

    def dot(row, c):
        return " + ".join(["0.0", *(f"{a!r} * {c}{i}" for i, a in row)])

    def stage(s, row):
        return (f"k{s} = x{s}, w{s}, z{s} = "
                f"f(q1 + ({dot(row, 'x')}) * h, p1 + ({dot(row, 'z')}) * h)")

    trial = ["def trial(f, q1, q2, p1, k0, h, tol):", "x0, w0, z0 = k0"]
    trial += [stage(s, row) for s, row in enumerate(A, 1)]
    for j, (v, c) in enumerate(zip(("q1", "q2", "p1"), "xwz")):
        # the error scale tol + max(|v|, |y_j|) tol, max picked as max() picks it
        trial += [f"y{j} = {v} + h * ({dot(B, c)})", f"s{j} = abs({v})", f"u = abs(y{j})",
                  f"s{j} = tol + (u if u > s{j} else s{j}) * tol"]
    trial.append(f"k{n} = f(y0, y2)")
    for name, row in (("n5", E5), ("n3", E3)):
        terms = (f"(({dot(row, c)}) / s{j}) ** 2" for j, c in enumerate("xwz"))
        trial.append(f"{name} = " + " + ".join(["0.0", *terms]))
    trial.append(f"return (y0, y1, y2), ({', '.join(f'k{i}' for i in range(n + 1))}), n5, n3")

    extend = ["def extend(f, h, K, q1, p1):",
              ", ".join(f"(x{i}, w{i}, z{i})" for i in range(n + 1)) + " = K"]
    extend += [stage(s, row) for s, row in enumerate(A_extra, n + 1)]
    rows = ("(" + ", ".join(f"h * ({dot(row, c)})" for c in "xwz") + ")" for row in D)
    extend.append(f"return ({', '.join(rows)})")

    code = {}
    exec("\n".join("\n    ".join(lines) for lines in (trial, extend)), code)
    return code["trial"], code["extend"]


# scipy's controller constants; the error estimator has order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
# brentq's xtol = rtol in scipy's event root search
_ROOT_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Trajectory:
    model: object
    t: np.ndarray          # strictly increasing sample times
    states: np.ndarray     # shape (len(t), 4): q1, q2, p1, p2
    nfev: int = 0          # right-hand side evaluations the solver made
    accepted: int = 0      # accepted DOP853 steps
    rejected: int = 0      # rejected DOP853 steps

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


def _rhs(model, p2):
    """(dq1, dq2, dp1)/dt at (q1, p1) as Python floats; dp2/dt is 0."""
    kern, rho, xi = FAMILY[model.family].kernel, model.rho, model.xi

    def f(q1, p1):
        a, b, c = kern(rho, xi, complex(q1, COMPLEX_STEP), cmath)
        return (a.real * p1, b.real * p2,
                -0.5 * (a.imag * p1**2 + b.imag * p2**2 + c.imag) / COMPLEX_STEP)
    return f


class _Dop853:
    """scipy's DOP853 over Python floats for the state (q1, q2, p1).

    The error norms run over all four components, with p2's error 0, so
    the controller sees what scipy's sees.  `step` advances one accepted
    step and returns False when the step size falls below 10 ulp(t);
    `dense` is the 7th-order interpolant over the last accepted step.
    """

    def __init__(self, f, y, p2, t_end, tol):
        self.f, self.t_end, self.tol = f, t_end, tol
        self.trial, self.extend = _step_functions()
        self.t, self.y = 0.0, y
        self.k = f(y[0], y[2])
        self.nfev, self.accepted, self.rejected = 2, 0, 0
        self.h_abs = self._initial_step(p2)

    def _initial_step(self, p2):
        """scipy's select_initial_step (Hairer et al. II.4); one RHS call."""
        y, k, f, t_end, tol = self.y, self.k, self.f, self.t_end, self.tol
        scale = [tol + abs(v) * tol for v in y]
        p2_scaled = p2 / (tol + abs(p2) * tol)
        d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y, scale)) + p2_scaled**2) / 2.0
        d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(k, scale))) / 2.0
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end)
        k1 = f(y[0] + h0 * k[0], y[2] + h0 * k[2])
        d2 = math.sqrt(sum(((v - w) / s) ** 2 for v, w, s in zip(k1, k, scale))) / 2.0 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100.0 * h0, h1, t_end)

    def step(self):
        f, t, y, k0, tol, trial = self.f, self.t, self.y, self.k, self.tol, self.trial
        q1, q2, p1 = y
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                self.h_abs = h_abs
                return False
            t_new = min(t + h_abs, self.t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new, K, n5, n3 = trial(f, q1, q2, p1, k0, h, tol)
            self.nfev += 12
            error_norm = 0.0 if n5 == 0.0 and n3 == 0.0 else \
                h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 4.0)
            if error_norm < 1.0:
                factor = _MAX_FACTOR if error_norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            step_rejected = True
            self.rejected += 1
        self.accepted += 1
        self.h_abs = h_abs * factor
        self.h, self.K = h, K
        self.t_old, self.y_old = t, y
        self.t, self.y, self.k = t_new, y_new, K[-1]
        return True

    def dense(self):
        """Interpolant s -> (q1, q2, p1) over the last step; three RHS calls."""
        h, K, y_old = self.h, self.K, self.y_old
        self.nfev += 3
        dy = [v - u for v, u in zip(self.y, y_old)]
        F = [dy,
             [h * fo - d for fo, d in zip(K[0], dy)],
             [2.0 * d - h * (fn + fo) for d, fn, fo in zip(dy, self.k, K[0])],
             *self.extend(self.f, h, K, y_old[0], y_old[2])]
        columns = tuple(zip(*F, y_old))
        t_old, span = self.t_old, self.t - self.t_old

        def sol(s):
            # scipy's Dop853DenseOutput: F6..F0 nested with x and 1 - x in turn
            x = (s - t_old) / span
            m = 1.0 - x
            return tuple(((((((f6 * x + f5) * m + f4) * x + f3) * m + f2) * x + f1) * m + f0) * x + u
                         for f0, f1, f2, f3, f4, f5, f6, u in columns)
        return sol


def _solve(model, initial, t_end, tol, samples, stop=None):
    """DOP853 run from `initial`; returns (trajectory, hit).

    `stop(y)` is an optional extra terminal event on (q1, q2, p1), caught
    on a downward zero crossing like the edge events; `hit` is (t, state)
    where it fired, or None.  Events are found as scipy finds them: a
    sign change between accepted steps, then brentq on the interpolant.
    """
    check_chart(model, initial.q1)
    if not (0.0 < tol < math.inf and 0.0 < t_end < math.inf):
        raise StepFailure(f"integration span and tolerance must be positive and finite, "
                          f"got {t_end}, {tol}")
    if not (isinstance(samples, numbers.Integral) and samples >= 0):
        raise DomainError(f"need a whole number of samples >= 0, got samples={samples!r}")
    lo, hi = FAMILY[model.family].chart(model.rho)
    gaps = [lambda y: y[0] - (lo + _EDGE)]
    if hi < math.inf:
        gaps.append(lambda y: (hi - _EDGE) - y[0])
    n_edge = len(gaps)
    if stop is not None:
        gaps.append(stop)
    p2 = initial.p2
    y = (initial.q1, initial.q2, initial.p1)
    solver = _Dop853(_rhs(model, p2), y, p2, t_end, tol)
    grid = np.linspace(0.0, t_end, samples).tolist()
    ts, ys = ([], []) if samples else ([0.0], [y])
    n_out = 0           # samples written so far
    inside = (0.0, y)   # the latest accepted or root-search state in the chart
    g = [gap(y) for gap in gaps]
    hit = None

    def trajectory():
        states = np.empty((len(ts), 4))
        states[:, :3] = np.reshape(ys, (-1, 3))   # no row if the first step fails
        states[:, 3] = p2
        # near an edge DOP853's steps can fall below the spacing of t; a row
        # whose time equals the next row's time is dropped
        keep = np.diff(ts, append=np.inf) > 0.0
        return Trajectory(model, np.array(ts)[keep], states[keep],
                          solver.nfev, solver.accepted, solver.rejected)

    def root(i, sol):
        from scipy.optimize import brentq

        def gap(s):
            nonlocal inside
            z = sol(s)
            if i < n_edge and lo < z[0] < hi:
                inside = (s, z)
            return gaps[i](z)
        return brentq(gap, solver.t_old, solver.t, xtol=_ROOT_TOL, rtol=_ROOT_TOL)

    while solver.t < t_end:
        if not solver.step():
            margin = chart_margin(model, inside[1][0])
            detail = (f"DOP853 gave up at t={solver.t!r}: step {solver.h_abs:.3e} "
                      f"below 10 ulp(t), chart_margin {margin:.3e} at the last "
                      f"state inside the chart (t={inside[0]!r})")
            if margin < _NEAR_EDGE:
                raise BoundaryReached(inside[0], PhasePoint(*inside[1], p2),
                                      trajectory(), detail)
            raise StepFailure(detail)
        t, y = solver.t, solver.y
        if lo < y[0] < hi:
            inside = (t, y)
        g_new = [gap(y) for gap in gaps]
        active = [i for i, (a, b) in enumerate(zip(g, g_new)) if a >= 0.0 >= b]
        g = g_new
        sol = None
        if active:
            sol = solver.dense()
            t, i = min((root(i, sol), i) for i in active)
            y = sol(t)
            hit = i, t, y
        if samples:
            while n_out < samples and grid[n_out] <= t:
                sol = sol or solver.dense()
                ts.append(grid[n_out])
                ys.append(sol(grid[n_out]))
                n_out += 1
        else:
            ts.append(t)
            ys.append(y)
        if hit is not None:
            break

    if hit is None:
        return trajectory(), None
    i, t_hit, z = hit
    if i >= n_edge:
        return trajectory(), (t_hit, PhasePoint(*z, p2))
    if not chart_margin(model, z[0]) > 0.0:
        t_hit, z = inside
        if not samples:  # the event point is also the last row
            ts[-1], ys[-1] = t_hit, z
    raise BoundaryReached(t_hit, PhasePoint(*z, p2), trajectory())


def integrate(model, initial, t_end, tol=1e-10, samples=400):
    """Trajectory of the Hamiltonian flow from `initial` over [0, t_end].

    tol is both the relative and absolute DOP853 tolerance.  The step
    control bounds the RMS over the four components of
    err / (tol * (1 + |z|)), the local error estimate scaled per
    component, by 1; it does not bound each component's per-step error,
    and one component can reach 2 * tol (1 + |z|).  The run raises
    BoundaryReached (with the partial trajectory attached) if a chart edge
    is approached within 1e-9, or if the solver gives up within 1e-6 of
    one, and StepFailure if it gives up elsewhere; either message names t,
    the step size and the chart margin.  A t_end or tol that is not
    positive and finite is a StepFailure before any step.  `samples`, a
    whole number >= 0 (else DomainError), fixes the output grid; samples=0
    returns the solver's own accepted steps.  The trajectory
    counts the right-hand side evaluations (`nfev`) and the `accepted`
    and `rejected` steps.
    """
    traj, _ = _solve(model, initial, t_end, tol, samples)
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
    """Integrate two radial periods of a libration and report phase-space closure.

    Starts at the perihelion (inner turning point, q2=0, p1=0).  The
    half period is located by the first downward crossing of p1=0 (the
    aphelion); the radial motion is symmetric in time about either
    apsis, so the full radial period t_r and its angular advance are
    twice the aphelion values.  The advance should be pi for the closed
    families (the curves depend on cos 2*phi).  A second run goes on from
    the aphelion state for 1.5 t_r, so each stretch of the two radial
    periods is integrated once.  The closure gap compares the launch state
    with the end state in embedding coordinates plus momenta, so angle
    wrapping cannot fake a gap.  `nfev` counts the right-hand side
    evaluations of all runs.  Raises NotBounded on open regimes, and
    ChartError when the perihelion lies on the axis (L so small that the
    inner turning point underflows to 0), before `kernel` divides by it.
    """
    regime = classify(model, E, L)
    if not regime.closed:
        raise NotBounded(f"regime {regime.tag} (e={regime.eccentricity}) is not bounded")
    itol = max(1e-13, min(1e-11, tol * 1e-6))
    r0 = regime.turning_points[0]
    check_chart(model, r0)
    b0 = kernel(model, r0)[1]
    t_ang = 2.0 * math.pi / (b0 * L)
    launch = (r0, 0.0, 0.0, L)
    start = PhasePoint(*launch)

    if regime.eccentricity == 0.0:
        # circular orbit: phi advances uniformly and the radial motion is
        # frozen, so half a radial period is a quarter of the angular one
        t_half = 0.25 * t_ang
        traj = integrate(model, start, t_half, tol=itol, samples=0)
        nfev, hit = traj.nfev, (t_half, traj.point(-1))
    else:
        # p1 rises from exactly 0 at launch, so only the aphelion crossing
        # (downward) is sign-safe to detect by event
        t_max, nfev = 10.0 * t_ang, 0
        for _ in range(6):
            traj, hit = _solve(model, start, t_max, itol, 0, stop=lambda y: y[2])
            nfev += traj.nfev
            if hit is not None:
                break
            t_max *= 8.0
        else:
            raise StepFailure("no radial period found within the time budget")
    t_half, apsis = hit
    t_r = 2.0 * t_half
    traj = integrate(model, apsis, 1.5 * t_r, tol=itol, samples=0)
    gap = _embedding_gap(model, launch, traj.states[-1])
    return {
        "closed": bool(gap < tol),
        "period": 2.0 * t_r,
        "radial_period": t_r,
        "angular_advance": float(2.0 * apsis.q2),
        "gap": float(gap),
        "nfev": nfev + traj.nfev,
    }
