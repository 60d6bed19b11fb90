"""Action variables for the two families with closed bounded orbits.

Only Hyp0 and HypPlus support librating radial motion; the other families
raise NotClosedRegime.  The closed forms are the family's `models.Radial`
row: J = J(E) with I_radial = J - L and I_angle = L, and energy_from_J is
its inverse E(J) on the window 0 < J, kappa rho J^2 < xi; no family is
named here.  They are cross-checked by a direct phase-space quadrature that
knows nothing about them.  Its adaptive route is scipy.integrate.quad,
which is imported at the first call that reaches it; the closed forms need
the math module only.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotClosedRegime, NoMotion, QuadratureFailure
from .geodesics import classify, radial_momentum_sq
from .models import FAMILY


@dataclass(frozen=True)
class ActionVars:
    I_angle: float
    I_radial: float
    J: float


def _require_closed(model, E, L):
    if FAMILY[model.family].radial is None:
        raise NotClosedRegime(f"family '{model.family}' has no closed bounded orbits")
    try:
        regime = classify(model, E, L)
    except NoMotion as exc:
        raise NotClosedRegime(str(exc)) from exc
    if not regime.closed:
        raise NotClosedRegime(
            f"(E, L) = ({E}, {L}) lies in regime '{regime.tag}', which is not closed"
        )
    return regime


def action_variables(model, E, L):
    """Closed-form ActionVars on a closed regime; NotClosedRegime otherwise."""
    _require_closed(model, E, L)
    J = FAMILY[model.family].radial.action(model.rho, model.xi, E)
    I_r = J - L
    # circular orbits land at I_r = 0 up to roundoff
    if -1e-12 < I_r < 0.0:
        I_r = 0.0
    return ActionVars(I_angle=L, I_radial=I_r, J=J)


@functools.cache
def _legendre_rule():
    """Read-only (nodes, weights) of the 160-point Gauss-Legendre rule."""
    nodes, weights = np.polynomial.legendre.leggauss(160)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def action_quadrature(model, E, L):
    """I_radial by numeric quadrature of (1/2pi) times the loop integral of p1 dq1.

    Primary route: substitute u (= r^2 or tanh(chi)^2) and then a cosine
    change of variable that absorbs both square-root turning points, leaving
    a smooth integrand for fixed-order Gauss-Legendre.  A raw adaptive
    quadrature of |p1| dq1 between the turning radii serves as an
    independent check; disagreement raises QuadratureFailure.
    """
    regime = _require_closed(model, E, L)
    if len(regime.turning_points) < 2:
        return 0.0  # circular: turning points coincide
    q_lo, q_hi = regime.turning_points
    radial = FAMILY[model.family].radial
    u_lo, u_hi = radial.u(q_lo), radial.u(q_hi)
    mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
    if half <= 0.0:
        return 0.0

    # p1^2 u = -sigma (u_hi - u)(u - u_lo), and du/dq1 = 2 sqrt(u) (1 - kappa u), so
    # I = (1/pi) * integral of sqrt(-sigma (u_hi - u)(u - u_lo)) / (2 u (1 - kappa u)) du.
    # The 1/pi (not 1/2pi) keeps I_radial + I_angle equal to the J that
    # linearizes the energy.
    nodes, weights = _legendre_rule()
    u = mid - half * np.cos(0.5 * math.pi * (nodes + 1.0))
    s2 = np.sin(0.5 * math.pi * (nodes + 1.0)) ** 2
    amp = math.sqrt(-regime.params["sigma"]) * half**2 / 2.0
    vals = s2 / (u * (1.0 - radial.kappa * u))
    primary = amp * float(np.dot(weights, vals))
    if half <= 1e-6 * max(1.0, abs(mid)):
        # turning interval collapsed to roundoff width; the loop integral
        # is below 1e-12 and the adaptive check would only divide 0 by 0
        return primary

    # raw oracle straight in the chart coordinate, with the sqrt turning-point
    # behavior handed to the quadrature as an algebraic endpoint weight
    def smooth_part(q1):
        # continuous up to the turning points; step inside by a sliver so the
        # 0/0 limit is never formed literally
        eps = 1e-9 * (q_hi - q_lo)
        q1 = min(max(q1, q_lo + eps), q_hi - eps)
        p1_sq = radial_momentum_sq(model, E, L, q1)
        return math.sqrt(max(p1_sq, 0.0) / ((q1 - q_lo) * (q_hi - q1))) * 2.0 / math.pi

    from scipy.integrate import quad

    raw, err = quad(smooth_part, q_lo, q_hi, weight="alg", wvar=(0.5, 0.5), limit=400)
    # the reported bound is conservative near the window edge; the binding
    # cross-check is the route agreement below
    if err > 1e-6 * max(1.0, abs(raw)):
        raise QuadratureFailure(f"adaptive check only reached abserr={err:g}")
    if abs(primary - raw) > 1e-7 * max(1.0, abs(primary)):
        raise QuadratureFailure(
            f"quadrature routes disagree: smooth={primary!r}, adaptive={raw!r}"
        )
    return primary


def energy_from_J(model, J):
    """Invert J(E) on the closed window 0 < J, kappa rho J^2 < xi; DomainError off it."""
    radial = FAMILY[model.family].radial
    if radial is None:
        raise NotClosedRegime(f"family '{model.family}' has no closed bounded orbits")
    if J <= 0.0:
        raise DomainError(f"need J > 0, got {J}")
    floor = radial.kappa * model.rho * J**2
    if model.xi <= floor:
        raise DomainError(
            f"{model.family} has closed orbits at J = {J} only for xi > {floor:g}, got xi = {model.xi}"
        )
    return radial.energy(model.rho, model.xi, J)
