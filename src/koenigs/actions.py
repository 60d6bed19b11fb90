"""Action variables for the two families with closed bounded orbits.

Only Hyp0 and HypPlus support librating radial motion; the other families
raise NotClosedRegime.  Closed-form actions are cross-checked by a direct
phase-space quadrature that knows nothing about the closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NotClosedRegime, NoMotion, QuadratureFailure
from .geodesics import classify
from .models import FAMILY, kernel

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(160)


@dataclass(frozen=True)
class ActionVars:
    I_angle: float
    I_radial: float
    J: float


def _require_closed(model, E, L):
    if not FAMILY[model.family].closed:
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
    rho, xi = model.rho, model.xi
    if model.family == "h0":
        J = E / math.sqrt(xi - 2.0 * rho * E)
        I_r = J - L
    else:
        I_r = -L + math.sqrt(xi - 2.0 * (rho - 1.0) * E) - math.sqrt(xi - 2.0 * rho * E)
        J = I_r + L
    # circular orbits land at I_r = 0 up to roundoff
    if -1e-12 < I_r < 0.0:
        I_r = 0.0
    return ActionVars(I_angle=L, I_radial=I_r, J=J)


def _radial_quadratic(model, E, L):
    """Coefficients (A2, A1, A0) of p1^2 * u = A2 u^2 + A1 u + A0.

    u = q1^2 for Hyp0 (so p_r^2 r^2 = ...), u = tanh(q1)^2 for HypPlus.
    """
    rho, xi = model.rho, model.xi
    if model.family == "h0":
        return (2.0 * rho * E - xi, 2.0 * E, -(L**2))
    sigma = 2.0 * (rho - 1.0) * E - xi
    return (sigma, 2.0 * E + L**2, -(L**2))


def action_quadrature(model, E, L):
    """I_radial by numeric quadrature of (1/2pi) times the loop integral of p1 dq1.

    Primary route: substitute u (= r^2 or tanh(chi)^2) and then a cosine
    change of variable that absorbs both square-root turning points, leaving
    a smooth integrand for fixed-order Gauss-Legendre.  A raw adaptive
    quadrature of |p1| dq1 between the turning radii serves as an
    independent check; disagreement raises QuadratureFailure.
    """
    regime = _require_closed(model, E, L)
    A2, A1, A0 = _radial_quadratic(model, E, L)
    if A2 >= 0.0:
        raise NotClosedRegime("radial quadratic is not concave; orbit cannot librate")
    disc = A1**2 - 4.0 * A2 * A0
    if disc <= 0.0:
        return 0.0  # circular: turning points coincide
    u_lo = (-A1 + math.sqrt(disc)) / (2.0 * A2)
    u_hi = (-A1 - math.sqrt(disc)) / (2.0 * A2)
    mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
    if half <= 0.0:
        return 0.0

    # I = (1/pi) * integral of sqrt(-A2 (u_hi - u)(u - u_lo)) / (u * du_density) du,
    # du_density = u'(q1) expressed through u.  The 1/pi (not 1/2pi) keeps
    # I_radial + I_angle equal to the J that linearizes the energy.
    u = mid - half * np.cos(0.5 * math.pi * (_GL_NODES + 1.0))
    s2 = np.sin(0.5 * math.pi * (_GL_NODES + 1.0)) ** 2
    amp = math.sqrt(-A2) * half**2 / 2.0
    if model.family == "h0":
        vals = s2 / u
    else:
        vals = s2 / (u * (1.0 - u))
    primary = amp * float(np.dot(_GL_WEIGHTS, vals))
    if half <= 1e-6 * max(1.0, abs(mid)):
        # turning interval collapsed to roundoff width; the loop integral
        # is below 1e-12 and the adaptive check would only divide 0 by 0
        return primary

    # raw oracle straight in the chart coordinate, with the sqrt turning-point
    # behavior handed to the quadrature as an algebraic endpoint weight
    if model.family == "h0":
        q_lo, q_hi = math.sqrt(u_lo), math.sqrt(u_hi)
    else:
        q_lo, q_hi = math.atanh(math.sqrt(u_lo)), math.atanh(math.sqrt(u_hi))

    def p1_sq(q1):
        a, b, c = kernel(model, q1)
        return (2.0 * E - b * L**2 - c) / a

    def smooth_part(q1):
        # continuous up to the turning points; step inside by a sliver so the
        # 0/0 limit is never formed literally
        eps = 1e-9 * (q_hi - q_lo)
        q1 = min(max(q1, q_lo + eps), q_hi - eps)
        return math.sqrt(max(p1_sq(q1), 0.0) / ((q1 - q_lo) * (q_hi - q1))) * 2.0 / math.pi

    raw, err = quad(smooth_part, q_lo, q_hi, weight="alg", wvar=(0.5, 0.5), limit=400)
    # the reported bound is conservative near the window edge; the binding
    # cross-check is the route agreement below
    if err > 1e-6 * max(1.0, abs(raw)):
        raise QuadratureFailure(f"adaptive check only reached abserr={err:g}")
    if abs(primary - raw) > 1e-7 * max(1.0, abs(primary)):
        raise QuadratureFailure(
            f"quadrature routes disagree: smooth={primary!r}, adaptive={raw!r}"
        )
    del regime
    return primary


def energy_from_J(model, J):
    """Invert J(E) on the closed window; DomainError off the window."""
    rho, xi = model.rho, model.xi
    if model.family == "h0":
        if J <= 0.0:
            raise DomainError(f"need J > 0, got {J}")
        return J * (math.sqrt(xi + rho**2 * J**2) - rho * J)
    if model.family == "hplus":
        if J <= 0.0 or J**2 >= xi / rho:
            raise DomainError(f"need 0 < J < sqrt(xi/rho), got {J}")
        radicand = rho * (rho - 1.0) * J**2 + xi
        if radicand < 0.0:
            raise DomainError(f"J = {J} leaves the invertible window")
        return J * (math.sqrt(radicand) - (rho - 0.5) * J)
    raise NotClosedRegime(f"family '{model.family}' has no closed bounded orbits")


def integral_values_on_torus(model, E, L):
    """(S1, S2) evaluated at the perihelion point of a closed Hyp0 orbit."""
    if model.family != "h0":
        raise NotClosedRegime("torus values are defined for Hyp0 closed orbits only")
    av = action_variables(model, E, L)
    J = av.J
    spread = max(J**2 - L**2, 0.0)
    return (0.0, -math.sqrt(spread) * E / J)
