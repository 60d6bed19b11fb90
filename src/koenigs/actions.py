"""Action variables for the two families with closed bounded orbits.

Only Hyp0 and HypPlus support librating radial motion; the other families
raise NotClosedRegime.  The closed forms are the family's `models.Radial`
row: J = J(E) with I_radial = J - L and I_angle = L, and energy_from_J is
its inverse E(J) on the window 0 < J, kappa rho J^2 < xi; no family is
named here.  They are cross-checked by a direct phase-space quadrature that
knows nothing about them: the trapezoid rule in a log variable under a
cosine map, doubled from N = 64 to 512 until two sizes agree.  Neither
needs scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotClosedRegime, NoMotion, QuadratureFailure
from .geodesics import classify, radial_momentum_sq
from .models import FAMILY

# trapezoid sizes of `action_quadrature`; it returns where two agree to _SETTLE max(1, |I|)
_LADDER = (64, 128, 256, 512)
_SETTLE = 1e-10


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


def action_quadrature(model, E, L):
    """I_radial, 1/pi times the loop integral of p1 dq1, by the trapezoid rule.

    The variable is s = log q1 = mid - half cos(phi) between the log turning
    points: in s the centrifugal L^2/q1^2 is entire, and the cosine map
    absorbs both square-root ends, so |p1| q1 ds is a smooth, even, periodic
    function of phi and the trapezoid rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  p1^2 is
    `radial_momentum_sq` at the nodes, so neither sigma nor a closed form
    enters.  The rule runs at N = 64, 128, 256, 512 and returns at the first
    N that agrees with the one before to 1e-10 max(1, |I|); otherwise
    QuadratureFailure names both sizes and both values.  It needs numpy only.
    """
    regime = _require_closed(model, E, L)
    if len(regime.turning_points) < 2:
        return 0.0  # circular: turning points coincide
    s_lo, s_hi = (math.log(q) for q in regime.turning_points)
    mid, half = 0.5 * (s_hi + s_lo), 0.5 * (s_hi - s_lo)
    value = math.nan  # compares false: the first size only sets `previous`
    for N in _LADDER:
        previous = value
        phi = np.arange(1, N) * (math.pi / N)
        q1 = np.exp(mid - half * np.cos(phi))
        p1 = np.sqrt(np.maximum(radial_momentum_sq(model, E, L, q1), 0.0))
        # the loop is twice the q_lo..q_hi integral, dq1 = q1 half sin(phi) dphi;
        # 1/pi (not 1/2pi) keeps I_radial + I_angle equal to the J that
        # linearizes the energy
        value = 2.0 * half / N * float(np.dot(p1, q1 * np.sin(phi)))
        if abs(value - previous) <= _SETTLE * max(1.0, abs(value)):
            return value
    raise QuadratureFailure(
        f"trapezoid rule unsettled: N {_LADDER[-2]} gives {previous!r}, N {_LADDER[-1]} "
        f"gives {value!r} (tolerance {_SETTLE:g} max(1, |I|))"
    )


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
