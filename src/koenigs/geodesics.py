"""Geodesic regime classification and closed-form orbit curves.

classify() sorts (model, E, L) into a tagged regime whose params carry
exactly the constants its curve formula needs.  curve_residual() then
measures how far a configuration-space point sits from that curve, and
the flow module provides the independent integration oracle.

Hyp0 and HypPlus share one radial quadratic.  With u = u(q1),

    p1^2 u = sigma u^2 + 2 A u - L^2,
    sigma = 2 (rho - kappa) E - xi,    A = E + kappa L^2 / 2,

read through each family's `models.Radial` row:

    family   kappa   u(q1)         q1(u)         far edge u_far
    h0       0       r^2           sqrt(u)       inf
    hplus    1       tanh^2 chi    atanh sqrt u  1

and, on that quadratic, the row's closed forms for both families:

    E(J) = J (sqrt(xi + rho (rho - kappa) J^2) - (rho - kappa/2) J)
    J(E) = 2 E / (sqrt(xi - 2 (rho - kappa) E) + sqrt(xi - 2 rho E))

Both are open exactly when 2 rho E > xi, and closed orbits fill
E_plus = E(L) < E < xi / (2 rho); the classifier, the curve residual, the
action quadrature and the closed-form actions all read the same row.

Conventions: L > 0 throughout.  Negative-energy trigonometric inputs are
mapped through (E, sigma, xi) -> (-E, -sigma, -xi), classified, and the
resulting domains and turning points reflected back through x -> pi - x;
the regime records the applied map.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError, NoGlobalStructure, NoMotion, OutOfDomain
from .models import FAMILY, PhasePoint, kernel

_REL = 1e-12

INF = math.inf


@dataclass(frozen=True)
class GeodesicRegime:
    model: object
    tag: str
    E: float
    L: float
    domain: tuple            # tuple of (lo, hi) coordinate intervals
    turning_points: tuple
    eccentricity: object     # float or None
    closed: bool
    params: dict = field(default_factory=dict)
    applied_map: object = None


def radial_momentum_sq(model, E, L, q1):
    """p1^2 enforced by H=E, p2=L at coordinate q1 (may be negative)."""
    if model.family == "hminus":
        raise NoGlobalStructure("no geodesic classification for the local family")
    a, b, c = kernel(model, q1)
    return (2.0 * E - b * L**2 - c) / a


def _near(value, target, scale):
    return abs(value - target) <= _REL * max(1.0, abs(scale))


# -- trig family ---------------------------------------------------------

def _classify_trig_zero_energy(model, L):
    xi = model.xi
    scale = max(1.0, abs(xi), L**2)
    if _near(xi, -L**2, scale):
        x_star = 0.5 * math.pi
        return dict(
            tag="e0_wall",
            domain=((0.0, x_star), (x_star, math.pi)),
            turning_points=(x_star,),
            params={"x_star": x_star},
        )
    if xi >= -_REL * scale:
        raise NoMotion(f"trig family with E=0 needs xi < 0, got xi={xi}")
    if xi > -L**2:
        cx = math.sqrt(1.0 - abs(xi) / L**2)
        x_star = math.acos(cx)
        return dict(
            tag="e0_arcs",
            domain=((0.0, x_star), (math.pi - x_star, math.pi)),
            turning_points=(x_star, math.pi - x_star),
            params={"x_star": x_star, "cos_x_star": cx},
        )
    theta = math.asinh(math.sqrt(abs(xi) / L**2 - 1.0))
    return dict(
        tag="e0_full",
        domain=((0.0, math.pi),),
        turning_points=(),
        params={"theta": theta, "sinh_theta": math.sinh(theta)},
    )


def _classify_trig_positive(eta, sigma):
    """Sub-cases for eta > 0; returns dict or raises NoMotion."""
    scale = max(1.0, abs(sigma), eta)
    if sigma >= 1.0 - _REL * scale:
        raise NoMotion(f"trig family has no motion for sigma={sigma} >= 1")
    disc = eta**2 + 2.0 * sigma * eta + 1.0
    if sigma > -1.0 + _REL * scale:
        B = math.sqrt(disc)
        x_star = math.acos(eta - B)
        return dict(
            tag="epos_single",
            domain=((x_star, math.pi),),
            turning_points=(x_star,),
            params={"eta": eta, "sigma": sigma, "B": B, "x_star": x_star},
        )
    # sigma <= -1: theta with sigma = -cosh(theta)
    sig = min(sigma, -1.0)
    theta = math.acosh(-sig)
    eth = math.exp(-theta)
    if _near(eta, eth, max(eta, eth)):
        x_star = math.acos(eth)
        return dict(
            tag="epos_sep",
            domain=((0.0, x_star), (x_star, math.pi)),
            turning_points=(x_star,),
            params={"eta": eth, "sigma": sigma, "theta": theta,
                    "x_star": x_star, "cos_x_star": eth},
        )
    if eta < eth:
        B = math.sqrt(disc)
        x_minus = math.acos(eta + B)
        x_plus = math.acos(eta - B)
        return dict(
            tag="epos_arcs",
            domain=((0.0, x_minus), (x_plus, math.pi)),
            turning_points=(x_minus, x_plus),
            params={"eta": eta, "sigma": sigma, "theta": theta, "B": B,
                    "x_minus": x_minus, "x_plus": x_plus},
        )
    n0 = eta - 1.0 + math.sqrt(max(2.0 * eta * (-sigma - 1.0), 0.0))
    return dict(
        tag="epos_full",
        domain=((0.0, math.pi),),
        turning_points=(),
        params={"eta": eta, "sigma": sigma, "theta": theta, "N0": n0,
                "p_star_sq": math.exp(theta) * (eta - eth)},
    )


def _classify_trig(model, E, L):
    rho, xi = model.rho, model.xi
    scale = max(1.0, abs(xi), L**2, abs(E))
    if _near(E, 0.0, scale):
        return _classify_trig_zero_energy(model, L), None
    eta = rho * E / L**2
    sigma = (xi / (2.0 * E) - 1.0) / rho
    if E > 0:
        return _classify_trig_positive(eta, sigma), None
    # negative energy: classify the mirrored system, then reflect
    data = _classify_trig_positive(-eta, -sigma)
    refl_domain = tuple(
        sorted((math.pi - hi, math.pi - lo) for lo, hi in data["domain"])
    )
    refl_turning = tuple(sorted(math.pi - x for x in data["turning_points"]))
    data["domain"] = refl_domain
    data["turning_points"] = refl_turning
    return data, "(E, sigma, xi) -> (-E, -sigma, -xi)"


# -- h0 and hplus: one radial quadratic -------------------------------------

def _classify_radial(model, radial, E, L):
    """Closed-family regime from p1^2 u = F(u) = sigma u^2 + 2 A u - L^2.

    F(u_far) has the sign of 2 rho E - xi, so the orbit is open above that
    line and librates in [u_-, u_+] below it.  Both roots come from forms
    that do not cancel: u_- = L^2 / (A + sqrt(delta)) and the Vieta partner
    u_+ = (A + sqrt(delta)) / (-sigma), with delta = A^2 + L^2 sigma.  Only
    open orbits have A <= 0; their u_- is (sqrt(delta) - A) / sigma.
    """
    rho, xi, kappa = model.rho, model.xi, radial.kappa
    sigma = 2.0 * (rho - kappa) * E - xi
    A = E + 0.5 * kappa * L**2
    delta = A**2 + L**2 * sigma
    scale = max(1.0, abs(E), L**2, abs(xi))
    params = {"sigma": sigma, "A": A}
    if xi + rho * (rho - kappa) * L**2 >= 0.0:
        params["E_plus"] = radial.energy(rho, xi, L)  # circular orbit: J = L
    far = 2.0 * rho * E - xi
    on_edge = _near(far, 0.0, scale)
    closed = far < 0.0 and not on_edge
    if on_edge:
        # F(u_far) = 0: drop the root at the far edge; the other one is
        # L^2 / (2A - L^2/u_far), i.e. sqrt(delta) = A - L^2/u_far
        sq = A - L**2 / radial.u_far
        if sq <= 0.0:
            raise NoMotion(f"{model.family} family: allowed band empty at 2*rho*E = xi")
    elif not closed:
        sq = math.sqrt(delta)
    elif sigma >= 0.0 or A <= 0.0:
        raise NoMotion(f"{model.family} family: no motion for 2*rho*E < xi at E={E}, L={L}")
    elif _near(delta, 0.0, max(A**2, L**2 * abs(sigma))):
        sq = 0.0      # circular orbit
    elif delta < 0.0:
        raise NoMotion(f"{model.family} family: E={E} below the circular energy for L={L}")
    else:
        sq = math.sqrt(delta)
    params["sqrt_delta"] = sq
    u_in = L**2 / (A + sq) if A > 0.0 else (sq - A) / sigma
    if u_in >= radial.u_far:
        raise NoMotion(f"{model.family} family: turning point outside the chart")
    q_in = radial.q1(u_in)
    if not closed:
        ecc = None if _near(A, 0.0, scale) else sq / abs(A)
        return GeodesicRegime(
            model, "open", E, L, domain=((q_in, INF),), turning_points=(q_in,),
            eccentricity=ecc, closed=False, params=params,
        )
    turning = (q_in, radial.q1((A + sq) / -sigma)) if sq > 0.0 else (q_in,)
    return GeodesicRegime(
        model, "closed", E, L, domain=((q_in, turning[-1]),), turning_points=turning,
        eccentricity=sq / A, closed=True, params=params,
    )


# -- affine family ---------------------------------------------------------

def _classify_affine(model, E, L):
    rho, xi = model.rho, model.xi
    radial = 2.0 * rho * E - L**2     # coefficient of the constant term
    vert = 2.0 * E - xi               # coefficient of the 1/u^2 term
    scale = max(1.0, abs(E), abs(xi), L**2, abs(rho * E))
    lines_case = _near(2.0 * E, xi, scale)
    parab_case = _near(2.0 * rho * E, L**2, scale)
    params = {"y0": 0.0}
    if lines_case:
        if radial > 0.0 and not parab_case:
            k = radial / L**2
            params["slope"] = math.sqrt(k)
            return GeodesicRegime(
                model, "lines", E, L,
                domain=((0.0, INF),), turning_points=(),
                eccentricity=None, closed=False, params=params,
            )
        raise NoMotion("affine family: 2E = xi needs 2*rho*E > L^2")
    if vert < 0.0:
        if radial <= 0.0 or parab_case:
            raise NoMotion(
                "affine family: no motion for 2E < xi with 2*rho*E <= L^2"
            )
        u_star = math.sqrt(-vert / radial)
        params.update({"u_star": u_star, "k": radial / L**2})
        return GeodesicRegime(
            model, "hyperbola", E, L,
            domain=((u_star, INF),), turning_points=(u_star,),
            eccentricity=None, closed=False, params=params,
        )
    # 2E > xi
    if parab_case:
        params["focal"] = L / (2.0 * math.sqrt(vert))
        return GeodesicRegime(
            model, "parabola", E, L,
            domain=((0.0, INF),), turning_points=(),
            eccentricity=None, closed=False, params=params,
        )
    if radial > 0.0:
        u_star = math.sqrt(vert / radial)
        params.update({"u_star": u_star, "k": radial / L**2})
        return GeodesicRegime(
            model, "conjugate_hyperbola", E, L,
            domain=((0.0, INF),), turning_points=(),
            eccentricity=None, closed=False, params=params,
        )
    kappa = (L**2 - 2.0 * rho * E) / L**2
    u_star = math.sqrt(vert / (L**2 - 2.0 * rho * E))
    params.update({"u_star": u_star, "kappa": kappa})
    return GeodesicRegime(
        model, "ellipse", E, L,
        domain=((0.0, u_star),), turning_points=(u_star,),
        eccentricity=None, closed=False, params=params,
    )


def classify(model, E, L):
    """Geodesic regime of (model, E, L); L > 0 by convention.

    Equality sub-cases (E=0, xi=-L^2, eta=e^{-theta}, 2E=xi, 2*rho*E=L^2,
    2*rho*E=xi, circular orbits) trigger at relative tolerance 1e-12.
    """
    if L <= 0.0:
        raise DomainError(f"classification assumes L > 0, got L={L}")
    fam = model.family
    if fam == "hminus":
        raise NoGlobalStructure("no geodesic classification for the local family")
    if fam == "trig":
        data, applied = _classify_trig(model, E, L)
        return GeodesicRegime(
            model, data["tag"], E, L,
            domain=tuple(data["domain"]),
            turning_points=tuple(data["turning_points"]),
            eccentricity=None, closed=False,
            params=data["params"], applied_map=applied,
        )
    radial = FAMILY[fam].radial
    if radial is not None:
        return _classify_radial(model, radial, E, L)
    if fam == "affine":
        return _classify_affine(model, E, L)
    raise DomainError(f"unknown family {fam!r}")


# -- curve evaluation -----------------------------------------------------

def _in_domain(regime, q1):
    slack = 1e-9 * max(1.0, abs(q1))
    return any(lo - slack <= q1 <= hi + slack for lo, hi in regime.domain)


def _trig_residual(regime, x, y):
    p = regime.params
    tag = regime.tag
    if regime.applied_map is not None:
        x = math.pi - x
    cx = math.cos(x)
    if tag == "e0_arcs":
        ref = p["cos_x_star"]
        if x <= 0.5 * math.pi:
            return abs(math.cosh(y) - cx / ref)
        return abs(math.cosh(y) + cx / ref)
    if tag == "e0_wall":
        t = abs(cx)
        return min(abs(math.exp(y) - t), abs(math.exp(-y) - t))
    if tag == "e0_full":
        t = cx / p["sinh_theta"]
        return min(abs(math.sinh(y) - t), abs(math.sinh(y) + t))
    if tag == "epos_single":
        return abs(math.cosh(y) - (p["eta"] - cx) / p["B"])
    if tag == "epos_arcs":
        if x <= p["x_minus"] + 1e-9:
            return abs(math.cosh(y) - (cx - p["eta"]) / p["B"])
        return abs(math.cosh(y) - (p["eta"] - cx) / p["B"])
    if tag == "epos_full":
        eta, sigma = p["eta"], p["sigma"]
        inner = max(2.0 * eta * (-sigma - cx) - math.sin(x) ** 2, 0.0)
        target = (eta - cx + math.sqrt(inner)) / p["N0"]
        return min(abs(math.exp(y) - target), abs(math.exp(-y) - target))
    if tag == "epos_sep":
        ref = p["cos_x_star"]
        if x < p["x_star"]:
            target = (cx - ref) / (1.0 - ref)
        else:
            target = (ref - cx) / (1.0 + ref)
        return min(abs(math.exp(y) - target), abs(math.exp(-y) - target))
    raise DomainError(f"unknown trig tag {tag!r}")


def curve_residual(regime, point_on_curve):
    """|LHS - RHS| of the regime's implicit curve at a point.

    Accepts a PhasePoint or a (q1, q2) pair.  Points outside the regime's
    coordinate domain raise OutOfDomain.  Velocity-sign branches are both
    tried and the smaller residual returned.
    """
    if hasattr(point_on_curve, "q1"):
        q1, q2 = point_on_curve.q1, point_on_curve.q2
    else:
        q1, q2 = point_on_curve[0], point_on_curve[1]
    if not _in_domain(regime, q1):
        raise OutOfDomain(
            f"q1={q1} outside regime domain {regime.domain} ({regime.tag})"
        )
    fam = regime.model.family
    L, p = regime.L, regime.params
    if fam == "trig":
        return _trig_residual(regime, q1, q2)
    radial = FAMILY[fam].radial
    if radial is not None:
        return abs(L**2 / radial.u(q1) - p["A"] - p["sqrt_delta"] * math.cos(2.0 * q2))
    if fam == "affine":
        dy = q2 - p["y0"]
        tag = regime.tag
        if tag == "hyperbola":
            return abs(q1**2 - p["k"] * dy**2 - p["u_star"] ** 2)
        if tag == "lines":
            return abs(q1 - p["slope"] * abs(dy))
        if tag == "conjugate_hyperbola":
            return abs(q1**2 + p["u_star"] ** 2 - p["k"] * dy**2)
        if tag == "parabola":
            return abs(abs(dy) - p["focal"] * q1**2)
        if tag == "ellipse":
            return abs(q1**2 + p["kappa"] * dy**2 - p["u_star"] ** 2)
    raise DomainError(f"unknown regime {fam!r}/{regime.tag!r}")


# -- canonical on-curve starting conditions --------------------------------

def start_point(regime):
    """A phase point on the regime's curve, for flow cross-checks.

    Regimes with a simple turning point start there with zero radial
    momentum; regimes without one start at a convenient interior point
    with the radial momentum the energy relation dictates.
    """
    model, E, L, p = regime.model, regime.E, regime.L, regime.params
    tag = regime.tag

    def psq(q1):
        return radial_momentum_sq(model, E, L, q1)

    if tag in ("e0_arcs", "epos_single", "epos_arcs", "hyperbola", "ellipse",
               "open", "closed"):
        q1 = regime.turning_points[0]
        q2 = p.get("y0", 0.0)
        return PhasePoint(q1, q2, 0.0, L)
    if tag == "e0_wall":
        # the branch that runs toward the x=pi/2 wall as y grows
        x0 = 0.25 * math.pi
        return PhasePoint(x0, -math.log(math.cos(x0)), L, L)
    if tag == "e0_full":
        x0 = 0.5 * math.pi
        return PhasePoint(x0, 0.0, math.sqrt(max(psq(x0), 0.0)), L)
    if tag == "epos_full":
        # x = pi/2 is fixed by the reflection, so no mirror case needed
        x0 = 0.5 * math.pi
        w = math.sqrt(2.0 * p["eta"] * (-p["sigma"]) - 1.0)
        y0 = math.log((p["eta"] + w) / p["N0"])
        return PhasePoint(x0, y0, math.sqrt(max(psq(x0), 0.0)), L)
    if tag == "epos_sep":
        ref = p["cos_x_star"]
        xm = 0.5 * (p["x_star"] + math.pi)
        y0 = math.log((ref - math.cos(xm)) / (1.0 + ref))
        x0 = math.pi - xm if regime.applied_map is not None else xm
        return PhasePoint(x0, y0, math.sqrt(max(psq(x0), 0.0)), L)
    if tag == "lines":
        u0 = 1.0
        return PhasePoint(u0, u0 / p["slope"], math.sqrt(max(psq(u0), 0.0)), L)
    if tag == "parabola":
        u0 = 1.0
        return PhasePoint(u0, p["y0"] + p["focal"] * u0**2,
                          math.sqrt(max(psq(u0), 0.0)), L)
    if tag == "conjugate_hyperbola":
        u0 = 1.0
        dy = math.sqrt((u0**2 + p["u_star"] ** 2) / p["k"])
        return PhasePoint(u0, p["y0"] + dy, math.sqrt(max(psq(u0), 0.0)), L)
    raise DomainError(f"no canonical start for tag {tag!r}")
