"""Geodesic regime classification and closed-form orbit curves.

classify() sorts (model, E, L) into a tagged regime whose params carry
exactly the constants its curve formula needs.  curve_residual() then
measures how far a configuration-space point sits from that curve, and
the flow module provides the independent integration oracle.

Conventions: L > 0 throughout.  Negative-energy trigonometric inputs are
mapped through (E, sigma, xi) -> (-E, -sigma, -xi), classified, and the
resulting domains and turning points reflected back through x -> pi - x;
the regime records the applied map.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError, NoGlobalStructure, NoMotion, OutOfDomain
from .models import PhasePoint, kernel

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

def _classify_trig_zero_energy(model, E, L, force):
    xi = model.xi
    scale = max(1.0, abs(xi), L**2)
    if force == "e0_wall" or _near(xi, -L**2, scale):
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


def _classify_trig_positive(eta, sigma, force):
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
    if force == "epos_sep" or _near(eta, eth, max(eta, eth)):
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


def _classify_trig(model, E, L, force):
    rho, xi = model.rho, model.xi
    scale = max(1.0, abs(xi), L**2, abs(E))
    if force in ("e0_arcs", "e0_full", "e0_wall") or _near(E, 0.0, scale):
        data = _classify_trig_zero_energy(model, 0.0, L, force)
        return data, None
    eta = rho * E / L**2
    sigma = (xi / (2.0 * E) - 1.0) / rho
    if E > 0:
        return _classify_trig_positive(eta, sigma, force), None
    # negative energy: classify the mirrored system, then reflect
    data = _classify_trig_positive(-eta, -sigma, force)
    refl_domain = tuple(
        sorted((math.pi - hi, math.pi - lo) for lo, hi in data["domain"])
    )
    refl_turning = tuple(sorted(math.pi - x for x in data["turning_points"]))
    data["domain"] = refl_domain
    data["turning_points"] = refl_turning
    return data, "(E, sigma, xi) -> (-E, -sigma, -xi)"


# -- h0 family -----------------------------------------------------------

def _classify_h0(model, E, L, force):
    rho, xi = model.rho, model.xi
    a = 2.0 * rho * E - xi
    scale = max(1.0, abs(rho * E), abs(xi))
    a_is_zero = _near(a, 0.0, scale)
    params = {}
    rad = rho**2 + xi / L**2
    if rad >= 0.0:
        params["E_plus"] = L**2 * (-rho + math.sqrt(rad))
        params["E_minus"] = L**2 * (-rho - math.sqrt(rad))
    if a > 0.0 and not a_is_zero or (a_is_zero and E > 0.0):
        a_eff = 0.0 if a_is_zero else a
        delta = E**2 + L**2 * a_eff
        sq = math.sqrt(delta)
        r_star = math.sqrt(L**2 / (E + sq))
        ecc = sq / abs(E) if not _near(E, 0.0, scale) else None
        params.update({"sqrt_delta": sq, "r_star": r_star})
        return GeodesicRegime(
            model, "open", E, L,
            domain=((r_star, INF),), turning_points=(r_star,),
            eccentricity=ecc, closed=False, params=params,
        )
    if a_is_zero:
        raise NoMotion(f"h0 family with 2*rho*E = xi needs E > 0, got E={E}")
    # a < 0
    if E <= 0.0:
        raise NoMotion(f"h0 family with 2*rho*E < xi needs E > 0, got E={E}")
    delta = E**2 + L**2 * a
    if force == "circular" or _near(delta, 0.0, max(E**2, L**2 * abs(a))):
        r_star = math.sqrt(L**2 / E)
        params.update({"r_minus": r_star, "r_plus": r_star, "sqrt_delta": 0.0})
        return GeodesicRegime(
            model, "closed", E, L,
            domain=((r_star, r_star),), turning_points=(r_star,),
            eccentricity=0.0, closed=True, params=params,
        )
    if delta < 0.0:
        raise NoMotion(
            f"h0 family: E={E} below the circular energy for L={L}"
        )
    sq = math.sqrt(delta)
    r_minus = math.sqrt(L**2 / (E + sq))
    r_plus = math.sqrt(L**2 / (E - sq))
    params.update({"sqrt_delta": sq, "r_minus": r_minus, "r_plus": r_plus})
    return GeodesicRegime(
        model, "closed", E, L,
        domain=((r_minus, r_plus),), turning_points=(r_minus, r_plus),
        eccentricity=sq / E, closed=True, params=params,
    )


# -- hplus family ----------------------------------------------------------

def _classify_hplus(model, E, L, force):
    rho, xi = model.rho, model.xi
    sigma = 2.0 * (rho - 1.0) * E - xi
    A = E + 0.5 * L**2
    F1 = 2.0 * rho * E - xi          # F(u) at the chart's far edge u=1
    delta = A**2 + L**2 * sigma
    scale = max(1.0, abs(E), L**2, abs(xi))
    params = {"sigma": sigma, "A": A, "xi_over_2rho": xi / (2.0 * rho)}
    rad = xi + rho * (rho - 1.0) * L**2
    if rad >= 0.0:
        params["E_plus"] = L * (math.sqrt(rad) - (rho - 0.5) * L)

    def chi_of_u(u):
        return math.atanh(math.sqrt(u))

    f1_is_zero = _near(F1, 0.0, scale)
    if F1 > 0.0 and not f1_is_zero:
        sq = math.sqrt(delta)
        u_minus = L**2 / (A + sq)
        chi_minus = chi_of_u(u_minus)
        ecc = sq / abs(A) if abs(A) > _REL * scale else None
        params.update({"sqrt_delta": sq, "u_minus": u_minus, "chi_minus": chi_minus})
        return GeodesicRegime(
            model, "open", E, L,
            domain=((chi_minus, INF),), turning_points=(chi_minus,),
            eccentricity=ecc, closed=False, params=params,
        )
    if f1_is_zero:
        if sigma < 0.0:
            u_minus = L**2 / abs(sigma)
            if u_minus < 1.0:
                chi_minus = chi_of_u(u_minus)
                sq = math.sqrt(max(delta, 0.0))
                ecc = sq / abs(A) if abs(A) > _REL * scale else None
                params.update({"sqrt_delta": sq, "u_minus": u_minus,
                               "chi_minus": chi_minus})
                return GeodesicRegime(
                    model, "open", E, L,
                    domain=((chi_minus, INF),), turning_points=(chi_minus,),
                    eccentricity=ecc, closed=False, params=params,
                )
        raise NoMotion("hplus family: allowed band empty at 2*rho*E = xi")
    # F(1) < 0
    if sigma >= 0.0:
        raise NoMotion(
            f"hplus family: no motion for 2*rho*E < xi with sigma={sigma} >= 0"
        )
    dscale = max(A**2, L**2 * abs(sigma))
    if force == "circular" or _near(delta, 0.0, dscale):
        u_v = A / abs(sigma)
        if A > 0.0 and u_v < 1.0:
            chi_star = chi_of_u(u_v)
            params.update({"sqrt_delta": 0.0, "u_minus": u_v, "u_plus": u_v,
                           "chi_minus": chi_star, "chi_plus": chi_star})
            return GeodesicRegime(
                model, "closed", E, L,
                domain=((chi_star, chi_star),), turning_points=(chi_star,),
                eccentricity=0.0, closed=True, params=params,
            )
        raise NoMotion("hplus family: degenerate vertex outside the chart")
    if delta < 0.0 or A <= 0.0:
        raise NoMotion(f"hplus family: no real turning interval at E={E}, L={L}")
    sq = math.sqrt(delta)
    u_minus = L**2 / (A + sq)
    u_plus = L**2 / (A - sq)
    if u_minus >= 1.0:
        raise NoMotion("hplus family: turning interval outside the chart")
    chi_minus, chi_plus = chi_of_u(u_minus), chi_of_u(u_plus)
    params.update({"sqrt_delta": sq, "u_minus": u_minus, "u_plus": u_plus,
                   "chi_minus": chi_minus, "chi_plus": chi_plus})
    return GeodesicRegime(
        model, "closed", E, L,
        domain=((chi_minus, chi_plus),), turning_points=(chi_minus, chi_plus),
        eccentricity=sq / A, closed=True, params=params,
    )


# -- affine family ---------------------------------------------------------

def _classify_affine(model, E, L, force):
    rho, xi = model.rho, model.xi
    radial = 2.0 * rho * E - L**2     # coefficient of the constant term
    vert = 2.0 * E - xi               # coefficient of the 1/u^2 term
    scale = max(1.0, abs(E), abs(xi), L**2, abs(rho * E))
    lines_case = force == "lines" or _near(2.0 * E, xi, scale)
    parab_case = force == "parabola" or _near(2.0 * rho * E, L**2, scale)
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


def classify(model, E, L, force=None):
    """Geodesic regime of (model, E, L); L > 0 by convention.

    Equality sub-cases (E=0, xi=-L^2, eta=e^{-theta}, 2E=xi, 2*rho*E=L^2,
    circular orbits) trigger at relative tolerance 1e-12 and can be forced
    by passing the boundary tag through `force`.
    """
    if L <= 0.0:
        raise DomainError(f"classification assumes L > 0, got L={L}")
    fam = model.family
    if fam == "hminus":
        raise NoGlobalStructure("no geodesic classification for the local family")
    if fam == "trig":
        data, applied = _classify_trig(model, E, L, force)
        return GeodesicRegime(
            model, data["tag"], E, L,
            domain=tuple(data["domain"]),
            turning_points=tuple(data["turning_points"]),
            eccentricity=None, closed=False,
            params=data["params"], applied_map=applied,
        )
    if fam == "h0":
        return _classify_h0(model, E, L, force)
    if fam == "hplus":
        return _classify_hplus(model, E, L, force)
    if fam == "affine":
        return _classify_affine(model, E, L, force)
    raise DomainError(f"unknown family {fam!r}")


def turning_points(model, E, L):
    """All roots of radial_momentum_sq in the chart, via classify."""
    return list(classify(model, E, L).turning_points)


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
    E, L, p = regime.E, regime.L, regime.params
    if fam == "trig":
        return _trig_residual(regime, q1, q2)
    if fam == "h0":
        return abs(L**2 / q1**2 - E - p["sqrt_delta"] * math.cos(2.0 * q2))
    if fam == "hplus":
        lhs = L**2 / math.tanh(q1) ** 2
        return abs(lhs - p["A"] - p["sqrt_delta"] * math.cos(2.0 * q2))
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
