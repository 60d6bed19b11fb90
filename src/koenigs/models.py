"""Metric families, charts, Hamiltonians, curvature, and isometry data.

Five families live here, keyed by short chart names:

    trig    -- (x, y) in (0, pi) x R,                rho in (0, 1)
    h0      -- (r, phi) in (0, inf) x S^1,           rho > 0
    hplus   -- (chi, phi) in (0, inf) x S^1,         rho in (0,1) u (1,inf)
    hminus  -- (x, y) in (asinh(-rho), inf) x R,     any real rho
    affine  -- (u, y) in (0, inf) x R,               rho > 0

`FAMILY` is the one place for each family's parameter domain, chart and
capabilities; validation, chart checks, the flow's edge events and the
closed-orbit and quantum entry points all read it.  The two families with
closed orbits carry a `Radial` row: their radial motion is one quadratic in
u, read through that row by the classifier, the curve residual and the
action quadrature, and the row's E(J), J(E) and quantum xi shift are the
closed forms of the actions and the spectrum.  Each row also holds the
family's kernel formula, so `kernel` is one lookup, its quadratic
integrals S1, S2, which form their own H without `kernel`, and the algebra
they close into, brackets and Casimir.  Three `if fam ==` chains remain,
one function each: `scalar_curvature`, `embed` and `generators`.

Every Hamiltonian has the shape H = (a(q1) p1^2 + b(q1) p2^2 + c(q1)) / 2,
so the metric is diag(1/a, 1/b) and the potential is c/2.  All coordinate
functions below accept scalars or numpy arrays.  `kernel` and the integral
formulas pick their namespace by one rule (`_ns`): a Python float or
complex gives Python numbers through math or cmath, anything else numpy.
So a Python-float q1 on a singular point raises where numpy returns inf or
NaN with a warning: ZeroDivisionError at q1 = 0 on h0 and hplus and at the
hminus edge, OverflowError on hplus past chi of about 355.  `kernel` must stay
analytic in q1 (the flow and the eigensolve differentiate it by complex
step, the curvature oracle by Cauchy integrals) and, on hplus, finite out
to chi = 300 (where the eigensolve's collocation reads its last
coefficients, past its longest domain of 200.032): no product there may
overflow where the ratio it feeds does not.  `brioschi_curvature` takes
Cauchy integrals of 1/a and 1/b on circles of radius min(1, chart margin)/4
and half that, clear of their singularities: vertical lines through finite
chart edges, or pi/2 off the real axis.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, ConstantCurvature, ConvergenceFailure, DomainError, NoGlobalStructure

_EDGE_TOL = 1e-12
# imaginary step of every complex-step derivative: the flow's slopes and the
# bracket oracles' gradients
COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class Radial:
    """Radial quadratic p1^2 u = sigma u^2 + 2 A u - L^2 of a closed family.

    sigma = 2 (rho - kappa) E - xi and A = E + kappa L^2 / 2.  The family's
    closed forms on that quadratic live here and nowhere else: the action
    J(E) of a closed orbit, its inverse E(J) (the circular orbit at L has
    J = L), and the shift of xi that Carter quantization adds to E(J).
    """

    kappa: float       # 0 on h0, 1 on hplus
    u: object          # q1 -> u
    q1: object         # u -> q1
    u_far: float       # u at the chart's far edge
    xi_shift: float    # quantum shift of xi in E(J_tilde): 0 on h0, 1/4 on hplus

    def energy(self, rho, xi, J):
        """E(J) = J (sqrt(xi + rho (rho - kappa) J^2) - (rho - kappa/2) J)."""
        k = self.kappa
        return J * (math.sqrt(xi + rho * (rho - k) * J**2) - (rho - 0.5 * k) * J)

    def action(self, rho, xi, E):
        """J(E) = 2E / (sqrt(xi - 2 (rho - kappa) E) + sqrt(xi - 2 rho E)).

        The sum of roots does not cancel where the hplus difference
        sqrt(xi - 2 (rho - 1) E) - sqrt(xi - 2 rho E) would.
        """
        root_sigma = math.sqrt(xi - 2.0 * (rho - self.kappa) * E)  # sqrt(-sigma)
        return 2.0 * E / (root_sigma + math.sqrt(xi - 2.0 * rho * E))


@dataclass(frozen=True)
class Family:
    """Parameter domain, chart and capabilities of one family."""

    rho: tuple                  # admissible open rho interval (lo, hi)
    constant_curvature: tuple   # rho values where the metric degenerates
    chart: object               # rho -> open q1 interval (lo, hi)
    kernel: object              # (rho, xi, q1, xp) -> (a, b, c); see `kernel`
    integrals: object           # (rho, xi, q1, q2, p1, p2, which) -> S1, S2; see below
    algebra: object             # (rho, xi, E, L, S1, S2) -> brackets, Casimir; see below
    angle: bool = False         # q2 is an angle on [0, 2*pi)
    radial: Radial = None       # set where orbits close: actions and spectra


def _half_line(rho):
    return 0.0, math.inf


# -- Kernel formulas, one per family; `kernel` picks the namespace xp ----

def _trig_kernel(rho, xi, q1, xp):
    W = 1.0 - rho * xp.cos(q1)
    a = xp.sin(q1) ** 2 / W
    return a, a, xi / W


def _h0_kernel(rho, xi, q1, xp):
    r2 = q1**2
    W = 1.0 + rho * r2
    return 1.0 / W, 1.0 / (r2 * W), xi * r2 / W


def _hplus_kernel(rho, xi, q1, xp):
    s2 = xp.sinh(q1) ** 2
    W = 1.0 + rho * s2
    a = xp.cosh(q1) ** 2 / W
    return a, a / s2, xi * s2 / W


def _hminus_kernel(rho, xi, q1, xp):
    S = xp.sinh(q1) + rho
    a = xp.cosh(q1) ** 2 / S
    return a, a, xi / S


def _affine_kernel(rho, xi, q1, xp):
    u2 = q1**2
    W = 1.0 + rho * u2
    a = u2 / W
    return a, a, xi / W


# -- Quadratic integrals, one formula per family --------------------------
#
# Each formula takes every sine, cosine or exponential of q1 and of q2 once,
# in the namespace of its argument (`_ns`), and forms the H it needs from
# those same values; it calls neither `kernel` nor `hamiltonian`.  It
# returns the pair (S1, S2), or S1 alone for which = 0 and S2 alone for
# which = 1, and then forms only that one.  On a complex array a division
# costs about four multiplications, so each formula divides once or twice
# and multiplies by the reciprocal.  A product of two complex factors puts
# a temporary on the left: numpy reuses a large right-hand temporary in
# place with the factors swapped, and complex multiplication rounds
# differently then, so a whole array and its 4096-point stretches would
# differ in the last bit.

_SCALAR_NS = {complex: cmath, float: math}


def _ns(x):
    """cmath for a Python complex, math for a Python float, numpy otherwise.

    The one namespace rule of `kernel` and the integral formulas.  A scalar
    point's values stay Python numbers: a numpy float64 times a Python
    complex takes about 20 times as long as a Python float times one.  A
    numpy scalar keeps numpy.  Like cmath for the complex step, math raises
    (ZeroDivisionError, OverflowError, ValueError) where numpy would return
    inf or NaN with a warning.
    """
    return _SCALAR_NS.get(type(x), np)


def _chosen(s1, s2, which):
    return (s1, s2) if which is None else (s1, s2)[which]


def _turned(c, s, cross, rest, which):
    """The pair (c cross + s rest, c rest - s cross), or its entry `which`."""
    s1 = None if which == 1 else c * cross + s * rest
    s2 = None if which == 0 else c * rest - s * cross
    return _chosen(s1, s2, which)


def _trig_integrals(rho, xi, q1, q2, p1, p2, which):
    # the exponential pair (S+, S-); e^{-q2} is the reciprocal of e^{q2}
    x = _ns(q1)
    sx, cx = x.sin(q1), x.cos(q1)
    pp2 = p2**2
    rho_H = (sx**2 * (p1**2 + pp2) + xi) * (0.5 * rho / (1.0 - rho * cx))
    twist, rest = sx * p1 * p2, cx * pp2
    e = _ns(q2).exp(q2)
    s1 = None if which == 1 else e * (twist + rest - rho_H)
    s2 = None if which == 0 else (rest - twist - rho_H) * (1.0 / e)
    return _chosen(s1, s2, which)


def _h0_integrals(rho, xi, q1, q2, p1, p2, which):
    r2 = q1**2
    inv_r = 1.0 / q1
    p2_r2 = (p2 * inv_r) ** 2
    H = (p1**2 + p2_r2 + xi * r2) * (0.5 / (1.0 + rho * r2))
    y, angle = _ns(q2), 2 * q2
    return _turned(y.cos(angle), y.sin(angle), p1 * p2 * inv_r, H - p2_r2, which)


def _hplus_integrals(rho, xi, q1, q2, p1, p2, which):
    # the P_phi^2 coefficient of `rest` is D = (1 + cosh^2)/(2 sinh^2);
    # the doubled variant fails to commute with H
    x = _ns(q1)
    sh, ch = x.sinh(q1), x.cosh(q1)
    inv_sh = 1.0 / sh
    sh2, ch2 = sh**2, ch**2
    p2_sh2 = (p2 * inv_sh) ** 2
    H = ((p1**2 + p2_sh2) * ch2 + xi * sh2) * (0.5 / (1.0 + rho * sh2))
    cross = p1 * p2 * (ch * inv_sh)  # p1 p2 / tanh
    rest = H - 0.5 * (1.0 + ch2) * p2_sh2
    y, angle = _ns(q2), 2 * q2
    return _turned(y.cos(angle), y.sin(angle), cross, rest, which)


def _hminus_integrals(rho, xi, q1, q2, p1, p2, which):
    x = _ns(q1)
    cx, sx = x.cosh(q1), x.sinh(q1)
    pp2 = p2**2
    H = (cx**2 * (p1**2 + pp2) + xi) * (0.5 / (sx + rho))
    y = _ns(q2)
    return _turned(y.cos(q2), y.sin(q2), cx * p1 * p2, sx * pp2 - H, which)


def _affine_integrals(rho, xi, q1, q2, p1, p2, which):
    u, y = q1, q2
    u2, pp2 = u**2, p2**2
    # drop = 2 rho H - p2^2
    drop = (u2 * (p1**2 + pp2) + xi) * (rho / (1.0 + rho * u2)) - pp2
    twist = u * p1 * p2
    s1 = None if which == 1 else twist - y * drop
    s2 = None if which == 0 else y * twist - 0.5 * (u2 * pp2 + y**2 * drop)
    return _chosen(s1, s2, which)


# -- Quadratic algebra, one formula per family ----------------------------
#
# The integrals above close into a quadratic algebra with a Casimir
# (Daskaloyannis, J. Math. Phys. 42, 1100 (2001)).  From the values E,
# L = p2, S1, S2 each formula returns the canonical brackets
# {f, g} = df/dq dg/dp - df/dp dg/dq that {L, S1}, {L, S2} and {S1, S2}
# equal, then the Casimir residual (0) and the terms that scale it.

def _trig_algebra(rho, xi, E, L, s1, s2):
    # the exponential pair is an eigenpair of {L, .}
    L2 = L**2
    casimir = s1 * s2 - ((rho * E) ** 2 - 2.0 * E * L2 + L2**2 + xi * L2)
    return -s1, s2, L * (2.0 * xi - 4.0 * E + 4.0 * L2), casimir, (s1 * s2, E**2)


def _h0_algebra(rho, xi, E, L, s1, s2):
    L2 = L**2
    casimir = s1**2 + s2**2 - E**2 - (2.0 * rho * E - xi) * L2
    return -2.0 * s2, 2.0 * s1, L * (4.0 * rho * E - 2.0 * xi), casimir, (s1**2, s2**2, E**2)


def _hplus_algebra(rho, xi, E, L, s1, s2):
    L2 = L**2
    casimir = s1**2 + s2**2 - E**2 - ((2.0 * rho - 1.0) * E - xi) * L2 - 0.25 * L2**2
    S1_S2 = L * (2.0 * (2.0 * rho - 1.0) * E - 2.0 * xi + L2)
    return -2.0 * s2, 2.0 * s1, S1_S2, casimir, (s1**2, s2**2, E**2)


def _hminus_algebra(rho, xi, E, L, s1, s2):
    L2 = L**2
    casimir = s1**2 + s2**2 - E**2 - (2.0 * rho * E - xi) * L2 + L2**2
    return -s2, s1, L * (2.0 * rho * E - xi - 2.0 * L2), casimir, (s1**2, s2**2, E**2)


def _affine_algebra(rho, xi, E, L, s1, s2):
    # {L, S1} = 2 rho H - p2^2, the `drop` of the integrals
    L2 = L**2
    drop = 2.0 * rho * E - L2
    casimir = s1**2 + 2.0 * drop * s2 - (2.0 * E - xi) * L2
    return drop, -s1, L * (xi - 2.0 * E - 2.0 * s2), casimir, (s1**2, s2**2, E**2)


FAMILY = {
    "trig": Family((0.0, 1.0), (0.0, 1.0, -1.0), lambda rho: (0.0, math.pi), _trig_kernel,
                   _trig_integrals, _trig_algebra),
    "h0": Family((0.0, math.inf), (0.0,), _half_line, _h0_kernel, _h0_integrals, _h0_algebra,
                 angle=True, radial=Radial(0.0, lambda r: r * r, math.sqrt, math.inf, 0.0)),
    "hplus": Family((0.0, math.inf), (1.0,), _half_line, _hplus_kernel, _hplus_integrals,
                    _hplus_algebra, angle=True,
                    radial=Radial(1.0, lambda chi: math.tanh(chi) ** 2,
                                  lambda u: math.atanh(math.sqrt(u)), 1.0, 0.25)),
    # sinh x + rho > 0
    "hminus": Family((-math.inf, math.inf), (), lambda rho: (math.asinh(-rho), math.inf),
                     _hminus_kernel, _hminus_integrals, _hminus_algebra),
    "affine": Family((0.0, math.inf), (0.0,), _half_line, _affine_kernel, _affine_integrals,
                     _affine_algebra),
}

FAMILIES = tuple(FAMILY)


@dataclass(frozen=True)
class Model:
    family: str
    rho: float
    xi: float


@dataclass(frozen=True)
class PhasePoint:
    """Point of phase space.  Fields may be floats or equal-shape arrays."""

    q1: float
    q2: float
    p1: float
    p2: float


def make_model(family, rho, xi):
    """Check (family, rho, xi) against the family's parameter domain.

    Returns the validated Model.  Raises DomainError naming the violated
    bound, or ConstantCurvature when rho sits exactly on a
    constant-curvature degeneration.
    """
    fam, rho, xi = family, float(rho), float(xi)
    if fam not in FAMILY:
        raise DomainError(f"unknown family {fam!r}, expected one of {FAMILIES}")
    if not np.isfinite(rho) or not np.isfinite(xi):
        raise DomainError("rho and xi must be finite")
    spec = FAMILY[fam]
    if rho in spec.constant_curvature:
        raise ConstantCurvature(f"{fam} family has constant curvature at rho={rho}")
    lo, hi = spec.rho
    if not lo < rho < hi:
        raise DomainError(f"{fam} family needs rho in ({lo:g}, {hi:g}), got {rho}")
    return Model(fam, rho, xi)


def chart_margin(model, q1):
    """Distance from q1 to the nearest chart edge (inf if none, negative outside)."""
    lo, hi = FAMILY[model.family].chart(model.rho)
    return min(q1 - lo, hi - q1)


def check_chart(model, q1):
    """Raise if q1 is outside the chart or within 1e-12 of its edge."""
    if not chart_margin(model, q1) >= _EDGE_TOL:
        lo, hi = FAMILY[model.family].chart(model.rho)
        raise ChartError(
            f"{model.family} chart needs q1 in ({lo:g}, {hi:g}), at least "
            f"{_EDGE_TOL:g} from its edges, got {q1}"
        )


def make_point(model, q1, q2, p1, p2):
    """Validated phase point; angle charts get q2 reduced mod 2*pi."""
    check_chart(model, q1)
    if FAMILY[model.family].angle:
        q2 = q2 % (2.0 * math.pi)
    return PhasePoint(float(q1), float(q2), float(p1), float(p2))


# -- Hamiltonian kernel -------------------------------------------------

def kernel(model, q1):
    """Coefficients (a, b, c) with H = (a p1^2 + b p2^2 + c)/2.

    One formula per family, held by its `FAMILY` row, serves all three
    namespaces of `_ns`: cmath for a Python complex (the complex steps of
    the flow and the brackets), math for a Python float, numpy for
    everything else (arrays, numpy scalars).  So each formula stays
    analytic in q1 and uses only functions that numpy, math and cmath all
    provide, and a scalar q1 gives Python numbers.  On a Python float or
    complex the formula raises where numpy would return inf or NaN with a
    warning: ZeroDivisionError on the h0 and hplus axis q1 = 0 and at the
    hminus edge sinh q1 + rho = 0, OverflowError on hplus past chi of
    about 355, where sinh^2 leaves the float range.
    """
    return FAMILY[model.family].kernel(model.rho, model.xi, q1, _ns(q1))


def hamiltonian(model, point):
    a, b, c = kernel(model, point.q1)
    return 0.5 * (a * point.p1**2 + b * point.p2**2 + c)


def metric_components(model, q1):
    """Diagonal metric (g11, g22) in the family's chart."""
    a, b, _ = kernel(model, q1)
    return 1.0 / a, 1.0 / b


def potential(model, q1):
    _, _, c = kernel(model, q1)
    return 0.5 * c


# -- Curvature ----------------------------------------------------------

def scalar_curvature(model, q1):
    """Scalar curvature R = 2K of the metric at coordinate q1."""
    rho = model.rho
    fam = model.family
    if fam == "trig":
        c = np.cos(q1)
        W = 1.0 - rho * c
        return -(rho * np.sin(q1) ** 2 * (c - rho) / W**3 + 2.0 / W)
    if fam == "h0":
        return -4.0 * rho / (1.0 + rho * q1**2) ** 3
    if fam == "hplus":
        # written via rt = 2*rho - 1 and cX = 1 + 2/sinh^2(chi); this keeps
        # the chi -> inf limit (-2/rho) and the rho -> 1 collapse explicit
        rt = 2.0 * rho - 1.0
        cX = 1.0 + 2.0 / np.sinh(q1) ** 2
        return 2.0 * (-rt - (1.0 - rt**2) * (3.0 * cX**2 + 3.0 * rt * cX + rt**2 - 1.0) / (cX + rt) ** 3)
    if fam == "hminus":
        s = np.sinh(q1)
        S = s + rho
        return -rho + (1.0 + rho**2) * (3.0 * s**2 + 3.0 * rho * s + rho**2 + 1.0) / S**3
    if fam == "affine":
        W = 1.0 + rho * q1**2
        return -2.0 * (1.0 + 3.0 * rho * q1**2) / W**3
    raise DomainError(f"unknown family {fam!r}")


def brioschi_curvature(model, q1):
    """Scalar curvature at scalar q1 by Cauchy integrals, independent of the closed forms.

    R = -[G'' - G'(E'G + EG')/(2EG)]/(EG) for E = 1/a, G = 1/b, with
    f^(k)(q1) = k!/(M r^k) sum_j f(q1 + r e^{i theta_j}) e^{-i k theta_j} on
    M = 32 points of circles of radius r = min(1, chart margin)/4 and r/2, in
    one `kernel` call (Lyness & Moler, SIAM J. Numer. Anal. 4, 202 (1967)).
    E and G are polynomial (h0) or singular only on vertical lines through
    finite chart edges (trig, affine) or pi/2 off the real axis (hplus,
    hminus), 4r or more away: truncation is at most 4^-32.  Raises
    ConvergenceFailure when the radii disagree by over 1e-8 max(1, |R|) or R
    is not finite (hplus past chi of about 170, where G'^2 overflows).
    """
    check_chart(model, q1)
    r = 0.25 * min(1.0, chart_margin(model, q1))
    radii, M = (r, 0.5 * r), 32
    powers = np.exp(2j * math.pi / M * np.outer(np.arange(M), np.arange(3)))  # e^{i k theta_j}
    a, b, _ = kernel(model, q1 + np.multiply.outer(radii, powers[:, 1]))
    # [E or G][radius][k]: Taylor coefficient k times radius^k, as Python floats (no overflow warning)
    taylor = (((1.0 / np.array([a, b])) @ powers.conj()).real / M).tolist()
    R, R_half = (
        -(2.0 * G2 - G1 * (E1 * G + E * G1) / (2.0 * E * G)) / (s**2 * E * G)
        for (E, E1, _), (G, G1, G2), s in zip(*taylor, radii)
    )
    if not abs(R - R_half) <= 1e-8 * max(1.0, abs(R)):
        raise ConvergenceFailure(f"{model.family} q1={q1}: R is {R!r} at radius {r:.3g}, {R_half!r} at half")
    return R


# -- Global structure ---------------------------------------------------

def embed(model, q1, q2):
    """Image of (q1, q2) in the reference model of the family.

    The three curved families land on the hyperboloid x1^2+x2^2-x3^2 = -1;
    h0 maps to the plane (r cos(phi), r sin(phi), 0).  The local family has
    no global model and raises NoGlobalStructure.
    """
    fam = model.family
    if fam == "trig":
        s = np.sin(q1)
        return np.sinh(q2) / s, -np.cos(q1) / s, np.cosh(q2) / s
    if fam == "h0":
        return q1 * np.cos(q2), q1 * np.sin(q2), 0.0 * q1
    if fam == "hplus":
        s = np.sinh(q1)
        return s * np.cos(q2), s * np.sin(q2), np.cosh(q1)
    if fam == "affine":
        u, y = q1, q2
        return y / u, (u**2 + y**2 - 1.0) / (2.0 * u), (u**2 + y**2 + 1.0) / (2.0 * u)
    if fam == "hminus":
        raise NoGlobalStructure("hminus is a local family with no reference embedding")
    raise DomainError(f"unknown family {fam!r}")


def generators(model, point):
    """Values of the three isometry generators of the kinetic metric.

    trig, hplus, affine return (M1, M2, M3); h0 returns (P1, P2, L3).
    hminus raises NoGlobalStructure.
    """
    fam = model.family
    q1, q2, p1, p2 = point.q1, point.q2, point.p1, point.p2
    if fam == "trig":
        s, c = np.sin(q1), np.cos(q1)
        m1 = np.cosh(q2) * s * p1 + c * np.sinh(q2) * p2
        m2 = p2
        m3 = -np.sinh(q2) * s * p1 - c * np.cosh(q2) * p2
        return m1, m2, m3
    if fam == "h0":
        cphi, sphi = np.cos(q2), np.sin(q2)
        p_1 = cphi * p1 - sphi * p2 / q1
        p_2 = sphi * p1 + cphi * p2 / q1
        return p_1, p_2, p2
    if fam == "hplus":
        t = np.tanh(q1)
        cphi, sphi = np.cos(q2), np.sin(q2)
        m1 = sphi * p1 + cphi * p2 / t
        m2 = -cphi * p1 + sphi * p2 / t
        return m1, m2, p2
    if fam == "affine":
        u, y = q1, q2
        m1 = u * p1 + y * p2
        m2 = u * y * p1 + 0.5 * (y**2 - u**2 - 1.0) * p2
        m3 = u * y * p1 + 0.5 * (y**2 - u**2 + 1.0) * p2
        return m1, m2, m3
    if fam == "hminus":
        raise NoGlobalStructure("hminus carries no global isometry generators")
    raise DomainError(f"unknown family {fam!r}")
