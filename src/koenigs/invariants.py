"""Quadratic integrals and numerical Poisson-algebra checks.

The quadratic integrals S1, S2 are family specific.  Two sign conventions
for the bracket are in circulation; everything here uses the canonical
{f,g} = df/dq dg/dp - df/dp dg/dq, and the relation checks evaluate the
tabulated algebra with arguments swapped where its convention is the
reversed one.  All brackets are finite-difference estimates, which keeps
the integral formulas and the algebra checks independent of each other.

Brackets come from one central-difference pass over a tuple-valued
function: eight evaluations give the gradient of every entry, so the
brackets among a set of functions at a point set share one stencil.
Points may carry scalars or equal-shape arrays throughout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChartError
from .models import PhasePoint, chart_margin, hamiltonian


@dataclass(frozen=True)
class ConservedSet:
    E: float
    L: float
    S1: float
    S2: float

    def as_dict(self):
        return {"E": self.E, "L": self.L, "S1": self.S1, "S2": self.S2}


def second_integrals(model, point):
    """The pair (S1, S2) of quadratic integrals at a phase point.

    For the trigonometric family these are the exponential pair
    (S+, S-); for the others a trigonometric-in-q2 pair.
    """
    fam = model.family
    rho, xi = model.rho, model.xi
    q1, q2, p1, p2 = point.q1, point.q2, point.p1, point.p2
    H = hamiltonian(model, point)
    if fam == "trig":
        s, c = np.sin(q1), np.cos(q1)
        core_plus = s * p1 * p2 + c * p2**2 - rho * H
        core_minus = -s * p1 * p2 + c * p2**2 - rho * H
        return np.exp(q2) * core_plus, np.exp(-q2) * core_minus
    if fam == "h0":
        cross = p1 * p2 / q1
        rest = H - p2**2 / q1**2
        c2, s2 = np.cos(2 * q2), np.sin(2 * q2)
        return c2 * cross + s2 * rest, -s2 * cross + c2 * rest
    if fam == "hplus":
        # P_phi^2 coefficient is (1 + cosh^2)/(2 sinh^2); the doubled
        # variant fails to commute with H, see the H-dependent form
        t = np.tanh(q1)
        D = (1.0 + np.cosh(q1) ** 2) / (2.0 * np.sinh(q1) ** 2)
        cross = p1 * p2 / t
        rest = H - D * p2**2
        c2, s2 = np.cos(2 * q2), np.sin(2 * q2)
        return c2 * cross + s2 * rest, -s2 * cross + c2 * rest
    if fam == "hminus":
        cx, sx = np.cosh(q1), np.sinh(q1)
        cross = cx * p1 * p2
        rest = sx * p2**2 - H
        cy, sy = np.cos(q2), np.sin(q2)
        return cy * cross + sy * rest, -sy * cross + cy * rest
    if fam == "affine":
        u, y = q1, q2
        drop = 2.0 * rho * H - p2**2
        s1 = u * p1 * p2 - y * drop
        s2 = 0.5 * (-(u**2) * p2**2 + 2.0 * y * u * p1 * p2 - y**2 * drop)
        return s1, s2
    raise ChartError(f"unknown family {fam!r}")


def conserved_set(model, point):
    return ConservedSet(*_conserved_values(model, point))


def _conserved_values(model, point):
    """The tuple (E, L, S1, S2) at a phase point, in the order of ConservedSet."""
    s1, s2 = second_integrals(model, point)
    return hamiltonian(model, point), point.p2, s1, s2


def conserved_functions(model):
    """Dict of callables PhasePoint -> value for E, L, S1, S2."""
    return {
        "E": lambda z: hamiltonian(model, z),
        "L": lambda z: z.p2,
        "S1": lambda z: second_integrals(model, z)[0],
        "S2": lambda z: second_integrals(model, z)[1],
    }


def _gradients(func, point, h=1e-5, model=None):
    """Central-difference gradients of every entry of a tuple-valued func.

    One stencil pass: func is evaluated at the eight points point +- s_i e_i,
    s_i = h * max(1, |z_i|), and each entry's gradient is returned as
    (d/dq1, d/dq2, d/dp1, d/dp2), one tuple per entry of func's value.
    When a model is supplied the q1 stencil is checked against the chart
    and ChartError is raised if it would leave it.  Works elementwise when
    the point carries arrays.
    """
    z = (point.q1, point.q2, point.p1, point.p2)
    steps = [h * np.maximum(1.0, np.abs(v)) for v in z]
    if model is not None:
        lo = np.min(np.atleast_1d(z[0] - steps[0]))
        hi = np.max(np.atleast_1d(z[0] + steps[0]))
        if chart_margin(model, lo) <= 0 or chart_margin(model, hi) <= 0:
            raise ChartError(
                f"bracket stencil around q1={point.q1} leaves the chart"
            )

    def shift(i, s):
        w = list(z)
        w[i] = w[i] + s
        return PhasePoint(*w)

    columns = []
    for i in range(4):
        plus, minus = func(shift(i, steps[i])), func(shift(i, -steps[i]))
        columns.append([(a - b) / (2.0 * steps[i]) for a, b in zip(plus, minus)])
    return tuple(zip(*columns))


def _bracket(df, dg):
    """Canonical bracket {f, g} from the gradients df, dg of `_gradients`."""
    fq1, fq2, fp1, fp2 = df
    gq1, gq2, gp1, gp2 = dg
    return fq1 * gp1 + fq2 * gp2 - fp1 * gq1 - fp2 * gq2


def poisson_bracket(f, g, point, h=1e-5, model=None):
    """Canonical bracket {f, g} by central differences with step h.

    One `_gradients` pass over (f, g): 16 evaluations, with the step in
    each coordinate h scaled by max(1, |coordinate|).  When a model is
    supplied the q1 stencil is checked against the chart and ChartError is
    raised if it would leave it.  Works elementwise when the point carries
    arrays.
    """
    return _bracket(*_gradients(lambda z: (f(z), g(z)), point, h=h, model=model))


def _rel(residual, *terms):
    scale = 1.0
    for t in terms:
        scale = np.maximum(scale, np.abs(t))
    return np.abs(residual) / scale


def algebra_residuals(model, point, h=1e-5):
    """Residuals |LHS - RHS| of the family's algebra relations.

    Every bracket comes from one `_gradients` pass over (H, L, S1, S2):
    eight evaluations of the conserved set.  Bracket relations use the
    finite-difference bracket with arguments swapped relative to the
    canonical ordering (the convention the relations tabulated here
    assume); algebraic identities are evaluated exactly.  All residuals
    are relative to max(1, |terms|), elementwise when the point carries
    arrays.
    """
    fam = model.family
    dH, dL, dS1, dS2 = _gradients(lambda z: _conserved_values(model, z), point, h=h, model=model)

    def pb_rev(df, dg):
        # the tabulated algebra uses the reversed argument order
        return _bracket(dg, df)

    E, L, s1, s2 = _conserved_values(model, point)
    out = {
        "dH_L": _rel(pb_rev(dH, dL), E, L),
        "dH_S1": _rel(pb_rev(dH, dS1), E, s1),
        "dH_S2": _rel(pb_rev(dH, dS2), E, s2),
    }
    rho, xi = model.rho, model.xi
    if fam == "trig":
        # eigen relations of Q -> {P_y, Q} and the cosh/sinh recombination
        out["eigen_plus"] = _rel(_bracket(dS1, dL) - s1, s1)
        out["eigen_minus"] = _rel(_bracket(dS2, dL) + s2, s2)
        x, y = point.q1, point.q2
        lhs = 0.5 * (s1 + s2) * np.cosh(y) - 0.5 * (s1 - s2) * np.sinh(y)
        rhs = L**2 * np.cos(x) - rho * E
        out["recombination"] = _rel(lhs - rhs, lhs, rhs)
    elif fam == "h0":
        lhs = s1 * np.sin(2 * point.q2) + s2 * np.cos(2 * point.q2)
        rhs = E - L**2 / point.q1**2
        out["recombination"] = _rel(lhs - rhs, lhs, rhs)
    elif fam == "hplus":
        D = (1.0 + np.cosh(point.q1) ** 2) / (2.0 * np.sinh(point.q1) ** 2)
        lhs = s1 * np.sin(2 * point.q2) + s2 * np.cos(2 * point.q2)
        rhs = E - D * L**2
        out["recombination"] = _rel(lhs - rhs, lhs, rhs)
    elif fam == "hminus":
        out["w_L_S1"] = _rel(pb_rev(dL, dS1) - s2, s1, s2)
        out["w_L_S2"] = _rel(pb_rev(dL, dS2) + s1, s1, s2)
        # cubic bracket and quartic Casimir; the relative sign of
        # (2 rho H - xi) is the one that actually closes (checked against
        # FD brackets and exact expansion)
        rhs = L * (2.0 * L**2 - 2.0 * rho * E + xi)
        out["w_S1_S2"] = _rel(pb_rev(dS1, dS2) - rhs, rhs, s1 * s2)
        cas = s1**2 + s2**2 - (E**2 - L**4 - L**2 * (xi - 2.0 * rho * E))
        out["casimir"] = _rel(cas, s1**2, s2**2, E**2)
    elif fam == "affine":
        out["w_L_S2"] = _rel(pb_rev(dL, dS2) - s1, s1, s2)
        rhs1 = L**2 - 2.0 * rho * E
        out["w_L_S1"] = _rel(pb_rev(dL, dS1) - rhs1, s1, rhs1)
        rhs12 = (2.0 * s2 + 2.0 * E - xi) * L
        out["w_S1_S2"] = _rel(pb_rev(dS1, dS2) - rhs12, rhs12, s1, s2)
        cas = s1**2 + 2.0 * (2.0 * rho * E - L**2) * s2 - (2.0 * E - xi) * L**2
        out["casimir"] = _rel(cas, s1**2, s2**2, E**2)
    return out
