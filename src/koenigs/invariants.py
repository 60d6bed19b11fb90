"""Quadratic integrals and numerical Poisson-algebra checks.

The quadratic integrals S1, S2 are family specific.  Two sign conventions
for the bracket are in circulation; everything here uses the canonical
{f,g} = df/dq dg/dp - df/dp dg/dq, and the relation checks evaluate the
tabulated algebra with arguments swapped where its convention is the
reversed one.  All brackets are finite-difference estimates, which keeps
the integral formulas and the algebra checks independent of each other.

Brackets come from one central-difference pass over a tuple-valued
function, so the brackets among a set of functions at a point set share
one stencil.  On a point array the pass makes three broadcast calls per
stretch of 2048 points: the q1 pair, the q2 pair and the four p shifts,
each stacked on a leading axis while the unshifted coordinates keep their
own shape.  A factor of q1 or q2 alone is thus computed on 4n points, not
8n.  No temporary of the stencil outgrows about 64 KB, while full-size
ones (160 KB at 20000 points) fault in fresh heap pages on every call.  A
scalar point takes its eight shifted points one call each.  Points may
carry scalars or equal-shape arrays throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError
from .models import PhasePoint, chart_margin, hamiltonian

# points per stencil stretch: a (4, 2048) block of p shifts is 64 KB, under
# glibc's default 128 KB mmap threshold; 1024 points fault less but run
# slower, with twice the calls
_STRETCH = 2048


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
    return _quadratic_pair(model, point, hamiltonian(model, point))


def _quadratic_pair(model, point, H):
    """`second_integrals` with H = hamiltonian(model, point) already known."""
    fam = model.family
    rho = model.rho
    q1, q2, p1, p2 = point.q1, point.q2, point.p1, point.p2
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
    H = hamiltonian(model, point)
    s1, s2 = _quadratic_pair(model, point, H)
    return H, point.p2, s1, s2


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

    One stencil pass at the eight points point +- s_i e_i, s_i = h * max(1,
    |z_i|): three broadcast calls per stretch of `_STRETCH` points on an
    array, eight scalar calls at a scalar point (see the module docstring).
    Each entry's gradient is returned as (d/dq1, d/dq2, d/dp1, d/dp2), one
    tuple per entry of func's value.  An entry that does not change with
    the shifted coordinate is differenced as (x - x) / 2s, so a NaN stays
    NaN.  When a model is supplied the q1 stencil of the whole point set is
    checked against the chart and ChartError is raised if it would leave
    it.  Works elementwise when the point carries arrays.
    """
    z = (point.q1, point.q2, point.p1, point.p2)
    steps = [h * np.maximum(1.0, np.abs(v)) for v in z]
    scalar = all(np.isscalar(v) for v in z)
    if model is not None:
        lo, hi = z[0] - steps[0], z[0] + steps[0]
        if not scalar:  # on a scalar point the reductions cost 12% of a call
            lo, hi = np.min(lo), np.max(hi)
        if chart_margin(model, lo) <= 0 or chart_margin(model, hi) <= 0:
            raise ChartError(
                f"bracket stencil around q1={point.q1} leaves the chart"
            )
    if scalar:
        return _stretch_gradients(func, z, steps, width=0)
    shape = np.broadcast_shapes(*(np.shape(v) for v in z))

    # array fields run flat, a stretch at a time; scalar fields stay scalars
    def flat(v):
        return v if np.ndim(v) == 0 else np.broadcast_to(v, shape).ravel()

    def part(v, cut):
        return v if np.ndim(v) == 0 else v[cut]

    z, steps = [flat(v) for v in z], [flat(s) for s in steps]
    n = math.prod(shape)
    grads = None
    for start in range(0, n, _STRETCH):
        cut = slice(start, start + _STRETCH)
        piece = _stretch_gradients(func, [part(v, cut) for v in z],
                                   [part(s, cut) for s in steps], width=1)
        if grads is None:
            grads = [[np.empty(n, np.result_type(d)) for d in entry] for entry in piece]
        for entry, values in zip(grads, piece):
            for out, d in zip(entry, values):
                out[cut] = d
    return tuple(tuple(out.reshape(shape) for out in entry) for entry in grads)


def _stretch_gradients(func, z, steps, width):
    """`_gradients` on one stretch, whose fields are scalars or equal rows.

    width is 1 when some field is a row and 0 at a scalar point.
    """
    q1, q2, p1, p2 = z
    s1, s2, s3, s4 = steps
    along_q1 = _shifted_values(func, width, [(q1 + s1, q2, p1, p2), (q1 - s1, q2, p1, p2)])
    along_q2 = _shifted_values(func, width, [(q1, q2 + s2, p1, p2), (q1, q2 - s2, p1, p2)])
    along_p = _shifted_values(func, width, [(q1, q2, p1 + s3, p2), (q1, q2, p1 - s3, p2),
                                            (q1, q2, p1, p2 + s4), (q1, q2, p1, p2 - s4)])
    return tuple(
        ((a[0] - a[1]) / (2.0 * s1), (b[0] - b[1]) / (2.0 * s2),
         (c[0] - c[1]) / (2.0 * s3), (c[2] - c[3]) / (2.0 * s4))
        for a, b, c in zip(along_q1, along_q2, along_p)
    )


def _shifted_values(func, width, points):
    """Each entry of func at the given points, as one sequence of values.

    Over a stretch the points go in one call: a coordinate that differs
    between them is stacked on a leading axis, and one that is the same
    object in every point keeps its own shape.  An entry that comes back
    without the leading axis does not depend on the stacked coordinates,
    and its value is repeated.  At a scalar point (width 0) each point is
    its own call: arithmetic on numpy scalars runs about ten times faster
    than on small arrays.
    """
    if width == 0:
        return tuple(zip(*(func(PhasePoint(*w)) for w in points)))
    k = len(points)

    def stack(rows):
        if all(r is rows[0] for r in rows):
            return rows[0]
        # rows of a scalar coordinate get a unit axis that broadcasts over the stretch
        out = np.array(rows)
        return out.reshape(k, 1) if out.ndim <= width else out

    values = func(PhasePoint(*(stack(rows) for rows in zip(*points))))
    return [x if np.ndim(x) > width else (x,) * k for x in values]


def _bracket(df, dg):
    """Canonical bracket {f, g} from the gradients df, dg of `_gradients`."""
    fq1, fq2, fp1, fp2 = df
    gq1, gq2, gp1, gp2 = dg
    return fq1 * gp1 + fq2 * gp2 - fp1 * gq1 - fp2 * gq2


def poisson_bracket(f, g, point, h=1e-5, model=None):
    """Canonical bracket {f, g} by central differences with step h.

    One `_gradients` pass over (f, g), three broadcast calls per stretch
    of 2048 points, with the step in each coordinate h scaled by
    max(1, |coordinate|).  When a model is supplied the q1 stencil is
    checked against the chart and ChartError is raised if it would leave
    it.  Works elementwise when the point carries arrays.
    """
    return _bracket(*_gradients(lambda z: (f(z), g(z)), point, h=h, model=model))


def _rel(residual, *terms):
    scale = 1.0
    for t in terms:
        scale = np.maximum(scale, np.abs(t))
    return np.abs(residual) / scale


def algebra_residuals(model, point, h=1e-5):
    """Residuals |LHS - RHS| of the family's algebra relations.

    Every bracket comes from one `_gradients` pass over (H, L, S1, S2),
    so the conserved set is evaluated once per stencil call.  Bracket
    relations use the finite-difference bracket with arguments swapped
    relative to the canonical ordering (the convention the relations
    tabulated here assume); algebraic identities are evaluated exactly.
    All residuals are relative to max(1, |terms|), elementwise when the
    point carries arrays.
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
