"""Quadratic integrals and numerical Poisson-algebra checks.

The quadratic integrals S1, S2 are family specific.  Two sign conventions
for the bracket are in circulation; everything here uses the canonical
{f,g} = df/dq dg/dp - df/dp dg/dq, and the relation checks evaluate the
tabulated algebra with arguments swapped where its convention is the
reversed one.  All brackets are numeric derivatives, which keeps the
integral formulas and the algebra checks independent of each other.

Every partial derivative is a complex step, Im f(z + i h e_k) / h with
h = 1e-30 (Squire & Trapp, SIAM Rev. 40, 1998), the step the flow takes
through `kernel`: no difference cancels, so it is exact to rounding, and
the real point never moves.  One pass over a tuple-valued function makes
four calls, one per coordinate, and gives the gradient of every entry, so
the brackets among a set of functions at a point set share one pass.  A
scalar point stays a Python scalar, so `kernel` takes its cmath path.  A
point array runs in stretches of 4096 points, and `poisson_bracket` forms
the bracket of each stretch before the next, so no temporary outgrows a
stretch; full-size ones (320 KB of complex values at 20000 points) fault in
fresh heap pages on every call.  Points may carry scalars or equal-shape
arrays throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError
from .models import COMPLEX_STEP, PhasePoint, check_chart, hamiltonian

# points per stretch: a complex temporary of a stretch is 64 KB, under
# glibc's default 128 KB mmap threshold; 2048 points fault less but run
# the algebra benchmark about 9% slower, with twice the calls
_STRETCH = 4096


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


def _stretchwise(work, point, model):
    """work(z) on the coordinates z of a point set, a stretch at a time.

    work returns a sequence of values for the fields it is given, and each
    value is gathered into one array of the point set's shape.  Array fields
    run flat in stretches of `_STRETCH` points and scalar fields stay
    scalars; a scalar point is one stretch of its own and returns what work
    returns.  When a model is supplied every q1 of the set is checked
    against the chart by `check_chart` first.
    """
    z = (point.q1, point.q2, point.p1, point.p2)
    scalar = all(np.ndim(v) == 0 for v in z)
    if model is not None:
        for q1 in (z[0],) if scalar else (np.min(z[0]), np.max(z[0])):
            check_chart(model, q1)
    if scalar:
        return work(z)
    shape = np.broadcast_shapes(*(np.shape(v) for v in z))
    z = [v if np.ndim(v) == 0 else np.broadcast_to(v, shape).ravel() for v in z]
    n = math.prod(shape)
    outs = None
    for start in range(0, n, _STRETCH):
        cut = slice(start, start + _STRETCH)
        piece = work([v if np.ndim(v) == 0 else v[cut] for v in z])
        if outs is None:
            outs = [np.empty(n, np.result_type(d)) for d in piece]
        for out, d in zip(outs, piece):
            out[cut] = d
    return tuple(out.reshape(shape) for out in outs)


def _stretch_gradients(func, z, h):
    """Gradients of the entries of func at the fields z: four calls of func.

    The call for coordinate k shifts it by i h and reads d/dz_k as
    Im(value) / h.  Adding 0 Re(value) keeps an entry that is NaN at a point
    NaN in all four derivatives there.  Returned flat: the four derivatives
    of the first entry, then those of the next.
    """
    calls = [func(PhasePoint(*(v + 1j * h if i == k else v for i, v in enumerate(z))))
             for k in range(4)]
    grads = []
    for values in zip(*calls):
        nan = 0.0 * values[0].real
        grads.extend(v.imag / h + nan for v in values)
    return grads


def _gradients(func, point, model=None):
    """Complex-step gradients of every entry of a tuple-valued func.

    Each entry's gradient is returned as (d/dq1, d/dq2, d/dp1, d/dp2), one
    tuple per entry of func's value, elementwise when the point carries
    arrays.  func is held to `poisson_bracket`'s contract.  When a model is
    supplied, ChartError is raised if some q1 lies outside the chart.
    """
    flat = _stretchwise(lambda z: _stretch_gradients(func, z, COMPLEX_STEP), point, model)
    return tuple(tuple(flat[i:i + 4]) for i in range(0, len(flat), 4))


def _bracket(df, dg):
    """Canonical bracket {f, g} from the gradients df, dg of `_gradients`."""
    fq1, fq2, fp1, fp2 = df
    gq1, gq2, gp1, gp2 = dg
    return fq1 * gp1 + fq2 * gp2 - fp1 * gq1 - fp2 * gq2


def poisson_bracket(f, g, point, h=COMPLEX_STEP, model=None):
    """Canonical bracket {f, g} by complex-step derivatives with step h.

    The default step is exact to rounding; a larger h adds each
    derivative's truncation error, -h^2 f''' / 6.  f and g must be
    analytic in all four coordinates and built from numpy or cmath
    operations, as `kernel` is for the flow: no abs, max or comparisons,
    which drop or misread the imaginary part.  A function built on the math
    module raises TypeError.  Where f or g is NaN, the bracket is NaN.  The
    bracket is formed one stretch of 4096 points at a time.  When a model
    is supplied, ChartError is raised if some q1 of the point set lies
    outside the chart.  Works elementwise when the point carries arrays.
    """
    def stretch(z):
        d = _stretch_gradients(lambda w: (f(w), g(w)), z, h)
        return (_bracket(d[:4], d[4:]),)

    return _stretchwise(stretch, point, model)[0]


def _rel(residual, *terms):
    scale = 1.0
    for t in terms:
        scale = np.maximum(scale, np.abs(t))
    return np.abs(residual) / scale


def algebra_residuals(model, point):
    """Residuals |LHS - RHS| of the family's algebra relations.

    Every bracket comes from one `_gradients` pass over (H, L, S1, S2),
    so the conserved set is evaluated once per call of the pass.  Bracket
    relations use the complex-step bracket with arguments swapped
    relative to the canonical ordering (the convention the relations
    tabulated here assume); algebraic identities are evaluated exactly.
    All residuals are relative to max(1, |terms|), elementwise when the
    point carries arrays.
    """
    fam = model.family
    dH, dL, dS1, dS2 = _gradients(lambda z: _conserved_values(model, z), point, model=model)

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
        # numeric brackets and exact expansion)
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
