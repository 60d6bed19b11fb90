"""Quadratic integrals and numerical Poisson-algebra checks.

The quadratic integrals S1, S2 are family specific: each `FAMILY` row holds
one formula for them (`Family.integrals`), which takes every sine, cosine
and exponential it needs once and forms its own H from those values.  The
energy E is `hamiltonian`, through `kernel`, so a bracket {E, S} compares
two independent pieces of code.  The S1 and S2 callables of
`conserved_functions` each form only their own integral.  Every bracket
here is the canonical {f,g} = df/dq dg/dp - df/dp dg/dq, the order of the
algebra each `FAMILY` row tabulates (`Family.algebra`).  All brackets are
numeric derivatives, which keeps the integral formulas and the algebra
table independent of each other.

Every partial derivative is a complex step, Im f(z + i h e_k) / h with
h = 1e-30 (Squire & Trapp, SIAM Rev. 40, 1998), the step the flow takes
through `kernel`: no difference cancels, so it is exact to rounding, and
the real point never moves.  One pass over a tuple-valued function makes
four calls, one per coordinate, and gives the gradient of every entry, so
the brackets among a set of functions at a point set share one pass.  A
scalar point stays Python numbers from end to end: `kernel` and the
integral formulas share one namespace rule (`models._ns`), so the shifted
coordinate runs on cmath and the others on math, and every value,
gradient and residual comes back a Python float.  Where numpy would return
inf or NaN with a warning, such a point raises (ZeroDivisionError on the
h0 and hplus axis and at the hminus edge, OverflowError on hplus past chi
of about 355); points inside the chart away from those never meet it.  A
point array runs in stretches of 4096 points, and `poisson_bracket` forms
the bracket of each stretch before the next, so no temporary outgrows a
stretch; full-size ones (320 KB of complex values at 20000 points) fault in
fresh heap pages on every call.  Points may carry scalars or equal-shape
arrays throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import COMPLEX_STEP, FAMILY, PhasePoint, check_chart, hamiltonian

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
    return _integrals(model, point, None)


def _integrals(model, point, which):
    """The family's quadratic-integral formula: (S1, S2), or S1 (which = 0) or S2 (1)."""
    return FAMILY[model.family].integrals(model.rho, model.xi, point.q1, point.q2,
                                          point.p1, point.p2, which)


def conserved_set(model, point):
    return ConservedSet(*_conserved_values(model, point))


def _conserved_values(model, point):
    """The tuple (E, L, S1, S2) at a phase point, in the order of ConservedSet."""
    return (hamiltonian(model, point), point.p2) + _integrals(model, point, None)


def conserved_functions(model):
    """Dict of callables PhasePoint -> value for E, L, S1, S2."""
    return {
        "E": lambda z: hamiltonian(model, z),
        "L": lambda z: z.p2,
        "S1": lambda z: _integrals(model, z, 0),
        "S2": lambda z: _integrals(model, z, 1),
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
    scalar = all(type(v) is float for v in z) or all(np.ndim(v) == 0 for v in z)
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
    q1, q2, p1, p2 = z
    step = 1j * h
    calls = (func(PhasePoint(q1 + step, q2, p1, p2)), func(PhasePoint(q1, q2 + step, p1, p2)),
             func(PhasePoint(q1, q2, p1 + step, p2)), func(PhasePoint(q1, q2, p1, p2 + step)))
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
    """|residual| / max(1, |terms|), elementwise; NaN wherever an argument is NaN.

    A Python-float residual is formed with builtins and stays a Python float.
    """
    scale = 1.0
    if type(residual) is not float:
        for t in terms:
            scale = np.maximum(scale, np.abs(t))
        return np.abs(residual) / scale
    for t in terms:
        t = abs(t)
        if scale == scale and not t <= scale:  # a NaN term sticks, as in np.maximum
            scale = t
    return abs(residual) / scale


def algebra_residuals(model, point):
    """Residuals of the family's quadratic algebra: the same seven keys for every family.

    One `_gradients` pass over (H, L, S1, S2) gives every canonical bracket,
    each compared with the family's row of the algebra (`Family.algebra`):

        dH_L, dH_S1, dH_S2   {H, X} = 0 for X = L, S1, S2, relative to E and X
        w_L_S1, w_L_S2       {L, Si} against the table, relative to it and Si
        w_S1_S2              {S1, S2} against the table, relative to it, S1 and S2
        casimir              the Casimir residual, relative to its scale terms

    Each is |LHS - RHS| / max(1, |terms|), elementwise when the point
    carries arrays; the Casimir takes no bracket.
    """
    dH, dL, dS1, dS2 = _gradients(lambda z: _conserved_values(model, z), point, model=model)
    E, L, s1, s2 = _conserved_values(model, point)
    algebra = FAMILY[model.family].algebra
    L_S1, L_S2, S1_S2, casimir, scale = algebra(model.rho, model.xi, E, L, s1, s2)
    return {
        "dH_L": _rel(_bracket(dH, dL), E, L),
        "dH_S1": _rel(_bracket(dH, dS1), E, s1),
        "dH_S2": _rel(_bracket(dH, dS2), E, s2),
        "w_L_S1": _rel(_bracket(dL, dS1) - L_S1, L_S1, s1),
        "w_L_S2": _rel(_bracket(dL, dS2) - L_S2, L_S2, s2),
        "w_S1_S2": _rel(_bracket(dS1, dS2) - S1_S2, S1_S2, s1, s2),
        "casimir": _rel(casimir, *scale),
    }
