"""Bound spectra and radial eigenproblems for the Hyp0 and HypPlus wells.

Closed-form spectra come from the linearizing quantum number
J_tilde = 2n + |m| + 1.  Their independent check quantizes `models.kernel`
the Carter (minimal) way, -Laplacian/2 + c/2: for H = (a p1^2 + b p2^2 + c)/2
the m-th angular mode solves -(p y')' + V y = E w y with

    p = sqrt(a/b),    V = m^2/p + c/sqrt(a b),    w = 2/sqrt(a b).

On a cell-centred grid that is a symmetric tridiagonal matrix whose
eigenvalues LAPACK finds by bisection with Sturm counts, followed by
Richardson extrapolation in the grid step; the eigenfunction residual
applies the same operator.  Neither consults the closed forms.  The HypPlus
count law is the difference of the matrix's Sturm counts at 0 and just
below the well edge, with no level refined.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceFailure, DomainError, NoBoundState
from .models import FAMILY, check_chart, kernel
from .specfun import jacobi, laguerre


@dataclass(frozen=True)
class Level:
    n: int
    m: int
    J_tilde: float
    E: float


def _require_quantum(model):
    if not FAMILY[model.family].closed:
        raise DomainError(f"family '{model.family}' has no discrete spectrum here")
    if model.xi <= 0.0:
        raise DomainError(f"need a confining coupling xi > 0, got xi={model.xi}")


def _xi_eff(model):
    # the closed-form HypPlus spectrum carries a quarter shift of xi; the
    # eigensolve reproduces it from the metric without being told
    return model.xi + 0.25 if model.family == "hplus" else model.xi


def _level_energy(model, J_tilde):
    rho = model.rho
    xe = _xi_eff(model)
    if model.family == "h0":
        return J_tilde * (math.sqrt(xe + rho**2 * J_tilde**2) - rho * J_tilde)
    return J_tilde * (
        math.sqrt(xe + rho * (rho - 1.0) * J_tilde**2) - (rho - 0.5) * J_tilde
    )


def _j_window_max(model):
    """Largest admissible J_tilde (HypPlus keeps a finite well)."""
    if model.family == "h0":
        return math.inf
    return math.sqrt(_xi_eff(model) / model.rho)


def spectrum(model, n_max, m_max):
    """All Level entries with n <= n_max, |m| <= m_max, sorted by energy."""
    _require_quantum(model)
    if n_max < 0 or m_max < 0:
        raise DomainError(f"need n_max, m_max >= 0, got ({n_max}, {m_max})")
    jmax = _j_window_max(model)
    levels = []
    for n in range(int(n_max) + 1):
        for m in range(-int(m_max), int(m_max) + 1):
            jt = 2.0 * n + abs(m) + 1.0
            if jt >= jmax:
                continue
            levels.append(Level(n=n, m=m, J_tilde=jt, E=_level_energy(model, jt)))
    levels.sort(key=lambda lv: (lv.E, lv.n, lv.m))
    return levels


def eigenfunction(model, level, position):
    """Unnormalized bound eigenfunction at chart position (q1, q2)."""
    _require_quantum(model)
    q1, q2 = position
    check_chart(model, q1)
    if _xi_eff(model) - 2.0 * model.rho * level.E <= 0.0:
        raise DomainError(f"level E={level.E} lies outside the bound window")
    m = level.m
    return float(_radial_wave(model, level, q1)) * complex(math.cos(m * q2), math.sin(m * q2))


# -- flux-form eigensolve -----------------------------------------------------

# Richardson pair for the second-order cell-centred scheme
_H_COARSE = 0.004
_H_FINE = 0.002
# outer end of the radial domain: first try, and the longest tried (r for
# h0, chi for hplus); the hplus kernel stays finite up to the longest end
_X_START = 10.0
_X_MAX = 200.0
# lowest eigenvalues solved so far per (model, |m|), oldest entry evicted first
_LEVEL_CACHE_CAP = 64
_LEVELS = {}


def _flux_coefficients(model, m, x):
    """p, V, w of the m-th mode of -Laplacian/2 + c/2, read from `models.kernel`.

    p = sqrt(a/b), V = m^2/p + c/sqrt(a b) and w = 2/sqrt(a b), with no
    family formula here.  p vanishes on the axis, which is what builds
    regularity into the cell-centred grid.
    """
    a, b, c = kernel(model, x)
    root = np.sqrt(a * b)
    p = np.sqrt(a / b)
    return p, m**2 / p + c / root, 2.0 / root


def _eigenvalues(model, m, x_max, h, **select):
    """Selected eigenvalues of the flux form on a cell-centred grid over [0, x_max].

    Cells [i h, (i + 1) h]; the flux through the axis face is p(0) = 0 and the
    solution vanishes one cell beyond x_max.  Symmetrised by sqrt(w), the
    matrix goes to LAPACK bisection with Sturm counts.
    """
    faces = h * np.arange(1, int(round(x_max / h)) + 1)
    p = np.concatenate(([0.0], _flux_coefficients(model, m, faces)[0]))
    _, V, w = _flux_coefficients(model, m, faces - 0.5 * h)
    diag = ((p[:-1] + p[1:]) / h**2 + V) / w
    off = -p[1:-1] / (h**2 * np.sqrt(w[:-1] * w[1:]))
    return eigh_tridiagonal(diag, off, eigvals_only=True, **select)


def _decay_length(model, E):
    """Outer end that holds a level at E to well below 1e-10 (inf at or above the edge)."""
    delta = _xi_eff(model) - 2.0 * model.rho * E
    if delta <= 0.0:
        return math.inf
    sq = math.sqrt(delta)
    if model.family == "h0":
        # turning point r^2 = 2E/delta, then about e^-70 of Gaussian decay
        return math.sqrt(2.0 * E / delta + 70.0 / sq)
    # turning point, then the density decays as exp(-2 sqrt(delta) chi)
    return 0.5 * math.log1p(8.0 * E / delta) + 18.0 / sq


def _edge(model):
    return _xi_eff(model) / (2.0 * model.rho)


def _solve_levels(model, m, k):
    """Lowest k+1 radial eigenvalues, the domain sized from the top one."""
    x_max = _X_START
    while True:
        need = math.inf  # also when fewer cells than k + 1 hold no k-th level
        if k < round(x_max / _H_COARSE):
            coarse = _eigenvalues(model, m, x_max, _H_COARSE, select="i", select_range=(0, k))
            need = _decay_length(model, coarse[-1])
        if need <= 1.05 * x_max:  # the slack stops round-off in E forcing more passes
            break
        if need == math.inf and model.family == "hplus" and count_bound_levels(model, m) <= k:
            raise NoBoundState(
                f"no level k={k} for m={m}: the HypPlus well holds fewer states"
            )
        if x_max >= _X_MAX:
            raise ConvergenceFailure(
                f"level k={k}, m={m} not settled on the longest domain {_X_MAX:g}"
            )
        x_max = min(_X_MAX, 2.0 * x_max if need == math.inf else need)
    fine = _eigenvalues(model, m, x_max, _H_FINE, select="i", select_range=(0, k))
    return tuple(float(E) for E in (4.0 * fine - coarse) / 3.0)


def shoot_eigenvalue(model, m, k):
    """k-th radial eigenvalue for angular number m, by a Sturm-Liouville eigensolve.

    Independent of the closed-form spectrum: the flux form of the radial
    equation on a cell-centred grid, LAPACK bisection with Sturm counts and
    Richardson extrapolation in the grid step.  The outer end grows until it
    covers the decay length of the solver's own k-th eigenvalue.

    One solve returns levels 0..k, and a later call for a higher k solves
    afresh; so ask each (model, |m|) for its highest level first.  Levels in
    ascending k cost one eigensolve each.
    """
    _require_quantum(model)
    m = abs(int(m))
    k = int(k)
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    key = (model, m)
    levels = _LEVELS.get(key, ())
    if k >= len(levels):
        levels = _solve_levels(model, m, k)
        _LEVELS.pop(key, None)
        _LEVELS[key] = levels
        while len(_LEVELS) > _LEVEL_CACHE_CAP:
            del _LEVELS[next(iter(_LEVELS))]
    return levels[k]


def count_bound_levels(model, m):
    """Number of bound radial levels for angular number m, by Sturm count.

    Eigenvalues in (0, edge (1 - 1e-6)] on the longest domain: the
    difference of the Sturm counts at the two ends of that interval.  The
    bisection tolerance is the interval width, so LAPACK counts the levels
    without refining any of them.  Independent of the closed-form count.
    """
    _require_quantum(model)
    if model.family == "h0":
        raise DomainError("the Hyp0 well is infinitely deep; the count diverges")
    probe = _edge(model) * (1.0 - 1e-6)
    found = _eigenvalues(
        model, abs(int(m)), _X_MAX, _H_COARSE, select="v", select_range=(0.0, probe),
        tol=probe,
    )
    return len(found)


# -- radial problem descriptor and residuals --------------------------------

@dataclass(frozen=True)
class RadialProblem:
    """Flux form -(p y')' + V y = E w y of a radial equation, with axis BC."""

    model: object
    m: int

    def p(self, x):
        return _flux_coefficients(self.model, self.m, np.asarray(x, dtype=float))[0]

    def V(self, x):
        return _flux_coefficients(self.model, self.m, np.asarray(x, dtype=float))[1]

    def w(self, x):
        return _flux_coefficients(self.model, self.m, np.asarray(x, dtype=float))[2]


def radial_problem(model, m):
    _require_quantum(model)
    return RadialProblem(model=model, m=int(m))


def _radial_wave(model, level, q):
    """Real radial factor of the eigenfunction on an array of q."""
    n, mm = level.n, abs(level.m)
    delta = _xi_eff(model) - 2.0 * model.rho * level.E
    sq = math.sqrt(delta)
    if model.family == "h0":
        zeta = sq * q**2
        return np.exp(-zeta / 2.0) * zeta ** (mm / 2.0) * laguerre(n, mm, zeta)
    t, c = np.tanh(q), np.cosh(q)
    return t**mm * c ** (-0.5 - sq) * jacobi(n, mm, sq, 1.0 - 2.0 * t**2)


def schrodinger_residual(model, level, h=1e-3):
    """Relative w-weighted L2 residual of (H - E) psi, H in flux form on step h.

    Second order: halving h should shrink the value about fourfold.
    """
    _require_quantum(model)
    E, m = level.E, level.m
    delta = _xi_eff(model) - 2.0 * model.rho * E
    if delta <= 0.0:
        raise DomainError(f"level E={E} lies outside the bound window")
    sq = math.sqrt(delta)
    if model.family == "h0":
        q_max = math.sqrt((45.0 + 10.0 * level.n) / sq)
    else:
        q_max = max(10.0, 0.5 * math.log(_xi_eff(model) / delta) + 28.0 / (0.5 + sq))
    q = np.arange(2 * h, q_max + h, h)
    psi = _radial_wave(model, level, q)
    p = _flux_coefficients(model, m, q[:-1] + 0.5 * h)[0]
    _, V, w = _flux_coefficients(model, m, q[1:-1])
    psi, flux = psi[1:-1], p * np.diff(psi)
    res = (-np.diff(flux) / h**2 + V * psi) / w - E * psi
    num = float(np.sum(w * res**2))
    den = float(np.sum(w * psi**2))
    return math.sqrt(num / den)
