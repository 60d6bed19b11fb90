"""Bound spectra and radial eigenproblems for the Hyp0 and HypPlus wells.

Closed-form spectra come from the linearizing quantum number
J_tilde = 2n + |m| + 1: E = E(J_tilde) of the family's `models.Radial` row,
with xi raised by the row's quantum shift, and a level exists while
kappa rho J_tilde^2 < xi + shift.  The shift is 0 on Hyp0 and 1/4 on
HypPlus, whose far region is a hyperbolic plane of curvature -1/rho: the
continuous spectrum of -Laplacian/2 there starts 1/(8 rho) above the far
potential xi/(2 rho), which lifts the well edge to (xi + 1/4)/(2 rho).

Their independent check quantizes `models.kernel` the Carter (minimal) way,
-Laplacian/2 + c/2: for H = (a p1^2 + b p2^2 + c)/2 the m-th angular mode
solves -(p y')' + V y = E w y with

    p = sqrt(a/b),    V = m^2/p + c/sqrt(a b),    w = 2/sqrt(a b).

On a cell-centred grid that is a symmetric tridiagonal matrix.  The grid
error is a series in h^2, so four grids, h = 0.056, 0.028, 0.014 and 0.007,
all ending at the same x, extrapolate away its h^2, h^4 and h^6 terms:
bisection on the 0.056 grid, certified Rayleigh-quotient refinement on the
finer three.  LAPACK bisection with Sturm counts finds the 0.056 levels and
sizes the domain; each finer grid refines the levels of the grid before by
Rayleigh-quotient iteration, and keeps them only when residual windows and a
Sturm count prove that they are the lowest eigenvalues, else it bisects.
The eigenfunction residual applies the same operator, summed over
stretches of 4096 grid points.  Neither consults the closed forms.  The
HypPlus count law is checked by one Sturm count just below the well edge,
on a grid of its own (h = 0.004) over chi up to 10, whose outer end is the
solution that decays at that energy; that end lies between a Dirichlet and
a Robin end, so the count lies between their counts.
The eigensolve is the only user of scipy here: scipy.linalg loads at the
first solve, and the closed forms, eigenfunctions and residuals need numpy
only.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    if FAMILY[model.family].radial is None:
        raise DomainError(f"family '{model.family}' has no discrete spectrum here")
    if model.xi <= 0.0:
        raise DomainError(f"need a confining coupling xi > 0, got xi={model.xi}")


def _integer(name, value):
    """value as an int; DomainError when it is not a whole number."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"need an integer {name}, got {value!r}") from None
    if whole != value:
        raise DomainError(f"need an integer {name}, got {value!r}")
    return whole


def _xi_eff(model):
    # the closed-form spectrum carries the row's shift of xi; the eigensolve
    # reproduces it from the metric without being told
    return model.xi + FAMILY[model.family].radial.xi_shift


def spectrum(model, n_max, m_max):
    """All Level entries with n <= n_max, |m| <= m_max, sorted by energy."""
    _require_quantum(model)
    n_max, m_max = _integer("n_max", n_max), _integer("m_max", m_max)
    if n_max < 0 or m_max < 0:
        raise DomainError(f"need n_max, m_max >= 0, got ({n_max}, {m_max})")
    radial = FAMILY[model.family].radial
    rho, xe = model.rho, _xi_eff(model)
    levels = []
    for n in range(n_max + 1):
        for m in range(-m_max, m_max + 1):
            jt = 2.0 * n + abs(m) + 1.0
            if radial.kappa * rho * jt**2 >= xe:
                continue  # above the top of the HypPlus well
            levels.append(Level(n=n, m=m, J_tilde=jt, E=radial.energy(rho, xe, jt)))
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

# Richardson grids for the second-order cell-centred scheme: each step
# halves the last, and the domain search runs on the first
_H_GRIDS = (0.056, 0.028, 0.014, 0.007)
# the level count keeps a finer grid of its own: a level a few 1e-6 below
# the count's probe must not cross it, and the search's 0.056 grid moves
# levels far more
_H_COUNT = 0.004
# outer end of the radial domain: the eigensolve's first try, and the longest
# it tries (r for h0, chi for hplus), each snapped up to whole cells of the
# grid that runs there, to 200.032 on the eigensolve's 0.056 grid; the hplus
# kernel stays finite up to the longest end.  The count's one domain is the
# first, its outer end the solution that decays beyond it
_X_START = 10.0
_X_MAX = 200.0
# Rayleigh-quotient refinement of a finer grid stops at a residual of
# _RQI_TOL max(1, |E|), after at most _RQI_STEPS solves per level; from
# the grid before, it takes about two
_RQI_TOL = 1e-9
_RQI_STEPS = 6
# lowest eigenvalues solved so far per (model, |m|), oldest entry evicted first
_LEVEL_CACHE_CAP = 64
_LEVELS = {}
# grid points per stretch of the residual sums: its arrays, 32 KB each, stay
# well under glibc's default 128 KB mmap and trim thresholds, so the sums
# reuse heap pages, where one pass over a 16 000-point grid faults in fresh
# ones on every call
_BLOCK = 4096


def _flux_coefficients(model, m, x):
    """p, V, w of the m-th mode of -Laplacian/2 + c/2, read from `models.kernel`.

    p = sqrt(a/b), V = m^2/p + c/sqrt(a b) and w = 2/sqrt(a b), with no
    family formula here.  p vanishes on the axis, which is what builds
    regularity into the cell-centred grid.
    """
    a, b, c = kernel(model, x)
    root = np.sqrt(a * b)
    p = np.sqrt(a / b)
    V = c / root
    if m:  # the centrifugal term m^2/p
        V += m**2 / p
    return p, V, 2.0 / root


def _flux_p(model, x):
    """p = sqrt(a/b) alone, as `_flux_coefficients` has it, for the cell faces.

    The scheme needs p on the faces and V, w at the centres; this skips the
    c, V and w that the faces do not use.
    """
    a, b, _ = kernel(model, x)
    return np.sqrt(a / b)


def _flux_matrix(model, m, x_max, h):
    """Symmetrised flux form on a cell-centred grid over [0, x_max].

    Cells [i h, (i + 1) h]; the flux through the axis face is p(0) = 0 and
    the solution vanishes one cell beyond x_max.  Returns the diagonal, the
    off-diagonal and the outer face's term p(x_max) / (h^2 w) of the last
    diagonal entry.
    """
    faces = h * np.arange(1, int(round(x_max / h)) + 1)
    p = np.concatenate(([0.0], _flux_p(model, faces)))
    _, V, w = _flux_coefficients(model, m, faces - 0.5 * h)
    diag = ((p[:-1] + p[1:]) / h**2 + V) / w
    off = -p[1:-1] / (h**2 * np.sqrt(w[:-1] * w[1:]))
    return diag, off, p[-1] / (h**2 * w[-1])


def _eigenvalues(model, m, x_max, h, guess=None, **select):
    """Selected eigenvalues of `_flux_matrix`, bisected or refined from a guess.

    Without a guess LAPACK bisects the `select` eigenvalues with Sturm
    counts.  A guess of the lowest len(guess) eigenvalues, which must be
    what `select` picks, is refined by `_refine`; when its certificate
    fails, the eigenvalues are bisected as without a guess.
    """
    diag, off, _ = _flux_matrix(model, m, x_max, h)
    if guess is not None:
        found = _refine(diag, off, guess)
        if found is not None:
            return found
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diag, off, eigvals_only=True, **select)


def _count_up_to(diag, off, x):
    """Number of eigenvalues of the tridiagonal (diag, off) at or below x.

    The matrix is positive definite for xi > 0, so the count over (-1, x]
    holds them all.  The bisection tolerance is the interval width, so
    LAPACK counts by Sturm sequences without refining any eigenvalue.
    """
    from scipy.linalg import eigh_tridiagonal

    return len(eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v", select_range=(-1.0, x), tol=x + 1.0
    ))


def _refine(diag, off, guess):
    """Lowest len(guess) eigenvalues by certified Rayleigh-quotient iteration, or None.

    Each level starts from its guess and the constant vector.  A step
    solves (T - sigma) x = v with LAPACK dgtsv and sets v = x / |x|,
    sigma = v.Tv and eta = |Tv - sigma v|, until eta <= _RQI_TOL max(1,
    |sigma|).  T has an eigenvalue in [sigma - eta, sigma + eta] (Parlett,
    The Symmetric Eigenvalue Problem, 4.5).  When these windows increase
    without overlap, and the Sturm count just past the top one reads
    len(guess), window j holds the j-th eigenvalue.  None when a solve is
    singular, a level is not converged after _RQI_STEPS solves, or the
    certificate fails.
    """
    from scipy.linalg.lapack import dgtsv

    start = np.full(len(diag), 1.0 / math.sqrt(len(diag)))
    levels = []
    top = -math.inf
    for sigma in guess:
        v = start
        for _ in range(_RQI_STEPS):
            _, _, _, x, info = dgtsv(off, diag - sigma, off, v)
            scale = math.sqrt(float(x @ x))
            if info or not 0.0 < scale < math.inf:
                return None
            v = x / scale
            tv = diag * v
            tv[:-1] += off * v[1:]
            tv[1:] += off * v[:-1]
            sigma = float(v @ tv)
            tv -= sigma * v
            eta = math.sqrt(float(tv @ tv))
            if eta <= _RQI_TOL * max(1.0, abs(sigma)):
                break
        else:
            return None
        if sigma - eta <= top:
            return None
        levels.append(sigma)
        top = sigma + eta
    # a computed Sturm count is exact for a matrix a few ulps of |T| away;
    # the slack keeps the top window's eigenvalue clear of that
    slack = 1e-12 * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0))
    if _count_up_to(diag, off, top + slack) != len(levels):
        return None
    return np.array(levels)


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
    """Lowest k+1 radial eigenvalues, the domain sized from the top one.

    Bisection on the 0.056 grid, certified Rayleigh-quotient refinement on
    the finer three.  The search bisects on the coarsest grid, with the
    outer end snapped up to a whole number of its cells, until that covers
    the decay length of the grid's top level; so all four grids end at the
    same x and the last search solve is the coarsest term of the
    extrapolation.  The 0.028 grid refines the 0.056 levels, and the finer
    two refine E_h + (E_h - E_2h)/4, the grid before with its h^2 term
    moved to the next step.  Step j of the Richardson loop combines
    neighbouring grids as (4^j fine - coarse) / (4^j - 1), which removes
    the h^(2j) term.  The domain is settled when it also covers the decay
    length of the extrapolated top level, which near the HypPlus edge can
    be several times that of the 0.056 one; else the search grows the domain
    up to chi = 200.032 and then raises ConvergenceFailure.  A HypPlus
    level above the edge on the current domain is NoBoundState when
    `count_bound_levels`, taken once per solve, is at most k; else the
    domain keeps growing.
    """
    h = _H_GRIDS[0]
    x_max = _X_START
    count = None  # count_bound_levels, taken at most once: its domain is fixed
    while True:
        cells = math.ceil(x_max / h)
        x_max = cells * h
        need = math.inf  # also when fewer cells than k + 1 hold no k-th level
        if k < cells:
            table = [_eigenvalues(model, m, x_max, h, select="i", select_range=(0, k))]
            need = _decay_length(model, table[0][-1])
        # the slack stops round-off in E forcing more passes
        if need <= 1.05 * x_max:
            for step in _H_GRIDS[1:]:
                guess = table[-1] if len(table) == 1 else table[-1] + (table[-1] - table[-2]) / 4.0
                table.append(_eigenvalues(
                    model, m, x_max, step, guess=guess, select="i", select_range=(0, k)
                ))
            for j in range(1, len(table)):
                f = 4.0**j
                table = [(f * fine - coarse) / (f - 1.0) for coarse, fine in zip(table, table[1:])]
            need = _decay_length(model, table[0][-1])
            if need <= 1.05 * x_max:
                return tuple(float(E) for E in table[0])
        if need == math.inf and model.family == "hplus":
            if count is None:
                count = count_bound_levels(model, m)
            if count <= k:
                raise NoBoundState(f"no level k={k} for m={m}: the HypPlus well holds fewer states")
        if x_max >= _X_MAX:
            raise ConvergenceFailure(
                f"level k={k}, m={m} not settled on the longest domain {x_max:g}"
            )
        x_max = min(_X_MAX, 2.0 * x_max if need == math.inf else need)


def shoot_eigenvalue(model, m, k):
    """k-th radial eigenvalue for angular number m, by a Sturm-Liouville eigensolve.

    Independent of the closed-form spectrum: the flux form of the radial
    equation on cell-centred grids of step 0.056, 0.028, 0.014 and 0.007,
    and three Richardson steps that remove the h^2, h^4 and h^6 terms of
    the grid error.  Bisection on the 0.056 grid, certified
    Rayleigh-quotient refinement on the finer three: LAPACK bisects the
    coarsest grid with Sturm counts, and each finer grid refines the
    levels of the grid before, keeping them when residual windows and a
    Sturm count certify them, else bisecting too.  The outer end grows, on
    the 0.056 grid, until it covers the decay length of that grid's k-th
    eigenvalue and then of the extrapolated one; it is a whole number of
    0.056 cells, so all four grids end at the same x.  ConvergenceFailure
    when the extrapolated level needs more than chi = 200.032.

    One solve returns levels 0..k, and a later call for a higher k solves
    afresh; so ask each (model, |m|) for its highest level first.  Levels in
    ascending k cost one eigensolve each.
    """
    _require_quantum(model)
    m = abs(_integer("m", m))
    k = _integer("k", k)
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
    """Number of bound radial levels for angular number m, by one Sturm count.

    Counts the levels below the probe edge (1 - 1e-6) on [0, 10] at
    h = 0.004.  The outer ghost is y_(N+1) = r y_N with r = exp(-h (1/2 +
    sqrt(delta))), delta = xi_eff - 2 rho probe: the decaying solution at
    the probe, so the count is that of the half line up to the kernel's
    tail beyond chi = 10.  r is capped at 1 - h/2, which binds only for
    xi below about 7e-4.  So 0 <= r <= 1 - h/2 puts the last diagonal
    entry between its Dirichlet (r = 0) and Robin (r = 1 - h/2, zero slope
    of e^(chi/2) y) values, and the count between their counts.
    Independent of the closed-form count.

    Limit: a level within the probe's 1e-6 margin below the edge is not
    counted, which can happen once J_max lies within a few 1e-3 of an
    integer; the probe, not the domain, sets this.
    """
    _require_quantum(model)
    if model.family == "h0":
        raise DomainError("the Hyp0 well is infinitely deep; the count diverges")
    m = abs(_integer("m", m))
    probe = _edge(model) * (1.0 - 1e-6)
    h = _H_COUNT
    decay = math.sqrt(_xi_eff(model) - 2.0 * model.rho * probe)
    diag, off, face = _flux_matrix(model, m, _X_START, h)
    diag[-1] -= face * min(math.exp(-h * (0.5 + decay)), 1.0 - 0.5 * h)
    return _count_up_to(diag, off, probe)


# -- residuals ---------------------------------------------------------------

def _radial_wave(model, level, q):
    """Real radial factor of the eigenfunction on an array of q."""
    n, mm = level.n, abs(level.m)
    delta = _xi_eff(model) - 2.0 * model.rho * level.E
    sq = math.sqrt(delta)
    if model.family == "h0":
        zeta = sq * q**2
        return np.exp(-0.5 * zeta) * zeta ** (mm / 2.0) * laguerre(n, mm, zeta)
    # sech(q)^(1/2 + sq) as (2 e^-q / (1 + e^-2q))^(1/2 + sq): cosh(q)
    # overflows past q = 710, where the factor itself only underflows to 0
    t, e = np.tanh(q), np.exp(-q)
    return t**mm * (2.0 * e / (1.0 + e * e)) ** (0.5 + sq) * jacobi(n, mm, sq, 1.0 - 2.0 * t**2)


def schrodinger_residual(model, level, h=1e-3):
    """Relative w-weighted L2 residual of (H - E) psi, H in flux form on step h.

    Second order: halving h should shrink the value about fourfold.  The
    sums run over stretches of `_BLOCK` grid points, each with one point of
    overlap at either end.
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
    # grid q_j = (j + 2) h, j < n, the points of np.arange(2 h, q_max + h, h);
    # the residual lives on the interior points 1 <= j <= n - 2
    n = math.ceil((q_max + h - 2.0 * h) / h)
    num = den = 0.0
    for lo in range(1, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        q = h * np.arange(lo + 1, hi + 3)
        psi = _radial_wave(model, level, q)
        flux = psi[1:] - psi[:-1]
        flux *= _flux_p(model, q[:-1] + 0.5 * h)
        _, V, w = _flux_coefficients(model, m, q[1:-1])
        psi = psi[1:-1]
        # w (H - E) psi = -(p psi')' + (V - E w) psi, and w res^2 = (w res)^2 / w
        V -= E * w
        V *= psi
        wres = flux[:-1] - flux[1:]
        wres *= 1.0 / h**2
        wres += V
        num += float(np.dot(wres, wres / w))
        den += float(np.dot(psi, w * psi))
    return math.sqrt(num / den)
