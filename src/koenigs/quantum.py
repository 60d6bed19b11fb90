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

`shoot_eigenvalue` solves it by Chebyshev collocation on the half line,
indexed by node counts, its domain sized by a Sturm count on a coarse grid;
`count_bound_levels` counts the HypPlus levels by one Sturm count, and the
eigenfunction residual applies the flux form on a fine grid, its
coefficients read from one table per (model, step).  None consults the
closed forms.  The solve and the count call LAPACK's dgeev and dstebz in
scipy's f2py extension `scipy/linalg/_flapack`, loaded by file path at
their first call, the package's only scipy import: scipy.linalg's package
never loads, and the rest needs numpy only.
"""

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceFailure, DomainError, NoBoundState
from .models import COMPLEX_STEP, FAMILY, check_chart, kernel
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

# step of the level search's grid, which sizes the domain and the map
_H_SEARCH = 0.056
# the level count's own finer grid: a level a few 1e-6 below its probe must
# not cross it, and the search's 0.056 grid moves levels far more
_H_COUNT = 0.004
# outer end of the radial domain (r for h0, chi for hplus): the search's
# first try and its longest, 200.032 in whole cells of its grid; the count's
# one domain is the first, its outer end the solution that decays beyond it
_X_START = 10.0
_X_MAX = 200.0
# collocation sizes, odd: no node on the axis; two neighbours settle at _SETTLE
_LADDER = (81, 121, 181, 271, 401)
_SETTLE = 1e-11
# the collocation reads r, chi <= 300: there hplus coefficients are their limits
_R_CLIP = 300.0
# lowest eigenvalues solved so far per (model, |m|), oldest entry evicted first
_LEVEL_CACHE_CAP = 64
_LEVELS = {}
# grid points per stretch of the residual sums: its arrays, 32 KB each, stay
# well under glibc's default 128 KB mmap and trim thresholds, so the sums
# reuse heap pages, where one pass over a 16 000-point grid faults in fresh
# ones on every call
_BLOCK = 4096
# the residual's coefficient table: one entry, (model, h) -> read-only rows
_COEFFICIENTS = {}


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


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's f2py LAPACK extension, `scipy/linalg/_flapack<suffix>`, loaded by file path.

    `import scipy` sets up the OpenBLAS that scipy bundles; the extension
    itself imports numpy only, so scipy.linalg's package, over 300 modules,
    never loads.  It goes into sys.modules under its own name, so a later
    `import scipy.linalg` reuses it, and is reused when that package loaded
    it first.  ImportError naming the file when there is none.
    """
    lapack = sys.modules.get(_FLAPACK)
    if lapack is None:
        import scipy

        path = (Path(scipy.__file__).parent / "linalg"
                / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}")
        if not path.is_file():
            raise ImportError("the eigensolve calls LAPACK in scipy's extension "
                              f"linalg/_flapack, not found (looked for {path})")
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        lapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lapack)
        sys.modules[_FLAPACK] = lapack
    return lapack


def _call_lapack(routine, size, *args, **options):
    """Outputs of `routine` of `_lapack` on args, less the last one, LAPACK's info.

    ConvergenceFailure naming the routine, size and info when info is not 0.
    """
    *out, info = getattr(_lapack(), routine)(*args, **options)
    if info:
        raise ConvergenceFailure(f"LAPACK {routine} failed on {size} (info {info})")
    return out


def _stebz(diag, off, select, vl, vu, il, iu, tol):
    """Eigenvalues of the symmetric tridiagonal (diag, off) by LAPACK dstebz, ascending.

    Bisection with Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9,
    386 (1967)) of those in (vl, vu] for select 1, of numbers il..iu from 1
    for select 2, each to tol, 0 for dstebz's own; scipy's eigh_tridiagonal
    calls it so.  DomainError when an entry is not finite, where bisection
    would count garbage.
    """
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise DomainError(f"the flux matrix on {len(diag)} cells is not finite: "
                          "the model's scales overflow")
    m, w, _, _ = _call_lapack("dstebz", f"{len(diag)} cells", diag, off, select,
                              vl, vu, il, iu, tol, "E")
    return w[:m]


def _eigenvalues(model, m, x_max, h, select, select_range, tol=0.0):
    """Eigenvalues of `_flux_matrix`, selected as by scipy's eigh_tridiagonal.

    select "i" takes numbers select_range[0]..[1] from 0, else ("v") the
    values in (select_range[0], select_range[1]]; bisected to tol by `_stebz`.
    """
    diag, off, _ = _flux_matrix(model, m, x_max, h)
    low, high = select_range
    if select == "i":
        return _stebz(diag, off, 2, 0.0, 1.0, low + 1, high + 1, tol)
    return _stebz(diag, off, 1, low, high, 1, 1, tol)


def _decay_length(model, E, depth=1.0):
    """Outer end that holds a level at E to well below 1e-10 (inf at or above the edge).

    depth scales the decay term: 1/18 gives one HypPlus decay length.
    """
    delta = _xi_eff(model) - 2.0 * model.rho * E
    if delta <= 0.0:
        return math.inf
    sq = math.sqrt(delta)
    if model.family == "h0":
        # turning point r^2 = 2E/delta, then about e^-70 of Gaussian decay
        return math.sqrt(2.0 * E / delta + 70.0 * depth / sq)
    # turning point, then the density decays as exp(-2 sqrt(delta) chi)
    return 0.5 * math.log1p(8.0 * E / delta) + 18.0 * depth / sq


def _edge(model):
    return _xi_eff(model) / (2.0 * model.rho)


@functools.lru_cache(maxsize=len(_LADDER))
def _chebyshev(N):
    """Points x_j = cos(j pi / N) in (0, 1) and the derivative rows folded by parity.

    Trefethen, Spectral Methods in MATLAB (SIAM 2000), Programs 11 and 28: rows x > 0,
    mirror columns added (even) or subtracted (odd), x = +-1 dropped (u = 0).  Read-only.
    """
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    half = (N - 1) // 2
    rows, diag = np.arange(half), np.arange(1, half + 1)
    # rows j = 1 .. half only, built in place: c_i / (c_j (x_i - x_j))
    D = x[1:half + 1, None] - x
    D[rows, diag] = 1.0
    np.reciprocal(D, out=D)
    D *= c[1:half + 1, None]
    D /= c
    D[rows, diag] = 0.0
    D[rows, diag] = -D.sum(axis=1)
    inner, mirror = D[:, 1:half + 1], D[:, N - 1:N - half - 1:-1]
    out = (x[1:half + 1], inner + mirror, inner - mirror)
    for a in out:
        a.flags.writeable = False
    return out


def _collocation(model, m, L, N):
    """The m-th radial operator at the (N - 1) / 2 mapped points r > 0, a real matrix.

    Divided by w the flux form reads -(p/w) y'' - (p'/w) y' + (V/w) y = E y,
    p' by complex step on `kernel`.  p, V, w are odd in r, so y has parity
    (-1)^m on the whole line r = L x / sqrt(1 - x^2) (Boyd, J. Comput. Phys.
    70, 63 (1987)); the matrix is folded onto r > 0 and acts on u = y / g,
    g = sqrt(r / p).  On HypPlus g carries the continuum edge's e^(-chi/2):
    just below the edge only the bound one of the two decaying solutions
    has a u that vanishes at infinity.  On Hyp0 g = 1.
    """
    x, even, odd = _chebyshev(N)
    q = 1.0 - x * x
    r = np.minimum(L * x / np.sqrt(q), _R_CLIP)
    p, V, w = _flux_coefficients(model, m, r + 1j * COMPLEX_STEP)
    dp = p.imag / COMPLEX_STEP
    p, V, w = p.real, V.real, w.real
    phi = np.diag(0.5 * (1.0 / r - dp / p))
    # y'/g = (d/dr + phi) u, d/dr = (dx/dr) d/dx; u' has the other parity
    dxdr = (q * np.sqrt(q) / L)[:, None]
    same, flip = (odd, even) if m % 2 else (even, odd)
    first = dxdr * same + phi
    A = -(p / w)[:, None] * ((dxdr * flip + phi) @ first) - (dp / w)[:, None] * first
    A[np.diag_indices_from(A)] += V / w
    return A


def _collocation_spectrum(model, m, L, N, vectors):
    """Eigenvalues of `_collocation` and, with vectors, its right eigenvectors, by LAPACK dgeev.

    The call is scipy.linalg.eig's, the matrix overwritten, but vr comes as
    dgeev returns it: a real eigenvalue's eigenvector is its own column of
    vr, a complex pair's shares two.  Without vectors vr is a placeholder.
    """
    A = _collocation(model, m, L, N)
    size = f"collocation N {N}"
    work, = _call_lapack("dgeev_lwork", size, len(A), compute_vl=0, compute_vr=vectors)
    wr, wi, _, vr = _call_lapack("dgeev", size, A, compute_vl=0, compute_vr=vectors,
                                 lwork=int(work.real), overwrite_a=1)
    return wr + 1j * wi, vr


def _collocation_levels(model, m, k, top):
    """Levels 0..k up the N ladder, indexed by their node counts, and why they fail.

    Search level k sets the map length: its turning point plus one HypPlus
    decay length.  Level n has n zeros on r > 0 (Zettl, Sturm-Liouville
    Theory, AMS 2005, ch. 10): past the first size, it is the lowest real
    eigenvalue below the edge whose eigenvector changes sign n times, entries
    under 1e-6 of its largest ignored, never the spurious HypPlus one just
    below the edge with about (N - 1) / 2 (Boyd, Chebyshev and Fourier
    Spectral Methods, ch. 7).  They settle when each is within `_SETTLE` of
    an eigenvalue of the size before; until a size indexes them all, the
    levels are search level k alone.
    """
    # dgeev from scipy's extension, as for the Sturm counts: numpy.linalg's
    # would add 0.7 MB of buffers
    L = _decay_length(model, top, 1.0 / 18.0)
    edge, nodes, levels = _edge(model), np.arange(k + 1)[:, None], np.array([top])
    last, _ = _collocation_spectrum(model, m, L, _LADDER[0], vectors=False)
    for before, N in zip(_LADDER, _LADDER[1:]):
        found, u = _collocation_spectrum(model, m, L, N, vectors=True)
        bound = np.flatnonzero((found.imag == 0.0) & (found.real < edge))
        bound = bound[np.argsort(found.real[bound])]
        E, u = found.real[bound], u[:, bound]
        # signs with the small entries zeroed, each zero then given the sign before it
        sign = np.sign(u) * (np.abs(u) >= 1e-6 * np.abs(u).max(axis=0))
        row = np.maximum.accumulate(np.where(sign != 0.0, np.arange(len(u))[:, None], 0), axis=0)
        sign = np.take_along_axis(sign, row, axis=0)
        hits = (sign[1:] * sign[:-1] < 0.0).sum(axis=0) == nodes
        missing = np.flatnonzero(~hits.any(axis=1))
        if missing.size:
            n = missing[0]
            failure = f"level {n} missing at N {N}: no eigenvector has {n} sign changes"
        else:
            levels = E[hits.argmax(axis=1)]
            off = np.max(np.min(np.abs(levels[:, None] - last), axis=1) / np.maximum(1.0, levels))
            if off <= _SETTLE:
                return levels, ""
            failure = (f"collocation N {before} and {N} disagree by {off:.3g} relative "
                       f"(tolerance {_SETTLE:g})")
        last = found
    return levels, failure


def _solve_levels(model, m, k):
    """Lowest k+1 radial eigenvalues, by mapped Chebyshev collocation.

    The search bisects level k of the 0.056 grid, its outer end whole cells,
    until that covers the decay length of its level k and then of the
    collocation's; past chi = 200.032, or when the collocation fails on a
    settled domain, ConvergenceFailure.  A HypPlus level above the edge is
    NoBoundState when `count_bound_levels`, taken once, is at most k.
    """
    h = _H_SEARCH
    x_max = _X_START
    count = None  # count_bound_levels, taken at most once: its domain is fixed
    while True:
        cells = math.ceil(x_max / h)
        x_max = cells * h
        need = math.inf  # also when k cells or fewer hold no k-th level
        failure = ""
        if k < cells:
            # bisected to 1e-6, far below the grid's error
            top, = _eigenvalues(model, m, x_max, h, select="i", select_range=(k, k), tol=1e-6)
            need = _decay_length(model, top)
        # the slack stops round-off in E forcing more passes
        if need <= 1.05 * x_max:
            levels, failure = _collocation_levels(model, m, k, top)
            need = _decay_length(model, levels[-1])
            if need <= 1.05 * x_max:
                if failure:
                    raise ConvergenceFailure(f"level k={k}, m={m}: {failure}")
                return tuple(float(E) for E in levels)
        if need == math.inf and model.family == "hplus":
            if count is None:
                count = count_bound_levels(model, m)
            if count <= k:
                raise NoBoundState(f"no level k={k} for m={m}: the HypPlus well holds fewer states")
        if x_max >= _X_MAX:
            raise ConvergenceFailure(
                f"level k={k}, m={m} not settled on the longest domain {x_max:g}: its "
                f"density needs {need:.4g}" + (f"; {failure}" if failure else "")
            )
        x_max = min(_X_MAX, 2.0 * x_max if need == math.inf else need)


def shoot_eigenvalue(model, m, k):
    """k-th radial eigenvalue for angular number m, by spectral collocation.

    Independent of the closed-form spectrum.  A Sturm count on a 0.056 grid
    finds level k, which sizes the domain and the map length L; the radial
    equation is collocated at Chebyshev points of r = L x / sqrt(1 - x^2),
    folded by parity, at N = 81 and 121, else 181, 271 and 401, level n the
    lowest with n sign changes, until each level is within 1e-11 max(1, E)
    of an eigenvalue of the size before.  Else, as when the top level needs
    more than chi = 200.032, ConvergenceFailure says how far.

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
    # positive definite for xi > 0, so (-1, probe] holds every level below the
    # probe; a bisection tolerance of the interval's width counts by Sturm
    # sequences without refining any eigenvalue
    return len(_stebz(diag, off, 1, -1.0, probe, 1, 1, probe + 1.0))


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


def _coefficient_table(model, h, n):
    """Rows p at the faces, then p, c/sqrt(a b) and w at the points, of grid points j < n.

    Point j sits at q = (j + 2) h, its face at q + h/2; the rows are
    `_flux_p` and `_flux_coefficients(model, 0, .)` there, which hold no
    mode or level.  The table is the one entry of `_COEFFICIENTS`, kept
    while calls on the same (model, h) need no longer grid, else rebuilt
    in `_BLOCK` stretches so that no temporary outgrows one.  Read-only.
    """
    key = (model, h)
    table = _COEFFICIENTS.get(key)
    if table is None or table.shape[1] < n:
        _COEFFICIENTS.clear()
        table = np.empty((4, n))
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            q = h * np.arange(lo + 2, hi + 2)
            table[0, lo:hi] = _flux_p(model, q + 0.5 * h)
            table[1:, lo:hi] = _flux_coefficients(model, 0, q)
        table.flags.writeable = False
        _COEFFICIENTS[key] = table
    return table


def schrodinger_residual(model, level, h=1e-3):
    """Relative w-weighted L2 residual of (H - E) psi, H in flux form on step h.

    Second order: halving h should shrink the value about fourfold.  The
    sums run over stretches of `_BLOCK` grid points, each with one point of
    overlap at either end.  The coefficients come from one table per
    (model, h), 32 bytes per grid point of the longest grid asked of it;
    V = c/sqrt(a b) + m^2/p is formed per call.  DomainError when h is not
    positive and finite or leaves fewer than three grid points.
    """
    _require_quantum(model)
    if not 0.0 < h < math.inf:
        raise DomainError(f"need a positive finite step h, got h={h!r}")
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
    if n < 3:
        raise DomainError(f"step h={h!r} leaves fewer than 3 grid points below q_max {q_max:.4g}")
    face, p, cr, w = _coefficient_table(model, h, n)
    num = den = 0.0
    for lo in range(1, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        psi = _radial_wave(model, level, h * np.arange(lo + 1, hi + 3))
        flux = psi[1:] - psi[:-1]
        flux *= face[lo - 1:hi]
        psi, wj = psi[1:-1], w[lo:hi]
        # w (H - E) psi = -(p psi')' + (V - E w) psi, and w res^2 = (w res)^2 / w
        V = cr[lo:hi] + m**2 / p[lo:hi] if m else cr[lo:hi]
        V = V - E * wj
        V *= psi
        wres = flux[:-1] - flux[1:]
        wres *= 1.0 / h**2
        wres += V
        num += float(np.dot(wres, wres / wj))
        den += float(np.dot(psi, wj * psi))
    return math.sqrt(num / den)
