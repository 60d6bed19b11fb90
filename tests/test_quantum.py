import math

import numpy as np
import pytest
import scipy.linalg

from koenigs import quantum
from koenigs.errors import ConvergenceFailure, DomainError, NoBoundState
from koenigs.models import COMPLEX_STEP, make_model
from koenigs.quantum import (
    count_bound_levels,
    eigenfunction,
    schrodinger_residual,
    shoot_eigenvalue,
    spectrum,
)


def _j_tilde(n, m):
    return 2 * n + abs(m) + 1


def test_h0_closed_form_levels():
    model = make_model("h0", 0.8, 1.1)
    for lv in spectrum(model, 2, 2):
        jt = _j_tilde(lv.n, lv.m)
        expected = jt * (math.sqrt(1.1 + 0.64 * jt**2) - 0.8 * jt)
        assert lv.J_tilde == jt
        assert lv.E == pytest.approx(expected, rel=1e-14)


def test_h0_spectrum_infinite_in_n():
    model = make_model("h0", 0.8, 1.1)
    assert len(spectrum(model, 6, 0)) == 7  # no window cap for this family


def test_hplus_window_caps_levels():
    model = make_model("hplus", 2.0, 3.75)
    levels = spectrum(model, 3, 3)
    assert len(levels) == 1
    only = levels[0]
    assert (only.n, only.m) == (0, 0)
    assert only.E == pytest.approx(math.sqrt(6.0) - 1.5, abs=1e-12)


def test_energies_degenerate_in_j_tilde():
    model = make_model("hplus", 2.0, 31.75)
    by_j = {}
    for lv in spectrum(model, 3, 3):
        by_j.setdefault(lv.J_tilde, []).append(lv.E)
    assert any(len(v) >= 3 for v in by_j.values())
    for energies in by_j.values():
        assert max(energies) - min(energies) < 1e-13


def test_spectrum_sorted_and_sign_symmetric():
    model = make_model("h0", 0.5, 3.0)
    levels = spectrum(model, 2, 2)
    energies = [lv.E for lv in levels]
    assert energies == sorted(energies)
    pairs = {(lv.n, lv.m) for lv in levels}
    assert (0, 1) in pairs and (0, -1) in pairs


def test_nonpositive_coupling_rejected():
    model = make_model("h0", 0.8, -1.0)
    with pytest.raises(DomainError):
        spectrum(model, 1, 1)


def test_shooting_matches_formula_spot():
    model = make_model("h0", 2.0, 3.0)
    levels = {(lv.n, lv.m): lv.E for lv in spectrum(model, 1, 1)}
    assert shoot_eigenvalue(model, 0, 1) == pytest.approx(levels[(1, 0)], abs=1e-8)
    assert shoot_eigenvalue(model, 1, 0) == pytest.approx(levels[(0, 1)], abs=1e-8)


def test_shooting_matches_formula_hplus_spot():
    # (n=1, m=0) has J_tilde = 3, inside the window sqrt(xi_tilde/rho) = 4;
    # (n=1, m=1) would sit exactly on the continuum edge and is excluded
    model = make_model("hplus", 0.5, 7.75)
    levels = {(lv.n, lv.m): lv.E for lv in spectrum(model, 1, 1)}
    assert (1, 1) not in levels
    assert shoot_eigenvalue(model, 0, 1) == pytest.approx(levels[(1, 0)], abs=1e-8)
    assert shoot_eigenvalue(model, 1, 0) == pytest.approx(levels[(0, 1)], abs=1e-8)


def test_shooting_matches_formula_high_energy():
    # n = 4, m = 0 at E about 34: the h^4 term of a two-grid extrapolation
    # on h = 0.004, 0.002 left 1.12e-8 here; on the deep hplus well, E about
    # 57, the h^6 term of three grids (0.02, 0.01, 0.005) left 1.079e-8
    for fam, rho, xi in (("h0", 0.339, 37.36), ("hplus", 0.3094485822364786, 38.66447800450867)):
        model = make_model(fam, rho, xi)
        level = [lv for lv in spectrum(model, 4, 0) if lv.n == 4][0]
        assert shoot_eigenvalue(model, 0, 4) == pytest.approx(level.E, abs=1e-8), fam


def _closed_levels(model, m):
    """Closed-form radial energies of one m, lowest first."""
    return np.array(sorted(lv.E for lv in spectrum(model, 40, m) if lv.m == m))


def _full_line_levels(model, m, L, N):
    """Eigenvalues of parity (-1)^m of the unfolded collocation on the whole line.

    The same operator as `quantum._collocation`, with p, V and w extended as
    odd functions and no folding: the parity of each eigenvector sorts it.
    """
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    D = (D - np.diag(D.sum(axis=1)))[1:N, 1:N]
    x = x[1:N]
    q = 1.0 - x * x
    r = L * x / np.sqrt(q)
    p, V, w = quantum._flux_coefficients(model, m, np.abs(r) + 1j * COMPLEX_STEP)
    dp = p.imag / COMPLEX_STEP
    p, V, w = np.sign(r) * p.real, np.sign(r) * V.real, np.sign(r) * w.real
    step = (q * np.sqrt(q) / L)[:, None] * D + np.diag(0.5 * (1.0 / r - dp / p))
    A = -(p / w)[:, None] * (step @ step) - (dp / w)[:, None] * step + np.diag(V / w)
    E, vec = np.linalg.eig(A)
    parity = (-1) ** m
    same = np.linalg.norm(vec[::-1] - parity * vec, axis=0)
    return np.sort_complex(E[same < np.linalg.norm(vec[::-1] + parity * vec, axis=0)])


@pytest.mark.parametrize("family, rho, xi, m", [
    ("h0", 0.8, 1.1, 0), ("h0", 0.8, 1.1, 1), ("h0", 0.8, 1.1, 2),
    ("hplus", 0.5, 7.75, 0), ("hplus", 0.5, 7.75, 1),
])
def test_folded_solve_is_the_full_line_solve_of_one_parity(family, rho, xi, m):
    # folding by parity halves the matrix and keeps every eigenvalue of the
    # unfolded one whose eigenvector has the parity (-1)^m
    model = make_model(family, rho, xi)
    L, N = 3.0, 81
    folded = np.sort_complex(quantum._collocation(model, m, L, N))[:6]
    full = _full_line_levels(model, m, L, N)
    assert len(full) == (N - 1) // 2
    assert np.max(np.abs(full[:6] - folded) / np.abs(folded)) < 1e-10


def test_error_falls_geometrically_along_the_size():
    # every 20 more points gain at least 1.5 digits on the five m = 0 levels
    # of a deep h0 well, down to round-off by N = 121
    model = make_model("h0", 0.339, 37.36)
    exact = _closed_levels(model, 0)[:5]
    L = quantum._decay_length(model, exact[-1], 1.0 / 18.0)
    errors = []
    for N in (21, 41, 61, 81, 121):
        found = np.sort(quantum._collocation(model, 0, L, N).real)[:5]
        errors.append(np.max(np.abs(found - exact)))
    assert all(fine < coarse / 30.0 for coarse, fine in zip(errors[:4], errors[1:4]))
    assert errors[3] < 1e-8 and errors[4] < 1e-12


def test_index_check_refuses_a_dropped_level(monkeypatch):
    # with level 1 missing from every collocation spectrum, the level nearest
    # its search level is a neighbour, half a gap or more away
    model = make_model("h0", 1.0, 8.0)
    missing = _closed_levels(model, 0)[1]
    eigvals = scipy.linalg.eigvals

    def dropping(a, **options):
        found = eigvals(a, **options)
        return np.delete(found, np.argmin(np.abs(found - missing)))

    monkeypatch.setattr(scipy.linalg, "eigvals", dropping)
    refused = (r"collocation level 1 is [0-9.e+-]+ from search level 1, [0-9.]+; "
               r"its index needs less than [0-9.e+-]+")
    with pytest.raises(ConvergenceFailure, match=refused):
        quantum._solve_levels(model, 0, 3)


def test_unsettled_ladder_names_the_sizes_and_their_disagreement(monkeypatch):
    monkeypatch.setattr(quantum, "_LADDER", (11, 15))
    unsettled = (r"level k=3, m=0: collocation N 11 and 15 disagree by [0-9.e+-]+ relative "
                 r"\(tolerance 1e-11\)")
    with pytest.raises(ConvergenceFailure, match=unsettled):
        quantum._solve_levels(make_model("h0", 1.0, 8.0), 0, 3)


def _spectrum_gate():
    from koenigs.verify import CHECKS

    return next(gate for name, _, gate in CHECKS if name == "quantum.spectrum_vs_shooting")


@pytest.mark.parametrize("rho, xi", [
    # drawn at seed 7: read 5.8e-9 (n 3, m 1) on the four-grid Richardson
    # eigensolve
    (0.3036857131959023, 36.424568367655326),
    # drawn at seed 14: its m = 1 and 3 top levels lie between xi/(2 rho)
    # and the edge, where a second solution decays too; without the
    # e^(-chi/2) factor of the collocation's u they do not settle
    (0.7489222365517152, 30.967264176266276),
])
def test_seeded_hplus_wells_within_the_spectrum_gate(rho, xi):
    # every level the spectrum row keeps, xi + 1/4 - 2 rho E >= 0.2
    model = make_model("hplus", rho, xi)
    gate = _spectrum_gate()
    for lv in sorted(spectrum(model, 4, 4), key=lambda lv: -lv.n):
        if lv.m >= 0 and quantum._xi_eff(model) - 2.0 * model.rho * lv.E >= 0.2:
            assert abs(shoot_eigenvalue(model, lv.m, lv.n) - lv.E) < gate, (lv.n, lv.m)


@pytest.mark.parametrize("rho, xi, ms", [
    (0.3094485822364786, 38.66447800450867, (2, 4)),  # top levels 0.044 below the edge
    (0.366, 28.66, range(8)),  # N = 121 alone left its top level 6.7e-10 off
])
def test_near_edge_levels_are_right_or_refused(rho, xi, ms):
    # each level is within the spectrum gate of the closed form or raises
    # ConvergenceFailure; only a level near the edge may raise, and every
    # level below it is still returned
    model = make_model("hplus", rho, xi)
    gate = _spectrum_gate()
    for m in ms:
        exact = _closed_levels(model, m)
        for n in range(len(exact) - 1, -1, -1):
            try:
                assert abs(shoot_eigenvalue(model, m, n) - exact[n]) < gate, (m, n)
            except ConvergenceFailure:
                assert quantum._xi_eff(model) - 2.0 * rho * exact[n] < 0.1, (m, n)


@pytest.mark.parametrize("rho, xi, m", [(1.387, 37.148, 0), (0.309, 38.66, 6)])
def test_near_edge_top_level_settles_at_n_401(rho, xi, m):
    # level k = 2 is the top one, xi + 1/4 - 2 rho E below 0.065: N 181 and
    # 271 disagree by 2.4e-10 and 5.2e-10 relative, N 271 and 401 settle
    model = make_model("hplus", rho, xi)
    exact = _closed_levels(model, m)
    assert len(exact) == 3
    assert abs(shoot_eigenvalue(model, m, 2) - exact[2]) < 4e-11


def test_count_bound_levels_matches_window():
    model = make_model("hplus", 0.5, 7.75)
    j_max = math.sqrt(8.0 / 0.5)  # = 4
    for m in range(0, 4):
        predicted = sum(1 for n in range(32) if 2 * n + m + 1 < j_max)
        assert count_bound_levels(model, m) == predicted


# next to an integer J_max the top level sits a few 1e-5 below the probe and
# its density decays far beyond chi = 200: a Dirichlet end there still misses
# it, the decaying end on chi = 10 keeps it, as the closed form does
_NEAR_EDGE = ((0.5, 4.26, 0), (0.5, 4.263, 0), (0.5, 4.2659, 0))


def _closed_count(rho, xi, m):
    j_max = math.sqrt((xi + 0.25) / rho)
    return sum(1 for n in range(64) if 2 * n + m + 1 < j_max)


def _count_cases():
    # seeded wells on both sides of rho = 1, m up to the window J_max; at
    # xi = 4.2661 the grid's n = 1 level sits 4.4e-7 below the probe, at
    # xi = 4.2659 it sits 5.9e-7 above
    rng = np.random.default_rng(7)
    cases = [(0.5, 4.2661, 0), (0.5, 4.2659, 0), (0.5, 4.26, 0), (0.5, 4.263, 0)]
    for i in range(10):
        rho = rng.uniform(0.3, 1.0) if i % 2 else rng.uniform(1.0, 3.0)
        xi = rng.uniform(0.3, 60.0)
        j_max = math.sqrt((xi + 0.25) / rho)
        cases.append((rho, xi, int(rng.integers(0, math.floor(j_max) + 1))))
    return cases


@pytest.mark.parametrize("rho, xi, m", _count_cases())
def test_count_bound_levels_equals_refined_count(rho, xi, m):
    # the count against every level below the probe bisected to full
    # precision with the Dirichlet end on the longest domain
    model = make_model("hplus", rho, xi)
    probe = quantum._edge(model) * (1.0 - 1e-6)
    refined = quantum._eigenvalues(
        model, m, quantum._X_MAX, quantum._H_COUNT, select="v", select_range=(0.0, probe)
    )
    if (rho, xi, m) in _NEAR_EDGE:
        assert len(refined) == 1
        assert count_bound_levels(model, m) == _closed_count(rho, xi, m) == 2
    else:
        assert count_bound_levels(model, m) == len(refined)


def _sweep_cases(size):
    rng = np.random.default_rng(14)
    cases = []
    while len(cases) < size:
        rho = float(rng.uniform(0.3, 3.0))
        if abs(rho - 1.0) < 0.05:
            continue
        xi = float(rng.uniform(0.5, 40.0))
        j_max = math.sqrt((xi + 0.25) / rho)
        cases.append((rho, xi, int(rng.integers(0, math.floor(j_max) + 1))))
    return cases


def test_count_bound_levels_seeded_sweep():
    # on the count's grid each shorter domain's matrix is a leading block of
    # the longest one, so by Cauchy interlacing the Dirichlet count can only
    # grow with the domain; the count on chi = 10 with the decaying end
    # reaches the longest domain's, which the cases above check against
    # full bisection
    from scipy.linalg import eigh_tridiagonal

    h = quantum._H_COUNT
    for rho, xi, m in _sweep_cases(100):
        model = make_model("hplus", rho, xi)
        probe = quantum._edge(model) * (1.0 - 1e-6)
        diag, off, _ = quantum._flux_matrix(model, m, quantum._X_MAX, h)
        counts = []
        for x_max in (10.0, 20.0, 40.0, 80.0, 160.0, quantum._X_MAX):
            cells = round(x_max / h)
            counts.append(len(eigh_tridiagonal(
                diag[:cells], off[:cells - 1], eigvals_only=True, select="v",
                select_range=(0.0, probe), tol=probe,
            )))
        assert counts == sorted(counts), (rho, xi, m, counts)
        assert count_bound_levels(model, m) == counts[-1], (rho, xi, m)


def test_count_lies_between_dirichlet_and_robin_counts():
    # the decaying end's ghost ratio r lies in [0, 1 - h/2], so the count
    # lies between the Dirichlet (r = 0) and Robin (r = 1 - h/2) counts on
    # the same chi = 10 matrix, here bisected in full; at xi = 1e-4 r is
    # capped at 1 - h/2
    from scipy.linalg import eigh_tridiagonal

    h = quantum._H_COUNT
    for rho, xi, m in _sweep_cases(20) + list(_NEAR_EDGE) + [(0.05, 1e-4, 0)]:
        model = make_model("hplus", rho, xi)
        probe = quantum._edge(model) * (1.0 - 1e-6)
        diag, off, face = quantum._flux_matrix(model, m, quantum._X_START, h)
        dirichlet = len(eigh_tridiagonal(
            diag, off, eigvals_only=True, select="v", select_range=(0.0, probe)
        ))
        diag[-1] -= face * (1.0 - 0.5 * h)
        robin = len(eigh_tridiagonal(
            diag, off, eigvals_only=True, select="v", select_range=(0.0, probe)
        ))
        assert dirichlet <= count_bound_levels(model, m) <= robin, (rho, xi, m)


@pytest.mark.xfail(strict=True, reason="a level inside the probe's 1e-6 margin is not counted")
def test_count_misses_a_level_inside_the_probe_margin():
    # the closed-form top levels sit 3.1e-7 and 4.2e-7 of the edge below it,
    # above the probe; each count reads one level short
    for rho, xi, m in ((0.7004261748359966, 34.102807014953804, 4),
                       (2.6025974437468204, 10.18223848218375, 1)):
        assert count_bound_levels(make_model("hplus", rho, xi), m) == _closed_count(rho, xi, m)


def test_non_integral_quantum_numbers_rejected():
    model = make_model("hplus", 0.5, 7.75)
    for call in (
        lambda: count_bound_levels(model, 1.5),
        lambda: shoot_eigenvalue(model, 0.9, 0),
        lambda: shoot_eigenvalue(model, 0, 0.5),
        lambda: shoot_eigenvalue(model, "1", 0),
    ):
        with pytest.raises(DomainError, match="need an integer"):
            call()
    assert count_bound_levels(model, 1.0) == count_bound_levels(model, np.int64(-1)) == 1


def test_non_integral_spectrum_bounds_rejected():
    # 1.5 used to be truncated to 1 without a word
    model = make_model("h0", 0.8, 1.1)
    for n_max, m_max in ((1.5, 0), (1, 0.5), ("1", 0)):
        with pytest.raises(DomainError, match="need an integer"):
            spectrum(model, n_max, m_max)
    assert spectrum(model, 1.0, np.int64(0)) == spectrum(model, 1, 0)
    assert len(spectrum(model, 1, 0)) == 2


def test_level_solve_counts_the_well_once(monkeypatch):
    # the search grows the domain pass after pass with the k-th level above
    # the edge; the count, on its fixed domain, is taken on the first
    calls = []
    count = quantum.count_bound_levels

    def counted(*args):
        calls.append(args)
        return count(*args)
    monkeypatch.setattr(quantum, "count_bound_levels", counted)
    with pytest.raises(ConvergenceFailure, match="not settled on the longest domain 200.032"):
        shoot_eigenvalue(make_model("hplus", 0.5, 4.26), 0, 1)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NoBoundState):
        shoot_eigenvalue(make_model("hplus", 2.0, 3.75), 0, 1)
    assert len(calls) == 1


def test_count_bound_levels_h0_rejected():
    model = make_model("h0", 0.8, 1.1)
    with pytest.raises(DomainError):
        count_bound_levels(model, 0)


def test_no_bound_state_beyond_window():
    model = make_model("hplus", 2.0, 3.75)
    with pytest.raises(NoBoundState):
        shoot_eigenvalue(model, 0, 1)  # J_tilde = 3 exceeds sqrt(2)
    with pytest.raises(NoBoundState):
        shoot_eigenvalue(model, 0, 10**6)  # more levels than any grid has cells


@pytest.mark.parametrize("xi", [4.26, 4.2659])
def test_unsettled_count_is_no_verdict_on_the_level(xi):
    # the closed form has this level, E 4.50999 against an edge of 4.51, and
    # the count keeps it, but no domain up to chi = 200 holds its density:
    # the solve raises rather than return it or rule it out
    model = make_model("hplus", 0.5, xi)
    with pytest.raises(ConvergenceFailure, match="not settled on the longest domain 200.032"):
        shoot_eigenvalue(model, 0, 1)


def test_near_edge_level_needs_the_extrapolated_decay_length():
    # E 60.6486 sits 2.7e-4 below the edge: the 0.056 grid's top level,
    # about 0.016 lower, decays within chi = 179, the extrapolated one needs
    # about 1353.  A domain sized from the 0.056 level gives E 6.48e-6 off
    # with no error; sized from the extrapolated one it grows to chi = 200
    # and raises
    model = make_model("hplus", 0.3316925119726592, 39.98352230130143)
    with pytest.raises(ConvergenceFailure, match="not settled on the longest domain 200.032"):
        shoot_eigenvalue(model, 0, 5)


def test_eigenfunction_nodes_and_angular_factor():
    model = make_model("h0", 0.8, 1.1)
    lv = [l for l in spectrum(model, 2, 1) if (l.n, l.m) == (2, 1)][0]
    # nodes for this level sit near r = 3.34 and 6.46
    r = np.linspace(0.05, 10.0, 2000)
    vals = np.array([eigenfunction(model, lv, (ri, 0.0)) for ri in r])
    radial = vals.real
    sign_changes = np.sum(radial[:-1] * radial[1:] < 0)
    assert sign_changes == 2
    # angular factor is a pure phase e^{i m phi}
    v0 = eigenfunction(model, lv, (1.0, 0.0))
    v1 = eigenfunction(model, lv, (1.0, 0.7))
    assert abs(v1 / v0 - np.exp(1j * 0.7)) < 1e-12


def test_hplus_eigenfunction_underflows_far_out():
    # sech(chi)^(1/2 + sqrt(delta)) underflows to 0 far out; cosh(chi)
    # itself overflows past chi = 710, which pytest turns into an error
    model = make_model("hplus", 2.0, 31.75)
    for lv in spectrum(model, 1, 2):
        assert eigenfunction(model, lv, (800.0, 0.3)) == 0.0


def _hand_flux_coefficients(model, m, x):
    # reference: the h0 and hplus radial operators derived by hand, times
    # twice the measure W r (h0) or W sinh(chi) / cosh(chi)^2 (hplus)
    if model.family == "h0":
        return x, m**2 / x + model.xi * x**3, 2.0 * x * (1.0 + model.rho * x**2)
    s = np.sinh(x)
    c2 = 1.0 + s * s
    return s, m**2 / s + model.xi * s**3 / c2, 2.0 * (1.0 + model.rho * s * s) * s / c2


@pytest.mark.parametrize("family, rho, xi, x_max", [
    ("h0", 0.8, 1.1, 60.0), ("h0", 2.0, 3.0, 60.0),
    ("hplus", 0.5, 7.75, quantum._X_MAX), ("hplus", 2.0, 31.75, quantum._X_MAX),
])
def test_flux_coefficients_match_hand_formulas(family, rho, xi, x_max):
    # the Carter operator read from the kernel is the hand-derived radial
    # operator on every face and centre of a 0.002 grid, finer than the
    # eigensolve's finest
    model = make_model(family, rho, xi)
    h = 0.002
    x = 0.5 * h * np.arange(1, 2 * round(x_max / h) + 1)
    for m in (0, 1, 5):
        got = quantum._flux_coefficients(model, m, x)
        for g, ref in zip(got, _hand_flux_coefficients(model, m, x)):
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(ref))
            assert np.max(np.abs(g - ref) / np.abs(ref)) < 1e-13


def test_collocation_coefficients_are_their_limits_at_the_clip():
    # the collocation reads hplus at chi <= 300 through a complex step: there
    # p/w and p'/w equal 1/(2 rho) and V/w equals xi/(2 rho), all finite
    model = make_model("hplus", 0.3, 40.0)
    p, V, w = quantum._flux_coefficients(model, 2, np.array([quantum._R_CLIP]) + 1j * COMPLEX_STEP)
    dp = p.imag / COMPLEX_STEP
    p, V, w = p.real, V.real, w.real
    for got, limit in ((p / w, 1.0 / 0.6), (dp / w, 1.0 / 0.6), (V / w, 40.0 / 0.6)):
        assert got[0] == pytest.approx(limit, rel=1e-14)


@pytest.mark.parametrize("family", ["h0", "hplus"])
def test_face_flux_is_the_coefficients_p(family):
    # the faces' p and the centres' p are one formula, bit for bit
    model = make_model(family, 0.7, 3.0)
    x = np.linspace(1e-3, 30.0, 3001)
    for m in (0, 2):
        assert np.array_equal(quantum._flux_p(model, x), quantum._flux_coefficients(model, m, x)[0])


@pytest.mark.parametrize("family, rho, xi, n, m", [("h0", 0.8, 1.1, 1, 1), ("hplus", 0.5, 7.75, 1, 0)])
def test_flux_coefficients_annihilate_closed_form_wave(family, rho, xi, n, m):
    # -(p y')' + V y - E w y on the closed-form radial wave, by central differences
    model = make_model(family, rho, xi)
    lv = [l for l in spectrum(model, n, m) if (l.n, l.m) == (n, m)][0]
    x = np.linspace(0.2, 4.0, 200)
    h = 1e-4

    def flux(u):
        return quantum._flux_coefficients(model, m, u)[0] * (
            quantum._radial_wave(model, lv, u + h / 2) - quantum._radial_wave(model, lv, u - h / 2)
        ) / h

    _, V, w = quantum._flux_coefficients(model, m, x)
    y = quantum._radial_wave(model, lv, x)
    div = (flux(x + h / 2) - flux(x - h / 2)) / h
    res = -div + (V - lv.E * w) * y
    scale = np.abs(div) + np.abs(V * y) + np.abs(lv.E * w * y)
    assert np.max(np.abs(res)) < 1e-5 * np.max(scale)


def test_level_cache_bounded_and_reused(monkeypatch):
    solves = []
    real = quantum._solve_levels

    def counting(model, m, k):
        solves.append((model, m, k))
        return real(model, m, k)

    monkeypatch.setattr(quantum, "_solve_levels", counting)
    monkeypatch.setattr(quantum, "_LEVELS", {})
    model = make_model("hplus", 2.0, 31.75)
    high = shoot_eigenvalue(model, 0, 1)
    low = shoot_eigenvalue(model, 0, 0)
    assert shoot_eigenvalue(model, 0, 1) == high and low < high
    assert len(solves) == 1
    for i in range(quantum._LEVEL_CACHE_CAP + 5):
        shoot_eigenvalue(make_model("hplus", 2.0, 31.75 + 0.01 * (i + 1)), 1, 0)
        assert len(quantum._LEVELS) <= quantum._LEVEL_CACHE_CAP
    assert (model, 0) not in quantum._LEVELS  # the oldest entry went first


@pytest.mark.parametrize("family, rho, xi, n, m", [
    ("h0", 0.8, 1.1, 1, 1), ("h0", 1.0, 2.5, 3, 0), ("hplus", 2.0, 29.4, 1, 0), ("hplus", 0.5, 7.75, 0, 2),
])
def test_residual_stretches_match_one_pass(monkeypatch, family, rho, xi, n, m):
    # h0 (1, 2.5) at n 3 spans about 21 000 grid points, six stretches
    model = make_model(family, rho, xi)
    lv = [l for l in spectrum(model, n, m) if (l.n, l.m) == (n, m)][0]
    stretched = schrodinger_residual(model, lv)
    monkeypatch.setattr(quantum, "_BLOCK", 10**6)
    assert stretched == pytest.approx(schrodinger_residual(model, lv), rel=1e-12)


def test_residual_converges_quadratically():
    model = make_model("h0", 0.8, 1.1)
    lv = [l for l in spectrum(model, 1, 1) if (l.n, l.m) == (1, 1)][0]
    r1 = schrodinger_residual(model, lv, h=1e-3)
    r2 = schrodinger_residual(model, lv, h=5e-4)
    assert r1 < 1e-5
    assert r1 / r2 > 2.5
