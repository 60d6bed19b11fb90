"""The verification registry, one pytest line per row.

`run_suite("all")` runs once per module; each row must PASS, except the
third turning-point anchor, which must stay an expected failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from koenigs import quantum, verify
from koenigs.models import make_model
from koenigs.verify import CHECKS, run_suite

ANCHOR = "acceptance.fig1_third_anchor"
NAMES = [name for name, _, _ in CHECKS]


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_suite("all")}


def test_registry_names_pinned():
    assert NAMES == [
        "models.hamiltonian_from_metric",
        "models.curvature_closed_vs_brioschi",
        "models.embed_hyperboloid",
        "models.generator_algebra",
        "models.hminus_curvature_blowup",
        "invariants.conservation_brackets",
        "invariants.algebra_identities",
        "invariants.trig_eigen_structure",
        "geodesics.turnings_vs_bisection",
        "geodesics.flow_curve_residual",
        "geodesics.eccentricity_windows",
        "geodesics.trig_reflection_symmetry",
        "geodesics.affine_integral_conservation",
        "flow.drift_scales_with_tol",
        "flow.regime_drift",
        "flow.time_reversal",
        "flow.curve_residual_two_sided",
        "flow.turning_reflection",
        "actions.degenerate_frequency",
        "actions.quadrature_vs_closed",
        "actions.energy_roundtrip",
        "actions.circular_limit_linear",
        "quantum.spectrum_vs_shooting",
        "quantum.degeneracy_via_j_tilde",
        "quantum.hplus_count_law",
        "quantum.ebk_vs_eigensolve",
        "quantum.norms_finite",
        "specfun.off_diagonal_vanish",
        "specfun.conjugation_symmetry",
        "specfun.generating_function",
        "specfun.pointwise_resummation",
        "cli.deterministic_output",
        ANCHOR,
    ]


@pytest.mark.parametrize("name", NAMES)
def test_registry_row(results, name):
    result = results[name]
    assert result.status == ("XFAIL" if name == ANCHOR else "PASS"), result.detail


def test_full_suite_has_no_failures(results):
    assert list(results) == NAMES
    assert [r for r in results.values() if r.status == "FAIL"] == []
    assert [name for name, r in results.items() if r.status == "XFAIL"] == [ANCHOR]


def test_tol_cannot_loosen_a_gate(results):
    loose = {r.name: r for r in run_suite(tol=1.0)}
    for name, _, gate in CHECKS:
        assert loose[name].gate == gate, name
        assert (loose[name].status, loose[name].value) == (results[name].status, results[name].value)


def test_tol_below_value_fails_the_row(results):
    tol = 1e-300
    tight = {r.name: r for r in run_suite(tol=tol)}
    for name, _, gate in CHECKS:
        if gate is None:
            continue
        assert tight[name].gate == tol, name
        if results[name].value > tol:
            assert tight[name].status == ("XFAIL" if name == ANCHOR else "FAIL"), name
        else:
            assert tight[name].status == "PASS", name


@pytest.mark.parametrize("name", ["specfun.conjugation_symmetry", ANCHOR])
def test_raising_check_is_reported_as_fail(monkeypatch, name):
    def broken(rng):
        raise ZeroDivisionError("injected")

    rows = tuple((n, broken if n == name else check, gate) for n, check, gate in CHECKS)
    monkeypatch.setattr(verify, "CHECKS", rows)
    result = {r.name: r for r in run_suite(name.split(".")[0])}[name]
    assert result.status == "FAIL"
    assert result.detail.startswith("ZeroDivisionError")
    assert result.value is None


def test_degenerate_frequency_reads_the_quadrature(monkeypatch):
    # the row compares I_radial + L by quadrature at two L, so an action
    # that drifts with L shows in it; the closed-form J(E) takes no L
    check = {name: check for name, check, _ in CHECKS}["actions.degenerate_frequency"]
    assert check(None) < 1e-13
    quad = verify.actions_mod.action_quadrature
    monkeypatch.setattr(verify.actions_mod, "action_quadrature",
                        lambda model, E, L: quad(model, E, L) * (1.0 + 1e-8 * L))
    assert check(None) > 1e-10


def _row(name):
    return {n: check for n, check, _ in CHECKS}[name]


def test_curvature_row_catches_a_1e9_relative_error(monkeypatch):
    closed = verify.scalar_curvature
    monkeypatch.setattr(verify, "scalar_curvature", lambda model, q1: closed(model, q1) * (1.0 + 1e-9))
    result = {r.name: r for r in run_suite("models")}["models.curvature_closed_vs_brioschi"]
    assert result.status == "FAIL", result.detail


def test_tangent_turning_points_located_by_the_complex_step(monkeypatch):
    # both are double roots of p1^2, located by bisecting its derivative
    tangent = tuple(case for case in verify.REGIME_CASES if case[5] in ("e0_wall", "epos_sep"))
    assert len(tangent) == 2
    monkeypatch.setattr(verify, "REGIME_CASES", tangent)
    assert _row("geodesics.turnings_vs_bisection")(None) <= 1e-14


def test_ebk_row_reads_the_quadrature(monkeypatch):
    check = _row("quantum.ebk_vs_eigensolve")
    assert check(None) < 1e-12
    quad = verify.actions_mod.action_quadrature
    monkeypatch.setattr(verify.actions_mod, "action_quadrature",
                        lambda model, E, L: quad(model, E, L) * (1.0 + 1e-9))
    assert check(None) > 1e-11


def test_quantum_rows_do_not_read_the_level_cache(monkeypatch):
    # a (model, m) cached from a higher-k solve holds levels about 1e-13 off
    # a fresh lower-k solve; the rows solve afresh, so they read the same
    # after such a warm-up as in a fresh process
    code = ("import json\nfrom koenigs.verify import run_suite\n"
            "print(json.dumps([r.value for r in run_suite('quantum')]))")
    src = str(Path(verify.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    fresh = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env)
    monkeypatch.setattr(quantum, "_LEVELS", {})
    model = make_model("h0", 0.339, 37.36)
    for m in range(4):
        quantum.shoot_eigenvalue(model, m, 5)
    assert [r.value for r in run_suite("quantum")] == json.loads(fresh.stdout)
