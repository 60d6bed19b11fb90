"""Import traffic: only the eigensolve loads scipy, and of scipy.linalg only _flapack.

The flow reads scipy's DOP853 tableau by file path and finds its event
roots with its own port of brentq, so integration, the CLI and the verify
rows outside the eigensolve load no scipy module.  The eigensolve loads
scipy's f2py LAPACK extension, scipy/linalg/_flapack, by file path and
calls dgeev and dstebz in it, so scipy.linalg's package never loads.
Each case runs in a fresh interpreter, since this process has scipy
loaded already (the flow oracle tests import solve_ivp).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koenigs

_SRC = str(Path(koenigs.__file__).resolve().parent.parent)


def _fresh(code):
    """The JSON that `code`, run in a fresh interpreter, prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_modules_after(code):
    """scipy modules in sys.modules after running `code` in a fresh interpreter."""
    return _fresh("import json, sys\n" + code + "\nprint(json.dumps(sorted("
                  "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n")


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import koenigs") == []


def test_closed_forms_load_no_scipy():
    code = """
import numpy as np
import koenigs
from koenigs.cli import main
model = koenigs.make_model("h0", 0.8, 1.1)
koenigs.classify(model, 0.5, 0.5)
koenigs.action_variables(model, 0.5, 0.5)
koenigs.action_quadrature(model, 0.5, 0.5)
koenigs.spectrum(koenigs.make_model("hplus", 0.5, 7.75), 2, 2)
z = koenigs.PhasePoint(np.linspace(0.5, 1.5, 5), np.zeros(5), np.ones(5), np.ones(5))
koenigs.poisson_bracket(lambda p: koenigs.hamiltonian(model, p),
                        lambda p: koenigs.second_integrals(model, p)[0], z, model=model)
main(["classify", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
      "--E", "0.5", "--L", "0.5", "--format", "json"])
"""
    assert _scipy_modules_after(code) == []


_FLOW = "import koenigs\nfrom koenigs import classify, integrate, make_model, start_point\n"
_CLI = "from koenigs.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("code", [
    # a closed orbit, no event
    _FLOW + "m = make_model('h0', 0.8, 1.1)\nintegrate(m, start_point(classify(m, 0.5, 0.5)), 30.0)",
    # zero-energy arcs run into the chart edge: an event root search
    _FLOW + "m = make_model('trig', 0.5, -0.5)\n"
            "try:\n    integrate(m, start_point(classify(m, 0.0, 1.0)), 50.0)\n"
            "except koenigs.BoundaryReached:\n    pass\nelse:\n    raise SystemExit('no edge')",
    _FLOW + "koenigs.closure_test(make_model('hplus', 2.0, 8.0), 1.8, 1.0)",
    _CLI.format(argv=["flow", "--family", "hplus", "--rho", "2.0", "--xi", "8.0", "--E", "1.8", "--L", "1.0"]),
    _CLI.format(argv=["geodesic", "--family", "trig", "--rho", "0.5", "--xi", "0.8", "--E", "1.0", "--L", "1.0"]),
    _CLI.format(argv=["figures", "--out", "{out}"]),
    "from koenigs.verify import run_suite\nassert {r.status for r in run_suite('geodesics')} == {'PASS'}",
    "from koenigs.verify import run_suite\nassert {r.status for r in run_suite('cli')} == {'PASS'}",
], ids=["integrate", "integrate-to-edge", "closure_test", "cli-flow", "cli-geodesic", "cli-figures",
        "suite-geodesics", "suite-cli"])
def test_flow_cli_and_verify_load_no_scipy(tmp_path, code):
    assert _scipy_modules_after(code.replace("{out}", str(tmp_path / "figs"))) == []


def _linalg(loaded):
    return [m for m in loaded if m == "scipy.linalg" or m.startswith("scipy.linalg.")]


def test_full_suite_loads_linalg_only():
    loaded = _scipy_modules_after("from koenigs.verify import run_suite\nrun_suite()")
    assert _linalg(loaded) == ["scipy.linalg._flapack"]
    assert not any(m.startswith(("scipy.integrate", "scipy.optimize")) for m in loaded)


def test_eigensolve_loads_linalg_only():
    loaded = _scipy_modules_after(
        "import koenigs\n"
        "koenigs.shoot_eigenvalue(koenigs.make_model('h0', 0.8, 1.1), 0, 0)\n"
        "koenigs.count_bound_levels(koenigs.make_model('hplus', 0.5, 7.75), 0)")
    assert _linalg(loaded) == ["scipy.linalg._flapack"]
    assert not any(m.startswith(("scipy.integrate", "scipy.optimize")) for m in loaded)


@pytest.mark.parametrize("first", ["loader", "scipy.linalg"])
def test_scipy_linalg_and_the_loader_share_one_extension(first):
    # either import order leaves one _flapack module, which scipy.linalg's
    # LAPACK functions come from, and the same levels
    code = f"""
import json, sys
import koenigs
from koenigs import quantum
model = koenigs.make_model("hplus", 0.5, 7.75)
solve = lambda: [koenigs.shoot_eigenvalue(model, 0, 1), koenigs.count_bound_levels(model, 0)]
levels = solve() if {first!r} == "loader" else None
import scipy.linalg
from scipy.linalg import _flapack
levels = levels or solve()
eig = scipy.linalg.eigh_tridiagonal([2.0, 2.0], [1.0], eigvals_only=True).tolist()
print(json.dumps([quantum._lapack() is _flapack is sys.modules["scipy.linalg._flapack"],
                  scipy.linalg.lapack.dgeev is _flapack.dgeev, repr(levels), eig]))
"""
    model = koenigs.make_model("hplus", 0.5, 7.75)
    levels = [koenigs.shoot_eigenvalue(model, 0, 1), koenigs.count_bound_levels(model, 0)]
    assert _fresh(code) == [True, True, repr(levels), [1.0, 3.0]]


def test_flow_step_code_is_built_once_per_process():
    # the straight-line DOP853 step is generated at the first solve, not at
    # import, and every later solve reuses it
    code = """
import json
from koenigs import classify, flow, make_model, start_point
built = [flow._step_functions.cache_info().misses]
for family, rho, xi, E, L in (("h0", 0.8, 1.1, 0.5, 0.5), ("hplus", 2.0, 8.0, 1.8, 1.0)):
    model = make_model(family, rho, xi)
    flow.integrate(model, start_point(classify(model, E, L)), 1.0, samples=5)
    built.append(flow._step_functions.cache_info().misses)
print(json.dumps(built))
"""
    assert _fresh(code) == [0, 1, 1]
