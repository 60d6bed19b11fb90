"""Import traffic: scipy loads at the first call that needs it, not at import.

Each case runs in a fresh interpreter, since this process has scipy loaded
already (the flow oracle tests import solve_ivp).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_eigensolve_loads_linalg_only():
    loaded = _scipy_modules_after(
        "import koenigs\n"
        "koenigs.shoot_eigenvalue(koenigs.make_model('h0', 0.8, 1.1), 0, 0)")
    assert "scipy.linalg" in loaded
    assert not any(m.startswith(("scipy.integrate", "scipy.optimize")) for m in loaded)


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
