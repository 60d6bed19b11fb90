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


def _scipy_modules_after(code):
    """scipy modules in sys.modules after running `code` in a fresh interpreter."""
    probe = ("import json, sys\n" + code + "\nprint(json.dumps(sorted("
             "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


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
