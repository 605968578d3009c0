"""No CLI command imports sympy, the closure candidates included, and the
spin-value check imports neither numpy nor the exact engine."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, hashlib, io, json, sys

class BlockSympy:
    def find_spec(self, name, path=None, target=None):
        if name == "sympy" or name.startswith("sympy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockSympy())
from qpskit.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return [" ".join(argv[:3]), rc, "sympy" in sys.modules]

out = sys.argv[1]
steps = [run(["verify", "poincare"]),
         run(["numeric", "casimir", "--npts", "8", "--nstates", "1"]),
         run(["localize", "--npts", "512", "--pmax", "40"]),
         run(["causality", "--npts", "256", "--pmax", "20"]),
         run(["fock", "spectrum", "--sites", "4", "--nmax", "2"])]
for k in (1, 2, 3):
    steps.append(run(["verify", "emrelation", "--h", f"Lam*omega + 3/2*P{k}"]))
    steps.append(run(["verify", "emrelation", "--h", f"Lam*omega + m^2/(P{k}+m)",
                      "--out", f"{out}{k}"]))
with open(f"{out}2", "rb") as fh:
    steps.append(["closure_den", hashlib.sha256(fh.read()).hexdigest(), None])
print(json.dumps(steps))
"""


def test_no_command_imports_sympy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "den")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *steps, digest = json.loads(proc.stdout.splitlines()[-1])
    assert len(steps) == 11
    for name, rc, loaded in steps:
        # the closure candidates fail; every other command passes
        assert rc == (1 if "--h" in name else 0), (name, rc, proc.stderr)
        assert not loaded, f"sympy imported by {name}"
    # P2 + m is outside the seeded registry: the squarefree split ran
    assert digest[1] == GOLDEN["closure_den"][1]


# ``qpskit/__init__`` imports every module, so the package is stood in by a
# bare one over the same directory: ``import qpskit.spin`` then loads only
# what spin.py itself imports.
SPIN_SCRIPT = """
import json, sys, types
package = types.ModuleType("qpskit")
package.__path__ = [sys.argv[1]]
sys.modules["qpskit"] = package
import qpskit.spin
print(json.dumps(sorted({"numpy", "qpskit.coeffs", "qpskit.expr"} & set(sys.modules))))
"""


def test_spin_check_imports_no_numpy_and_no_engine():
    proc = subprocess.run([sys.executable, "-c", SPIN_SCRIPT, str(SRC / "qpskit")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
