"""sympy stays out of the process unless a denominator needs factor_list."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, hashlib, io, json, sys
import qpskit
from qpskit.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return [argv[0], rc, "sympy" in sys.modules]

steps = [["import", 0, "sympy" in sys.modules]]
steps.append(run(["fock", "spectrum", "--sites", "4", "--nmax", "2"]))
steps.append(run(["localize", "--npts", "512", "--pmax", "40"]))
steps.append(run(["causality", "--npts", "256", "--pmax", "20"]))
steps.append(run(["numeric", "casimir", "--npts", "8", "--nstates", "1"]))
out = sys.argv[1]
steps.append(run(["verify", "emrelation", "--h", "Lam*omega + m^2/(P2+m)", "--out", out]))
with open(out, "rb") as fh:
    steps.append(["sha256", hashlib.sha256(fh.read()).hexdigest(), None])
print(json.dumps(steps))
"""


def test_sympy_is_imported_only_for_an_unregistered_denominator(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "den.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    *numeric, closure, digest = steps
    for name, rc, loaded in numeric:
        assert rc in (0, 1), (name, rc, proc.stderr)
        assert not loaded, f"sympy imported by {name}"
    # P2 + m is outside the factor registry: factor_list, and so sympy, runs
    assert closure == ["verify", 1, True]
    assert digest[1] == GOLDEN["closure_den"][1]
