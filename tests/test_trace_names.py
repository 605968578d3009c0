"""The traced benchmark finds every qpskit name it wraps or calls.

``perfbench/tracing.py`` and ``perfbench/micro.py`` look qpskit names up by
attribute (``foldy_generators``, ``commutator``, ``cli.check_table``,
``cli.numeric_lemma_report``, ``GridRep.to_position`` ...), so a refactor
that drops one breaks ``--trace 1`` without failing any other test. The
check runs in a subprocess because ``tracing.install`` imports sympy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, sys
from qpskit.cli import main
import tracing
tracing.install(tracing.Tracer())
import micro  # noqa: F401
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(main(["verify", "pl"]))
"""


def test_traced_benchmark_finds_its_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
