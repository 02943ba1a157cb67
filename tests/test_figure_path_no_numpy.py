"""Guard: a figure run's process never imports numpy.

numpy costs ~14 MB of resident memory and ~70 ms of start-up, and no
figure needs it: the one random stream on a figure path (SpMV's coupling
pattern) is the pure-Python :class:`repro.sim.rand.PCG64Stream`.  Only
``Jacobi2D`` uses numpy, and ``repro`` exports it lazily.

The check runs in a fresh interpreter so that whatever this test session
imported cannot hide a regression.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys

    import repro
    from repro.bench.harness import Scale
    from repro.bench.leaderboard import leaderboard_plans
    from repro.exec.runners import execute_spec

    apps = ("stencil", "matmul", "spmv", "stream")
    plans = leaderboard_plans(Scale.TINY, apps=apps)
    assert [plan.figure for plan in plans] == [f"leaderboard/{a}" for a in apps]
    for plan in plans:
        spec = plan.specs[0]
        out = execute_spec({"kind": spec.kind, "params": spec.params})
        assert out["ok"], out["error"]
    assert "numpy" not in sys.modules, "a figure run imported numpy"

    from repro import Jacobi2D

    assert Jacobi2D.__module__ == "repro.apps.jacobi2d"
    print("ok")
""")


def test_figure_runs_import_no_numpy():
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
