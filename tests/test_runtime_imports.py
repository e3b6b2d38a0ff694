"""The ``repro`` runtime needs NumPy alone.

scipy and networkx are test-only oracles: with both blocked, a fresh
interpreter imports the CLI, draws every smoke figure and renders the
report, and runs a pooled ``event`` sweep, and neither package is loaded.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

sys.modules["scipy"] = sys.modules["networkx"] = None

import repro.cli  # noqa: F401
from repro.core.suite import render_report, run_suite
from repro.core.sweeps import latency_sweep
from repro.kernels import KERNELS
from repro.workloads import get_scale

render_report(run_suite(scale_name="smoke", engine="batch", jobs=1))
spec = KERNELS["spmv"]
latency_sweep(spec, spec.prepare(get_scale("smoke"), 7), latencies=[0, 64],
              vls=(8, 64), engine="event", jobs=2)
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] in ("scipy", "networkx")
                and mod is not None)
print("loaded:", loaded)
"""


def test_runtime_imports_neither_scipy_nor_networkx():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"
