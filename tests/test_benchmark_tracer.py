"""The benchmark's tracer installs on this checkout's package.

perfbench/tracer.py wraps package functions and methods by name
(chevalley.bracket, chevalley.project_m, PaintedDiagram.isotropy_decomposition
and the others), so removing or renaming one of them breaks the traced
benchmark run.  The tracer is loaded as the benchmark's worker loads it, in
a fresh interpreter, so that its wrappers never reach this test session.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import worker
from tracer import Tracer
worker.import_flagroots()
Tracer().install()
"""


def test_benchmark_tracer_installs():
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(PERFBENCH)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
