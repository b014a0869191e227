"""Smoke test for the benchmark harness in ``perfbench/``.

Runs ``perfbench/selfcheck.py``, which drives every benchmark workload on a
tiny grid with tracing off and on and checks the shape of each result line.
No timing is asserted.  The tracer wraps program functions by name (among
them ``transport.solve_forward_batch``), so renaming or deleting one of them
fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
