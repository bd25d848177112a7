"""The benchmark harness in ``perfbench/`` still runs against the package.

``perfbench/spans.py`` wraps selbounds functions by name, so a renamed or
deleted function makes the traced run fail; ``--smoke`` runs every
workload at tiny sizes, traced and untraced, and checks its output.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
