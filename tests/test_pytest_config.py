"""The suite's warning filters leave Hypothesis's failure reports intact.

``pyproject.toml`` turns every warning into an error, so a warning raised
while Hypothesis reports a failure would replace the report with a pytest
INTERNALERROR and hide the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out[-2000:]
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
