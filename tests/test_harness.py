"""The Tier-1 run itself: a failing hypothesis test is reported as a
failure, and the tests after it still run.

Under ``filterwarnings = ["error"]`` a warning raised inside hypothesis's
report hook (``mypy_extensions.TypedDict is deprecated``) ends the whole
run with ``INTERNALERROR`` and exit code 3, unless ``pyproject.toml``
ignores it.  A child pytest runs a tiny file under this checkout's
``pyproject.toml``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_a_failing_hypothesis_test_fails_and_the_run_goes_on(tmp_path):
    path = tmp_path / "test_tiny.py"
    path.write_text(TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
