"""The repository's pytest settings, run on a module of their own: a
failing Hypothesis property is reported with its falsifying example, and
the session goes on to the next test."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_after_the_property():
    pass
'''


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_inner.py").write_text(MODULE)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTEST_ADDOPTS")}
    out = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                          "test_inner.py"], cwd=tmp_path, capture_output=True, text=True,
                         env=env, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout
    assert "Falsifying example" in out.stdout
    assert "1 failed, 1 passed" in out.stdout, out.stdout
