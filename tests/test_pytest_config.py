"""The repository's pytest settings report a failing Hypothesis property."""

import pathlib
import re
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes_after():
    pass
'''


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "Falsifying example" in result.stdout
    assert re.search(r"^PASSED test_property\.py::test_passes_after$", result.stdout, re.M)
    assert re.search(r"^FAILED test_property\.py::test_fails ", result.stdout, re.M)
    assert "1 failed, 1 passed" in result.stdout
