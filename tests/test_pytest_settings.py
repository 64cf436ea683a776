"""The repository's pytest settings report every failure, property tests included."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SESSION = textwrap.dedent("""
    import pytest
    from hypothesis import given, strategies as st


    {mark}
    @given(st.integers())
    def test_property_fails(x):
        assert x < 0


    def test_plain_passes():
        assert True
""")


@pytest.mark.parametrize("mark", ["", "@pytest.mark.filterwarnings('error')"],
                         ids=["settings", "error_mark"])
def test_failing_property_test_hides_no_later_test(mark, tmp_path):
    # on failure hypothesis's plugin imports libcst, which warns; as an error
    # that warning once became an INTERNALERROR that ended the session
    (tmp_path / "test_session.py").write_text(SESSION.format(mark=mark), encoding="utf-8")
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
