"""The package runs on numpy and the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(args, tmp_path):
    """``python args`` against the source tree, in ``tmp_path``, on a small zalcman_scan config."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": "zalcman_scan", "m_range": [1, 5],
                                  "n_range": [2, 8], "series_order": 32,
                                  "out_dir": "rep"}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args, "run", "--config", str(config)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


# a finder ahead of all others that refuses every import outside numpy,
# the package and the standard library, then one `run` through cli.main
ONLY_NUMPY = """
import sys

class OnlyNumpy:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top not in ("numpy", "schlichtlab"):
            raise ImportError(f"{name} is neither numpy nor the standard library")

sys.meta_path.insert(0, OnlyNumpy())
from schlichtlab import cli
cli.main(sys.argv[1:])
"""


def test_cli_runs_with_third_party_imports_refused(tmp_path):
    result = _python(["-c", ONLY_NUMPY], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "wrote " in result.stdout and (tmp_path / "rep" / "zalcman_scan.csv").is_file()


def test_cli_module_runs_as_a_script(tmp_path):
    result = _python(["-m", "schlichtlab.cli"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "wrote " in result.stdout and (tmp_path / "rep" / "zalcman_scan.json").is_file()


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert project["scripts"] == {"schlicht-lab": "schlichtlab.cli:main"}
