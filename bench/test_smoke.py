"""Smoke test of the benchmark at tiny orders; it does not gate on timings.

    python3 -m pytest bench/test_smoke.py

Each run must print every metric BENCHMARK.json names, with its unit, and a
last line that follows the result format.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


# printed with their units on every --trace 0 run, but not gated
REPORTED = {"pass_s": "s", "compute_s": "s", "export_s": "s", "flags_failed": "count",
            "ops_failed_ratio": "ratio"}


def check_output(proc, spec, reported=None):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in {**want, **(reported or {})}.items():
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed(workload):
    check_output(run_bench(ROOT, workload, 0), SPEC["end_to_end"], REPORTED)


def test_per_layer_metrics_printed():
    # a traced run traces every workload, so one run covers all layers
    check_output(run_bench(ROOT, SPEC["workloads"][0]["name"], 1), SPEC["per_layer"])


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
