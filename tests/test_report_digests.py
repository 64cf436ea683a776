"""SHA-256 digests of a fixed set of reports, so a moved report fails tier-1.

The set is 42 files, every report written as CSV and JSON:

* the five scenarios at the README config: counterexample, theorem1,
  theorem2 and inequality_audit at m 2..64, n 1..256, orders 256/32, and
  zalcman_scan at m 1..5, n 2..128, order 256;
* the audit at orders 258/128;
* the configs of the benchmark's three workloads at seeds 1-3, read from
  ``bench/workloads.py`` (which this test never changes).

Each config names the one relative ``out_dir`` below, because the report's
provenance echoes it; the files themselves go under ``tmp_path``.  A change
that moves a report updates ``DIGESTS`` in the same change and says which
files moved, and why, in CHANGES.md; a failure lists each moved file's new
``"group/file": "<sha256>",`` entry, ready to paste into ``DIGESTS``.

The digests pin the numeric stack they were taken on (STACK): the last
bits of the reports depend on numpy's loops and on the LAPACK behind
``eigvalsh``.
"""

import hashlib
import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

from schlichtlab.lab import ScenarioConfig, export_report, run_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
OUT_DIR = "reports"
STACK = "Python 3.11.7, numpy 2.4.6"
SEEDS = (1, 2, 3)

README = {"m_range": [2, 64], "n_range": [1, 256], "series_order": 256,
          "grunsky_order": 32}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_set() -> dict:
    """Group name -> the scenario config dicts whose reports it writes."""
    groups = {
        "readme": [dict(README, scenario=s) for s in
                   ("counterexample", "theorem1", "theorem2", "inequality_audit")]
                  + [dict(README, scenario="zalcman_scan", m_range=[1, 5], n_range=[2, 128])],
        "audit258": [{"scenario": "inequality_audit", "m_range": [1, 1], "n_range": [1, 1],
                      "series_order": 258, "grunsky_order": 128}],
    }
    workloads = _workloads()
    for name in workloads.NAMES:
        for seed in SEEDS:
            groups[f"{name}-{seed}"] = workloads.scenario_configs(name, seed)
    return groups


DIGESTS = {
    "audit258/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit258/inequality_audit.json": "0af875e837aaab45c2cd51e30654de737ebd71f685b76f9404218d166bc70934",
    "audit_grunsky-1/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-1/inequality_audit.json": "0af875e837aaab45c2cd51e30654de737ebd71f685b76f9404218d166bc70934",
    "audit_grunsky-1/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-1/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "audit_grunsky-2/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-2/inequality_audit.json": "0af875e837aaab45c2cd51e30654de737ebd71f685b76f9404218d166bc70934",
    "audit_grunsky-2/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-2/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "audit_grunsky-3/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-3/inequality_audit.json": "0af875e837aaab45c2cd51e30654de737ebd71f685b76f9404218d166bc70934",
    "audit_grunsky-3/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-3/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "growth_index-1/theorem2.csv": "ac811e38c4ad3f8486bae67f749479d65345379e0bc687991fd5975295e9003d",
    "growth_index-1/theorem2.json": "40aff9b4999010f42c0f976b92b035bad6e437f975f928d20247d203c84bcb03",
    "growth_index-2/theorem2.csv": "924980045476136e87ec9a750a9a77bbc6f2cb75609cccbdd43dea39eec403a8",
    "growth_index-2/theorem2.json": "8e06825f7a14c09ff093c2439ba2bbabe4e2ac1f086b944a698d3c35bc2a4da9",
    "growth_index-3/theorem2.csv": "869390ccf3a3393e02c9699dd3751492c0a8b1f4931be8bb255998704e9c069c",
    "growth_index-3/theorem2.json": "ecd26442c209f2e467654c35449897941926e6e1452e7229a2b2eda31d6a94d4",
    "readme/counterexample.csv": "404e4a459dc2a1f0ea2c86295dcf9466aa4b97df1e5a9ea6d69a70b60b36e853",
    "readme/counterexample.json": "7bae6c5abfa5a35948012beba7a270fdaae00a144ea82723c43a16e52c11755e",
    "readme/inequality_audit.csv": "06e85da7aabadad9ba058b1fdf43b221cce34c9aa8462d03a69d83a09fdfcac6",
    "readme/inequality_audit.json": "d0bd95d9946a21861b33217936af739d714711d1168733ab60f5da117458162a",
    "readme/theorem1.csv": "5243e58b45071e040328ce61f37edfa85fddf9c070c7489df03490a896766ca2",
    "readme/theorem1.json": "326aec60db2c785ee0a99748b1b1e61e5e3f43c672e254aa5a6ad0971e5588be",
    "readme/theorem2.csv": "33f4df1a28d62a491adb1a712759b5ceeb34757bb3b24ba93036744135b1ec6f",
    "readme/theorem2.json": "1d782d9fe64c0885af1e778b17bad24aba3078c48d0369efb0b220fc56d42332",
    "readme/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "readme/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "report_grid-1/counterexample.csv": "91d993cff0c8cbbe3efdbd8c6199a329f16e32b5a9aef6cdc217c7f14537e40e",
    "report_grid-1/counterexample.json": "051bc7cefa98e111fdfcbcfc46c49775c588c354cdf7b63bf95932c9da3cf508",
    "report_grid-1/theorem1.csv": "1bcdd3b1984598d5a2ae7dffeae5bdcfc71933ed466ab9e6cdbca2c7a65e9efe",
    "report_grid-1/theorem1.json": "cdca426e6f2b175b91c66471c9599009cc16425a22466f31aec5fd7798cd9932",
    "report_grid-2/counterexample.csv": "5c74664759d3783f0f3c6588b28c9373562978563a276f3d5a22ca75121bca15",
    "report_grid-2/counterexample.json": "495970c06dc3a407ff54770e6b559ce46ed105af4910cc3e582e83ce7bfeff9a",
    "report_grid-2/theorem1.csv": "ea1e03d121d255c74482a9f3bc8ba7f7e7a72dc9af291905f549fbdf9466eb4c",
    "report_grid-2/theorem1.json": "9d0b0db94b4ce4f6f50b0bce68ea4912b682e97f8e1e5d451977a06abfc13053",
    "report_grid-3/counterexample.csv": "da288ed6c805b9be09ee686ca3455b43fb9e133974ca2861f6add3ad8f702bc3",
    "report_grid-3/counterexample.json": "48cc06b6866341fae4f412cf7231dd38f8b02ce25331b4914de6fc0818bce22a",
    "report_grid-3/theorem1.csv": "d9bef195a07cdcdebaf7e672bcd3425a4dd5eafc47712bb18fb41b9119d9791b",
    "report_grid-3/theorem1.json": "3c3f1bdaffe841fa3ad70bcee06b9c8bf75438b50ad154accd6cd0c1c6daea24",
}


def _stack() -> str:
    return f"Python {platform.python_version()}, numpy {np.__version__}"


@pytest.mark.parametrize("group, configs", sorted(report_set().items()))
def test_reports_match_digests(group, configs, tmp_path):
    out = tmp_path / group
    for data in configs:
        cfg = ScenarioConfig.from_dict(dict(data, out_dir=OUT_DIR))
        export_report(run_scenario(cfg), fmt="both", out_dir=str(out))
    digests = {f"{group}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    expected = {k: v for k, v in DIGESTS.items() if k.startswith(f"{group}/")}
    moved = sorted(k for k in expected.keys() | digests.keys()
                   if expected.get(k) != digests.get(k))
    # each moved file's new entry, ready to paste into DIGESTS
    entries = "".join(f'\n    "{k}": "{digests[k]}",' for k in moved if k in digests)
    assert not moved, (f"reports moved: {moved}; the digests were taken on {STACK}, "
                       f"this run is on {_stack()}; new DIGESTS entries:{entries}")


def test_set_holds_42_files():
    assert sum(2 * len(configs) for configs in report_set().values()) == len(DIGESTS) == 42
