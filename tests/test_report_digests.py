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
    "audit258/inequality_audit.json": "0c520505ff73825623dcf49c9dc69a4b3b0296901e19d7d27177cfba6babfeaf",
    "audit_grunsky-1/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-1/inequality_audit.json": "0c520505ff73825623dcf49c9dc69a4b3b0296901e19d7d27177cfba6babfeaf",
    "audit_grunsky-1/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-1/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "audit_grunsky-2/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-2/inequality_audit.json": "0c520505ff73825623dcf49c9dc69a4b3b0296901e19d7d27177cfba6babfeaf",
    "audit_grunsky-2/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-2/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "audit_grunsky-3/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-3/inequality_audit.json": "0c520505ff73825623dcf49c9dc69a4b3b0296901e19d7d27177cfba6babfeaf",
    "audit_grunsky-3/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-3/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "growth_index-1/theorem2.csv": "ac811e38c4ad3f8486bae67f749479d65345379e0bc687991fd5975295e9003d",
    "growth_index-1/theorem2.json": "40aff9b4999010f42c0f976b92b035bad6e437f975f928d20247d203c84bcb03",
    "growth_index-2/theorem2.csv": "924980045476136e87ec9a750a9a77bbc6f2cb75609cccbdd43dea39eec403a8",
    "growth_index-2/theorem2.json": "8e06825f7a14c09ff093c2439ba2bbabe4e2ac1f086b944a698d3c35bc2a4da9",
    "growth_index-3/theorem2.csv": "869390ccf3a3393e02c9699dd3751492c0a8b1f4931be8bb255998704e9c069c",
    "growth_index-3/theorem2.json": "ecd26442c209f2e467654c35449897941926e6e1452e7229a2b2eda31d6a94d4",
    "readme/counterexample.csv": "404e4a459dc2a1f0ea2c86295dcf9466aa4b97df1e5a9ea6d69a70b60b36e853",
    "readme/counterexample.json": "2dea300d3bdf74bb3163b47b6f49e36f06929a300e172caf3eb92dca71060c2e",
    "readme/inequality_audit.csv": "06e85da7aabadad9ba058b1fdf43b221cce34c9aa8462d03a69d83a09fdfcac6",
    "readme/inequality_audit.json": "526f8869c40313fd381b669c40e1c9c2a83003b0d5311e723025cd559073acae",
    "readme/theorem1.csv": "5243e58b45071e040328ce61f37edfa85fddf9c070c7489df03490a896766ca2",
    "readme/theorem1.json": "c2d5e35b55b34dd0f9e02037c58d4c2ff16468cf1493a67b6ff74c6f78f61aab",
    "readme/theorem2.csv": "33f4df1a28d62a491adb1a712759b5ceeb34757bb3b24ba93036744135b1ec6f",
    "readme/theorem2.json": "1d782d9fe64c0885af1e778b17bad24aba3078c48d0369efb0b220fc56d42332",
    "readme/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "readme/zalcman_scan.json": "40e40d5c00ff8ae75ce2c0d864054afc11861b97d17454118bc8e60c670a7b12",
    "report_grid-1/counterexample.csv": "91d993cff0c8cbbe3efdbd8c6199a329f16e32b5a9aef6cdc217c7f14537e40e",
    "report_grid-1/counterexample.json": "c37d3fdb055d2b0e5e18b55513a8b49fed8ec5124d0391f64ebf1edc6507cda4",
    "report_grid-1/theorem1.csv": "1bcdd3b1984598d5a2ae7dffeae5bdcfc71933ed466ab9e6cdbca2c7a65e9efe",
    "report_grid-1/theorem1.json": "1675f2e2f271c8d936856a746455f573a16fc359a75d3503a04b529e0cdead03",
    "report_grid-2/counterexample.csv": "5c74664759d3783f0f3c6588b28c9373562978563a276f3d5a22ca75121bca15",
    "report_grid-2/counterexample.json": "603454cf7a38c7ef643135e1d41b47dbf8802f1de898faca886e931567d2cd0c",
    "report_grid-2/theorem1.csv": "ea1e03d121d255c74482a9f3bc8ba7f7e7a72dc9af291905f549fbdf9466eb4c",
    "report_grid-2/theorem1.json": "4c528661d712e6a68dd0cc262e5943ec0cd6be915d25d2331ed7d972f4f6ed0a",
    "report_grid-3/counterexample.csv": "da288ed6c805b9be09ee686ca3455b43fb9e133974ca2861f6add3ad8f702bc3",
    "report_grid-3/counterexample.json": "8a8f20717448669868caedd5575a29adad7b41c88f66a79f261d2c23e3e57908",
    "report_grid-3/theorem1.csv": "d9bef195a07cdcdebaf7e672bcd3425a4dd5eafc47712bb18fb41b9119d9791b",
    "report_grid-3/theorem1.json": "379dde36532707177700100e2be91ac688b4fe49eebde6a703cb87243eef8f0a",
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
