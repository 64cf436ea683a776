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
files moved, and why, in CHANGES.md.

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
    "audit258/inequality_audit.csv": "58227ba3f5d0b2810e9f45229a77b4fd7b7d9c86d0de725ced6edae840af695f",
    "audit258/inequality_audit.json": "602e0268d33248d9234888daa4e449a0f3bc862e5377ea7eaade09d08532217d",
    "audit_grunsky-1/inequality_audit.csv": "58227ba3f5d0b2810e9f45229a77b4fd7b7d9c86d0de725ced6edae840af695f",
    "audit_grunsky-1/inequality_audit.json": "602e0268d33248d9234888daa4e449a0f3bc862e5377ea7eaade09d08532217d",
    "audit_grunsky-1/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-1/zalcman_scan.json": "d260b2650a49b6375ee75dbd794417f8a69f55b5f6ed3cb26141072378fd4b09",
    "audit_grunsky-2/inequality_audit.csv": "58227ba3f5d0b2810e9f45229a77b4fd7b7d9c86d0de725ced6edae840af695f",
    "audit_grunsky-2/inequality_audit.json": "602e0268d33248d9234888daa4e449a0f3bc862e5377ea7eaade09d08532217d",
    "audit_grunsky-2/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-2/zalcman_scan.json": "d260b2650a49b6375ee75dbd794417f8a69f55b5f6ed3cb26141072378fd4b09",
    "audit_grunsky-3/inequality_audit.csv": "58227ba3f5d0b2810e9f45229a77b4fd7b7d9c86d0de725ced6edae840af695f",
    "audit_grunsky-3/inequality_audit.json": "602e0268d33248d9234888daa4e449a0f3bc862e5377ea7eaade09d08532217d",
    "audit_grunsky-3/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-3/zalcman_scan.json": "d260b2650a49b6375ee75dbd794417f8a69f55b5f6ed3cb26141072378fd4b09",
    "growth_index-1/theorem2.csv": "ac811e38c4ad3f8486bae67f749479d65345379e0bc687991fd5975295e9003d",
    "growth_index-1/theorem2.json": "243130748833f4dc78d1423232df6b68e8c2875c2d673585f5843cc696219b14",
    "growth_index-2/theorem2.csv": "924980045476136e87ec9a750a9a77bbc6f2cb75609cccbdd43dea39eec403a8",
    "growth_index-2/theorem2.json": "a09e84e0e0cda02c1a4aacb69024dbd15fcade8896132a41608b391451ec7e49",
    "growth_index-3/theorem2.csv": "869390ccf3a3393e02c9699dd3751492c0a8b1f4931be8bb255998704e9c069c",
    "growth_index-3/theorem2.json": "b979c07eb8c8dcaa3adc3b2772ee0f3c3053df4fc09b947af5ac7edc0db3530d",
    "readme/counterexample.csv": "404e4a459dc2a1f0ea2c86295dcf9466aa4b97df1e5a9ea6d69a70b60b36e853",
    "readme/counterexample.json": "a2c3719776767680e923f3c468bbe0901e0dd304c972b4951c9773a34f3becbc",
    "readme/inequality_audit.csv": "cfaf7519b34660887a352153f42d1a785059f10cf9520f16a0e43708fcd1c131",
    "readme/inequality_audit.json": "a445e95f0b237216cefb45aabf256d4d37595df21b015e3981ff4a5a42e77448",
    "readme/theorem1.csv": "5243e58b45071e040328ce61f37edfa85fddf9c070c7489df03490a896766ca2",
    "readme/theorem1.json": "4b32af8d9ed4c2f5609e350f72a0d0634a236323d1af598543b5abfd83d5d162",
    "readme/theorem2.csv": "33f4df1a28d62a491adb1a712759b5ceeb34757bb3b24ba93036744135b1ec6f",
    "readme/theorem2.json": "c73d30e9cf2f6a717989abb1d07b2ef5e1848af4faf0fc664f2f59c3efc847ab",
    "readme/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "readme/zalcman_scan.json": "d260b2650a49b6375ee75dbd794417f8a69f55b5f6ed3cb26141072378fd4b09",
    "report_grid-1/counterexample.csv": "91d993cff0c8cbbe3efdbd8c6199a329f16e32b5a9aef6cdc217c7f14537e40e",
    "report_grid-1/counterexample.json": "2006ecf04fa0871aa275864b30ef27b63f45036043861bf22bc5d4531cd65e3c",
    "report_grid-1/theorem1.csv": "1bcdd3b1984598d5a2ae7dffeae5bdcfc71933ed466ab9e6cdbca2c7a65e9efe",
    "report_grid-1/theorem1.json": "eef01fb66ef098bdafd2400b228cb2ad3b42aa0a896d5d22433cbdf66a4e56b9",
    "report_grid-2/counterexample.csv": "5c74664759d3783f0f3c6588b28c9373562978563a276f3d5a22ca75121bca15",
    "report_grid-2/counterexample.json": "bd9a2cf4ae19c8d5ee6dab1e4a6c35289f84d6cd649e6d4548366489eb8b04be",
    "report_grid-2/theorem1.csv": "ea1e03d121d255c74482a9f3bc8ba7f7e7a72dc9af291905f549fbdf9466eb4c",
    "report_grid-2/theorem1.json": "b95555508644c49048423f5bd94dbdfb42cbe916db2b6f156859d6c3245de88b",
    "report_grid-3/counterexample.csv": "da288ed6c805b9be09ee686ca3455b43fb9e133974ca2861f6add3ad8f702bc3",
    "report_grid-3/counterexample.json": "082ee393c65a0868ec647ae00ceef8d381a55442f8c23fcce2a4ff486b2ee52a",
    "report_grid-3/theorem1.csv": "d9bef195a07cdcdebaf7e672bcd3425a4dd5eafc47712bb18fb41b9119d9791b",
    "report_grid-3/theorem1.json": "7a23b34c33222b0897e9c9bab4883d9ec28553be891cd803654fb59f2cc96d70",
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
    assert not moved, (f"reports moved: {moved}; the digests were taken on {STACK}, "
                       f"this run is on {_stack()}")


def test_set_holds_42_files():
    assert sum(2 * len(configs) for configs in report_set().values()) == len(DIGESTS) == 42
