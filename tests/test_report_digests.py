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

The digests pin the numeric stack they were taken on (STACK).  Within
it, the reports do not depend on which numpy SIMD kernels above x86-64-v3
run, and all but the five inequality_audit JSON files (BLAS_DEPENDENT) do
not depend on the OpenBLAS core: those five read ``eigvalsh`` and the
matrix products of the Grunsky tables.  The kernel test reruns the set in
one subprocess per kernel variant, each chosen by environment variables
alone, and compares it with a plain run.
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import schlichtlab
from schlichtlab.lab import ScenarioConfig, export_report, run_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
OUT_DIR = "reports"
STACK = ("Python 3.11.7, numpy 2.4.6; the five inequality_audit JSON files also on "
         "its OpenBLAS 0.3.31 core, taken on AVX-512")
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
    "audit258/inequality_audit.json": "b9aac7e70cdcb2e4ff8ec9ddf9197aa6ef53cb1f04dfe1f49c5e55941e827b5f",
    "audit_grunsky-1/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-1/inequality_audit.json": "b9aac7e70cdcb2e4ff8ec9ddf9197aa6ef53cb1f04dfe1f49c5e55941e827b5f",
    "audit_grunsky-1/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-1/zalcman_scan.json": "01882a529929ad396e1284ba3ef5cc4d9f51f8b9220a34e7a0e9f7805397dee6",
    "audit_grunsky-2/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-2/inequality_audit.json": "b9aac7e70cdcb2e4ff8ec9ddf9197aa6ef53cb1f04dfe1f49c5e55941e827b5f",
    "audit_grunsky-2/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-2/zalcman_scan.json": "01882a529929ad396e1284ba3ef5cc4d9f51f8b9220a34e7a0e9f7805397dee6",
    "audit_grunsky-3/inequality_audit.csv": "cdf47847b18b61d12289354ffd1ff9ab563dd24b7e35b35f673e9e952dabe185",
    "audit_grunsky-3/inequality_audit.json": "b9aac7e70cdcb2e4ff8ec9ddf9197aa6ef53cb1f04dfe1f49c5e55941e827b5f",
    "audit_grunsky-3/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "audit_grunsky-3/zalcman_scan.json": "01882a529929ad396e1284ba3ef5cc4d9f51f8b9220a34e7a0e9f7805397dee6",
    "growth_index-1/theorem2.csv": "ac811e38c4ad3f8486bae67f749479d65345379e0bc687991fd5975295e9003d",
    "growth_index-1/theorem2.json": "40aff9b4999010f42c0f976b92b035bad6e437f975f928d20247d203c84bcb03",
    "growth_index-2/theorem2.csv": "924980045476136e87ec9a750a9a77bbc6f2cb75609cccbdd43dea39eec403a8",
    "growth_index-2/theorem2.json": "8e06825f7a14c09ff093c2439ba2bbabe4e2ac1f086b944a698d3c35bc2a4da9",
    "growth_index-3/theorem2.csv": "869390ccf3a3393e02c9699dd3751492c0a8b1f4931be8bb255998704e9c069c",
    "growth_index-3/theorem2.json": "ecd26442c209f2e467654c35449897941926e6e1452e7229a2b2eda31d6a94d4",
    "readme/counterexample.csv": "404e4a459dc2a1f0ea2c86295dcf9466aa4b97df1e5a9ea6d69a70b60b36e853",
    "readme/counterexample.json": "9bf53806f37fb9f629c296a2bd2d8e0ad5143da3bc3ddca542ea98e8b6ad4b0c",
    "readme/inequality_audit.csv": "06e85da7aabadad9ba058b1fdf43b221cce34c9aa8462d03a69d83a09fdfcac6",
    "readme/inequality_audit.json": "11c5d7f10abe33090780c99f2180eb4a54b42e9deff2e5b77c3233d0556bf046",
    "readme/theorem1.csv": "5243e58b45071e040328ce61f37edfa85fddf9c070c7489df03490a896766ca2",
    "readme/theorem1.json": "2efc1775dce55daaa14b57244f0e57eb077e96949e74dbd8100aca0aaa4ea3f0",
    "readme/theorem2.csv": "33f4df1a28d62a491adb1a712759b5ceeb34757bb3b24ba93036744135b1ec6f",
    "readme/theorem2.json": "1d782d9fe64c0885af1e778b17bad24aba3078c48d0369efb0b220fc56d42332",
    "readme/zalcman_scan.csv": "b51b52092833549e291c9719307eec7ee4c915424cba3b4ecc75e25b71a2ed89",
    "readme/zalcman_scan.json": "01882a529929ad396e1284ba3ef5cc4d9f51f8b9220a34e7a0e9f7805397dee6",
    "report_grid-1/counterexample.csv": "91d993cff0c8cbbe3efdbd8c6199a329f16e32b5a9aef6cdc217c7f14537e40e",
    "report_grid-1/counterexample.json": "a550df8dc7459c91ec057dad66b7f6c677d32cdc53f83b3397d5e3217082d467",
    "report_grid-1/theorem1.csv": "1bcdd3b1984598d5a2ae7dffeae5bdcfc71933ed466ab9e6cdbca2c7a65e9efe",
    "report_grid-1/theorem1.json": "632d12097e13f7c3463915a9fa41bfcf1dbe5b7f427b9bb7d96381f2adab21c3",
    "report_grid-2/counterexample.csv": "5c74664759d3783f0f3c6588b28c9373562978563a276f3d5a22ca75121bca15",
    "report_grid-2/counterexample.json": "93bcddfd7243260199768231959040251ded9f6ab881e929c8fe8d81ef61417e",
    "report_grid-2/theorem1.csv": "ea1e03d121d255c74482a9f3bc8ba7f7e7a72dc9af291905f549fbdf9466eb4c",
    "report_grid-2/theorem1.json": "d074df2119e10cfd0b97ba2cf5aba08e0c7c14ec44fc5d38bc4eaeeaded30f25",
    "report_grid-3/counterexample.csv": "da288ed6c805b9be09ee686ca3455b43fb9e133974ca2861f6add3ad8f702bc3",
    "report_grid-3/counterexample.json": "c524a503d57d3ea36f34c7cb1d0ec66019a07272bf2ac7fa7ea5d27f7c68eb94",
    "report_grid-3/theorem1.csv": "d9bef195a07cdcdebaf7e672bcd3425a4dd5eafc47712bb18fb41b9119d9791b",
    "report_grid-3/theorem1.json": "093e423278984a67dc4f8f171d6ea65befae438081a532e804adb2de3cd1c5df",
}


def _stack() -> str:
    return f"Python {platform.python_version()}, numpy {np.__version__}"


def write_reports(group: str, configs: list, out: Path) -> dict:
    """Write the reports of ``configs`` under ``out`` and return their
    digests, keyed ``"group/file"``."""
    for data in configs:
        cfg = ScenarioConfig.from_dict(dict(data, out_dir=OUT_DIR))
        export_report(run_scenario(cfg), fmt="both", out_dir=str(out))
    return {f"{group}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("group, configs", sorted(report_set().items()))
def test_reports_match_digests(group, configs, tmp_path):
    digests = write_reports(group, configs, tmp_path / group)
    expected = {k: v for k, v in DIGESTS.items() if k.startswith(f"{group}/")}
    moved = sorted(k for k in expected.keys() | digests.keys()
                   if expected.get(k) != digests.get(k))
    # each moved file's new entry, ready to paste into DIGESTS
    entries = "".join(f'\n    "{k}": "{digests[k]}",' for k in moved if k in digests)
    assert not moved, (f"reports moved: {moved}; the digests were taken on {STACK}, "
                       f"this run is on {_stack()}; new DIGESTS entries:{entries}")


def test_set_holds_42_files():
    assert sum(2 * len(configs) for configs in report_set().values()) == len(DIGESTS) == 42


#: the reports that read eigvalsh and the Grunsky tables' BLAS products
BLAS_DEPENDENT = {f"{group}/inequality_audit.json" for group in
                  ("audit258", "audit_grunsky-1", "audit_grunsky-2", "audit_grunsky-3", "readme")}

# numpy's dispatch groups above x86-64-v3 that this CPU runs (AVX-512 and up)
_ABOVE_V3 = [group for group in __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:]
             if __cpu_features__.get(group)] if "X86_V3" in __cpu_dispatch__ else []
_X86_64 = platform.machine().lower() in ("x86_64", "amd64")

# each variant's environment, and the reports allowed to move under it
KERNEL_VARIANTS = {
    "numpy_above_v3_off": ({"NPY_DISABLE_CPU_FEATURES": " ".join(_ABOVE_V3)}, set(),
                           not _ABOVE_V3),
    "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, BLAS_DEPENDENT,
                         not (_X86_64 and __cpu_features__.get("AVX2"))),
    "openblas_prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, BLAS_DEPENDENT, not _X86_64),
}

_RERUN = """
import json, sys
from pathlib import Path
import test_report_digests as t
out, digests = Path(sys.argv[1]), {}
for group, configs in t.report_set().items():
    digests.update(t.write_reports(group, configs, out / group))
print(json.dumps(digests))
"""


def _rerun(variables: dict, out: Path) -> dict:
    """The digests of the whole set, written in a fresh Python process whose
    environment is this one's, no kernel variable inherited, plus ``variables``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    paths = [str(Path(__file__).parent), str(Path(schlichtlab.__file__).parents[1])]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.update(variables)
    done = subprocess.run([sys.executable, "-c", _RERUN, str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    return _rerun({}, tmp_path_factory.mktemp("plain"))


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
def test_reports_keep_their_bits_across_kernels(variant, plain_run, tmp_path):
    variables, may_move, skip = KERNEL_VARIANTS[variant]
    if skip:
        pytest.skip(f"this CPU cannot run the {variant} variant")
    digests = _rerun(variables, tmp_path)
    assert digests.keys() == plain_run.keys() and len(digests) == 42
    moved = sorted(k for k in digests if digests[k] != plain_run[k] and k not in may_move)
    assert not moved, f"under {variables}, these reports moved: {moved}"
