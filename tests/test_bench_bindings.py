"""The names the benchmark's tracer and probes look up in the package.

``bench/tracer.py`` wraps every ``(module, attribute)`` in its ``LAYERS``
and ``bench/worker.py`` calls single layers by name, so a rename in the
package would break a traced benchmark run without failing any other test.
The traced round also calls ``cli.main`` and reads its exit code and lines,
which is pinned here too, and every config ``bench/workloads.py`` draws must
load.  The benchmark files are read here, never changed.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from schlichtlab import cli, families, grunsky, lab
from schlichtlab.errors import ConfigError

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _tracer_layers() -> dict:
    return _tracer().LAYERS


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"schlichtlab.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _probed_names() -> set:
    """``(module, attribute)`` of each ``module.attribute(`` call in worker.py's probes."""
    source = (BENCH / "worker.py").read_text(encoding="utf-8")
    probes = source[source.index("def probes("):source.index("def setup(")]
    return set(re.findall(r"\b(families|grunsky|hayman|logmilin)\.(\w+)\(", probes))


@pytest.mark.parametrize("layer, binding", sorted(_tracer_layers().items()))
def test_tracer_layer_resolves(layer, binding):
    assert callable(_resolve(*binding)), layer


def test_probed_names_resolve():
    names = _probed_names()
    assert ("grunsky", "grunsky_norm_dense") in names
    for module, attr in sorted(names):
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_tracer_records_one_span_per_norm_call():
    # a name bound to the very function another layer wraps is wrapped twice,
    # and one call of the norm would then record two nested spans
    f = families.make_schlicht("koebe", order=18)
    table = grunsky.grunsky_matrix(families.invert_to_sigma(f, 16), 8)
    tracer = _tracer().Tracer()
    with tracer.installed():
        grunsky.strong_grunsky_norm(table)
    assert [span[3] for span in tracer.spans] == ["grunsky.strong_grunsky_norm"]


def _zalcman_config(tmp_path, **changes) -> str:
    data = {"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [2, 8],
            "series_order": 32, "out_dir": str(tmp_path / "rep"), **changes}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _bench_cli_call(config_path: str, fmt: str) -> tuple:
    """``worker.run_cli_pass``'s call of ``cli.main``: the stdout lines and the exit code."""
    assert "standalone_mode=False" in (BENCH / "worker.py").read_text(encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--config", config_path, "--format", fmt], standalone_mode=False)
    return buf.getvalue().splitlines(), exit_info.value.code


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_cli_run_as_the_traced_round_reads_it(fmt, tmp_path):
    config_path = _zalcman_config(tmp_path)
    lines, code = _bench_cli_call(config_path, fmt)
    paths = [Path(line[len("wrote "):]) for line in lines if line.startswith("wrote ")]
    flags = {line[5:]: line.startswith("ok") for line in lines
             if line[:4] in ("ok  ", "FAIL")}
    assert code == 0
    assert sorted(p.suffix for p in paths) == {"csv": [".csv"], "json": [".json"],
                                               "both": [".csv", ".json"]}[fmt]
    assert all(p.is_file() for p in paths)
    summary_flags = lab.run_scenario(lab.ScenarioConfig.from_json(config_path)).summary["flags"]
    assert flags == summary_flags and len(lines) == len(paths) + len(summary_flags)


def test_bad_config_raises_only_outside_standalone_mode(tmp_path, capsys):
    config_path = _zalcman_config(tmp_path, n_range=[8, 2])
    with pytest.raises(ConfigError):
        _bench_cli_call(config_path, "csv")
    assert capsys.readouterr() == ("", "")
    # the console script's default prints it as one line instead
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--config", config_path, "--format", "csv"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 1 and out == ""
    assert err.startswith("Error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("tiny", [
    False,
    pytest.param(True, marks=pytest.mark.xfail(strict=True, reason="ROADMAP 0a")),
], ids=["full", "tiny"])
def test_every_workload_config_loads(tiny):
    # the --tiny grids keep the default cutoffs, which lie off their tail grids
    workloads, refused = _workloads(), []
    for name in workloads.NAMES:
        for seed in range(40):
            for data in workloads.scenario_configs(name, seed, tiny):
                try:
                    lab.ScenarioConfig.from_dict(data)
                except ConfigError as exc:
                    refused.append(f"{name} seed {seed} {data['scenario']}: {exc}")
    assert not refused, f"{len(refused)} configs refused, the first: {refused[0]}"
