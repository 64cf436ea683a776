import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from schlichtlab.cli import main as cli_main
from schlichtlab.errors import ConfigError
from schlichtlab.lab import ScenarioConfig, export_report, run_scenario


def small_cfg(scenario, tmp_path, **kw):
    base = dict(scenario=scenario, m_range=(2, 12), n_range=(1, 48),
                series_order=48, grunsky_order=12, out_dir=str(tmp_path))
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nope", m_range=(1, 2), n_range=(1, 2))

    def test_empty_range_rejected_before_any_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="counterexample", m_range=(2, 4),
                           n_range=(5, 4), out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_orders_must_be_at_least_eight(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="theorem1", m_range=(2, 4), n_range=(1, 4),
                           series_order=4)

    def test_n_range_must_fit_series_order(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="theorem1", m_range=(2, 4), n_range=(1, 64),
                           series_order=32)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "theorem1", "m_range": [2, 4],
                                      "n_range": [1, 8], "bogus": 1})

    def test_tolerance_overrides_merge(self):
        cfg = ScenarioConfig(scenario="counterexample", m_range=(2, 8),
                             n_range=(1, 8), series_order=16,
                             tolerances={"row_vanish": 0.2})
        assert cfg.tolerances["row_vanish"] == 0.2
        assert cfg.tolerances["diagonal_floor"] == 0.36

    # A flag must not read False only because its cutoff lies off the grid
    # of tauber.tail_supremum, 0 .. max(m_hi, n_count - 1) - 1.
    @pytest.mark.parametrize("m_range, n_range, order, cut, ok", [
        ((1, 32), (1, 128), 128, 128.0, False),
        ((1, 32), (1, 128), 128, 126.0, True),
        ((1, 32), (2, 128), 128, 126.0, False),
        ((1, 128), (1, 64), 64, 127.0, True),
    ])
    def test_theorem2_cutoff_on_grid(self, m_range, n_range, order, cut, ok):
        kw = dict(scenario="theorem2", m_range=m_range, n_range=n_range,
                  series_order=order, tolerances={"simultaneous_tail_n": cut})
        if ok:
            ScenarioConfig(**kw)
        else:
            with pytest.raises(ConfigError, match="simultaneous_tail_n"):
                ScenarioConfig(**kw)

    @pytest.mark.parametrize("m_range, n_range, cut, ok", [
        ((2, 40), (1, 64), 100.0, False),
        ((2, 40), (1, 64), 62.0, True),
        ((2, 40), (1, 64), -1.0, False),
    ])
    def test_theorem1_cutoff_on_grid(self, m_range, n_range, cut, ok):
        kw = dict(scenario="theorem1", m_range=m_range, n_range=n_range,
                  series_order=64, tolerances={"tail_n": cut})
        if ok:
            ScenarioConfig(**kw)
        else:
            with pytest.raises(ConfigError, match="tail_n"):
                ScenarioConfig(**kw)

    @pytest.mark.parametrize("m_range, n_range, ok", [
        ((2, 6), (1, 64), False),
        ((2, 8), (1, 64), True),
        ((2, 40), (9, 64), True),
        ((2, 40), (1, 7), False),
        ((9, 40), (1, 8), False),
    ])
    def test_counterexample_needs_diagonal_cell(self, m_range, n_range, ok):
        kw = dict(scenario="counterexample", m_range=m_range, n_range=n_range,
                  series_order=64)
        if ok:
            ScenarioConfig(**kw)
        else:
            with pytest.raises(ConfigError, match="diagonal"):
                ScenarioConfig(**kw)


class TestCounterexample:
    def test_diagonal_and_rows(self, tmp_path):
        cfg = small_cfg("counterexample", tmp_path, m_range=(2, 32),
                        n_range=(1, 128), series_order=128)
        rep = run_scenario(cfg)
        # closed form: value at (m, n) is (1 - 1/m)^{n-1}
        c = rep.rows
        i = np.flatnonzero((c["m"] == 10) & (c["n"] == 10))[0]
        assert abs(c["value"][i] - 0.9 ** 9) < 1e-12
        assert c["alpha_m"][i] == 0.0
        assert abs(c["deviation"][i] - c["value"][i]) < 1e-15
        assert rep.summary["flags"]["diagonal_above_e_inv_floor"]
        assert rep.summary["flags"]["rows_vanish_in_n"]

    def test_m_must_start_at_two(self, tmp_path):
        with pytest.raises(ConfigError):
            small_cfg("counterexample", tmp_path, m_range=(1, 8))


class TestTheorem1:
    def test_tail_bound(self, tmp_path):
        cfg = ScenarioConfig(scenario="theorem1", m_range=(2, 128),
                             n_range=(1, 256), series_order=256,
                             out_dir=str(tmp_path))
        rep = run_scenario(cfg)
        tn = np.asarray(rep.summary["tail_n"])
        ts = np.asarray(rep.summary["tail_sup"])
        at100 = float(ts[tn == 100][0])
        assert at100 <= 0.01
        assert at100 <= 1.0 / 101.0 + 1e-12  # closed-form ceiling
        assert rep.summary["flags"]["uniform_tail_bound"]
        assert rep.summary["flags"]["tauber_hypothesis_iii"]
        assert rep.all_ok()


class TestTheorem2:
    def test_small_run_flags(self, tmp_path):
        cfg = ScenarioConfig(scenario="theorem2", m_range=(1, 8),
                             n_range=(1, 64), series_order=64,
                             tolerances={"simultaneous_tail_n": 32.0},
                             out_dir=str(tmp_path))
        rep = run_scenario(cfg)
        ts = np.asarray(rep.summary["tail_sup"])
        assert np.all(np.diff(ts) <= 1e-12)
        assert rep.summary["flags"]["tail_sup_non_increasing"]
        assert max(rep.summary["bracket_widths"]) < 1e-6


class TestZalcman:
    def test_koebe_attains_ceiling(self, tmp_path):
        cfg = ScenarioConfig(scenario="zalcman_scan", m_range=(1, 5),
                             n_range=(2, 16), series_order=64,
                             out_dir=str(tmp_path))
        rep = run_scenario(cfg)
        koebe = rep.rows["m"] == 1
        by_n = dict(zip(rep.rows["n"][koebe].tolist(), rep.rows["value"][koebe].tolist()))
        assert by_n[5] == 16.0
        assert rep.summary["flags"]["zalcman_ceiling"]
        assert rep.summary["flags"]["extremal_at_koebe_or_rotation"]
        assert rep.summary["flags"]["bieberbach_ratio_bound"]


class TestAudit:
    def test_corpus_audit_all_ok(self, tmp_path):
        cfg = ScenarioConfig(scenario="inequality_audit", m_range=(1, 5),
                             n_range=(1, 5), series_order=128, grunsky_order=32,
                             out_dir=str(tmp_path))
        rep = run_scenario(cfg)
        assert rep.all_ok(), {k: v for k, v in rep.summary["flags"].items() if not v}
        checks = set(rep.rows["check"])
        assert "milin_bound" in checks
        assert "grunsky_norm_bound" in checks
        assert "tauber_split_identity" in checks

    def test_order_128_flags(self, tmp_path):
        # the audit_grunsky benchmark's scale; its one false flag is the dense
        # norm of koebe_transform, 1+1.86e-9 against the 1e-9 norm_slack, see
        # ROADMAP item 2
        cfg = ScenarioConfig(scenario="inequality_audit", m_range=(1, 1),
                             n_range=(1, 1), series_order=258, grunsky_order=128,
                             out_dir=str(tmp_path))
        flags = run_scenario(cfg).summary["flags"]
        assert {k for k, ok in flags.items() if not ok} == {
            "grunsky_norm_bound:koebe_transform(w=0.2121+0.2121j)"}


class TestExport:
    def test_csv_format(self, tmp_path):
        cfg = small_cfg("counterexample", tmp_path, m_range=(2, 12),
                        n_range=(1, 16), series_order=16)
        rep = run_scenario(cfg)
        csv_path, json_path = export_report(rep)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scenario,m,n,value,alpha_m,deviation,flag"
        target = [l for l in lines if l.startswith("counterexample,10,10,")]
        assert target and target[0] == (
            "counterexample,10,10,0.38742049,0.00000000,0.38742049,ok")

    def test_json_round_trip(self, tmp_path):
        cfg = small_cfg("zalcman_scan", tmp_path, m_range=(1, 5),
                        n_range=(2, 8), series_order=32)
        rep = run_scenario(cfg)
        paths = export_report(rep, fmt="json")
        loaded = json.loads(paths[0].read_text())
        assert loaded == json.loads(json.dumps(rep.to_dict()))

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = ScenarioConfig(scenario="zalcman_scan", m_range=(1, 5),
                                 n_range=(2, 16), series_order=64, seed=7,
                                 out_dir="reports")
            export_report(run_scenario(cfg), out_dir=str(out))
        for name in ("zalcman_scan.csv", "zalcman_scan.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_format(self, tmp_path):
        cfg = small_cfg("counterexample", tmp_path, n_range=(1, 16),
                        series_order=16)
        rep = run_scenario(cfg)
        with pytest.raises(ConfigError):
            export_report(rep, fmt="xml")


class TestCli:
    def test_run_subcommand(self, tmp_path):
        cfg = {"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [2, 8],
               "series_order": 32, "out_dir": str(tmp_path / "rep")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rep" / "zalcman_scan.csv").exists()
        assert "zalcman_ceiling" in result.output

    def test_run_rejects_bad_config_without_files(self, tmp_path):
        cfg = {"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [8, 2],
               "series_order": 32, "out_dir": str(tmp_path / "rep")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(cfg_path)])
        assert result.exit_code != 0
        assert not (tmp_path / "rep").exists()

    def test_audit_subcommand(self):
        result = CliRunner().invoke(cli_main,
                                    ["audit", "--function", "koebe", "--order", "64"])
        assert result.exit_code == 0, result.output
        assert "milin_bound" in result.output

    def test_grunsky_subcommand(self):
        result = CliRunner().invoke(
            cli_main, ["grunsky", "--function", "koebe", "--order", "16",
                       "--z", "0.5,0.0"])
        assert result.exit_code == 0, result.output
        assert "strong norm" in result.output

    @pytest.mark.parametrize("tag", ["koebe", "halfplane", "rotation", "dilation",
                                     "koebe_transform"])
    def test_grunsky_subcommand_every_member(self, tag):
        # koebe_transform's section clusters its singular values at 1, where
        # power iteration stalls; the command's dense norm must not
        result = CliRunner().invoke(
            cli_main, ["grunsky", "--function", tag, "--order", "32",
                       "--z", "0.5,0.0"])
        assert result.exit_code == 0, result.output
        assert "(ok)" in result.output

    def test_grunsky_bad_point(self):
        result = CliRunner().invoke(
            cli_main, ["grunsky", "--function", "koebe", "--order", "16",
                       "--z", "oops"])
        assert result.exit_code != 0
