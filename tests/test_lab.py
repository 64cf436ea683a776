import dataclasses
import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab import families, grunsky, hayman, lab, logmilin, tauber
from schlichtlab.cli import main as cli_main
from schlichtlab.errors import AmbiguousDirection, ConfigError, InvalidParameter
from schlichtlab.families import make_schlicht
from schlichtlab.lab import ScenarioConfig, export_report, run_scenario
from schlichtlab.series import ComplexSeries

from conftest import report_dict


def run_cli(args, capsys):
    """The exit code, stdout and stderr of ``schlicht-lab`` on ``args``."""
    with pytest.raises(SystemExit) as exit_info:
        cli_main(args)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


def small_cfg(scenario, tmp_path, **kw):
    base = dict(scenario=scenario, m_range=(2, 12), n_range=(1, 48),
                series_order=48, out_dir=str(tmp_path))
    if scenario == "inequality_audit":  # no other scenario reads grunsky_order
        base["grunsky_order"] = 12
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

    # each m of the window builds one member and adds one tail cutoff, so the
    # window ends at the order ceiling; these configs are only ever loaded
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario, m_range, n_range", [
        ("theorem1", [10**6, 10**6], [1, 8]),
        ("counterexample", [2, families.MAX_ORDER + 1], [1, 8]),
        ("theorem2", [1, families.MAX_ORDER + 1], [1, 8]),
        ("zalcman_scan", [2, 10**12], [2, 8]),
        ("inequality_audit", [1, 10**6], [1, 1]),
    ])
    def test_m_range_has_a_ceiling(self, scenario, m_range, n_range):
        data = {"scenario": scenario, "m_range": m_range, "n_range": n_range,
                "series_order": 32}
        with pytest.raises(ConfigError, match=f"m_range must end at or below "
                                              f"families.MAX_ORDER \\({families.MAX_ORDER}\\)"):
            ScenarioConfig.from_dict(data)
        m_range = [min(m_range[0], families.MAX_ORDER), families.MAX_ORDER]
        assert ScenarioConfig.from_dict(dict(data, m_range=m_range)).m_range[1] == \
            families.MAX_ORDER

    def test_orders_must_be_at_least_eight(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="theorem1", m_range=(2, 4), n_range=(1, 4),
                           series_order=4)

    @pytest.mark.parametrize("key", ["series_order", "grunsky_order"])
    @pytest.mark.parametrize("order", [32.0, 32.5, "32", True, None])
    def test_orders_must_be_integers(self, key, order):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.from_dict({"scenario": "theorem1", "m_range": [2, 4],
                                      "n_range": [1, 4], key: order})

    def test_n_range_must_fit_series_order(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="theorem1", m_range=(2, 4), n_range=(1, 64),
                           series_order=32)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "theorem1", "m_range": [2, 4],
                                      "n_range": [1, 8], "bogus": 1})

    def test_seed_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['seed'\]"):
            ScenarioConfig.from_dict({"scenario": "theorem1", "m_range": [2, 4],
                                      "n_range": [1, 8], "seed": 0})

    def test_empty_object_is_malformed(self):
        with pytest.raises(ConfigError, match="malformed config"):
            ScenarioConfig.from_dict({})

    @pytest.mark.parametrize("data", ["abc", [["scenario", "theorem1"]], None, 3])
    def test_top_level_must_be_an_object(self, data):
        with pytest.raises(ConfigError, match="must be an object"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", ["m_range", "n_range"])
    @pytest.mark.parametrize("bounds", [[2.7, 12], [2, 12.9], [2.0, 12], ["2", "12"],
                                        [True, 12], [2, None]],
                             ids=["fractional lo", "fractional hi", "whole float",
                                  "strings", "bool", "null"])
    def test_ranges_must_be_integers(self, key, bounds):
        data = {"scenario": "counterexample", "m_range": [2, 12], "n_range": [1, 12],
                "series_order": 16}
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.from_dict(dict(data, **{key: bounds}))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bounds", [5, "28", [1, 2, 3], None])
    def test_ranges_must_be_pairs(self, bounds):
        with pytest.raises(ConfigError, match="m_range"):
            ScenarioConfig.from_dict({"scenario": "zalcman_scan", "m_range": bounds,
                                      "n_range": [2, 8], "series_order": 32})

    @pytest.mark.filterwarnings("error")
    def test_valid_ranges_are_echoed_as_ints(self, tmp_path):
        cfg = ScenarioConfig.from_dict({"scenario": "theorem2",
                                        "m_range": [np.int64(1), 5], "n_range": (2, 8),
                                        "series_order": 32, "out_dir": str(tmp_path),
                                        "tolerances": {"simultaneous_tail_n": 4}})
        assert cfg.m_range == (1, 5) and cfg.n_range == (2, 8)
        assert all(type(x) is int for x in cfg.m_range + cfg.n_range)
        _, json_path = export_report(run_scenario(cfg))
        echoed = json.loads(json_path.read_text())["provenance"]["config"]
        assert echoed["m_range"] == [1, 5] and echoed["n_range"] == [2, 8]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("out_dir", [5, None, ["reports"], 2.5])
    def test_out_dir_must_be_a_string(self, tmp_path, out_dir, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="out_dir"):
            ScenarioConfig.from_dict({"scenario": "counterexample", "m_range": [2, 12],
                                      "n_range": [1, 12], "series_order": 16,
                                      "out_dir": out_dir})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order, ok", [(8, False), (17, False), (18, False),
                                           (31, False), (32, True)])
    def test_audit_order_holds_the_comparison_section(self, order, ok):
        # the audit's Grunsky section, of order (series_order - 2) // 2, must
        # hold the order-8 section its fullness_defect_decreasing flag reads
        # (order 18), and its log_identity_link residual at z = 0.5 must meet
        # lab.IDENTITY_TOL (order 30, with margin from 32)
        data = {"scenario": "inequality_audit", "m_range": [1, 1], "n_range": [1, 1],
                "series_order": order}
        if ok:
            assert ScenarioConfig.from_dict(data).series_order == order
        else:
            with pytest.raises(ConfigError, match="series_order >= 32"):
                ScenarioConfig.from_dict(data)

    @pytest.mark.filterwarnings("error")
    def test_audit_loads_without_ranges(self):
        cfg = ScenarioConfig(scenario="inequality_audit", series_order=32)
        assert cfg.m_range == cfg.n_range == ()

    def test_tolerance_overrides_merge(self):
        cfg = ScenarioConfig(scenario="counterexample", m_range=(2, 8),
                             n_range=(1, 8), series_order=16,
                             tolerances={"row_vanish": 0.2})
        assert cfg.tolerances["row_vanish"] == 0.2
        assert cfg.tolerances["diagonal_floor"] == 0.36

    # the theorem1 grid whose tail grid 0..127 holds the default cutoff 100
    THEOREM1 = {"scenario": "theorem1", "m_range": [2, 128], "n_range": [1, 128],
                "series_order": 128}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tolerances, match", [
        ({"tail_bund": 0.01}, "unknown tolerance"),
        ({"tail_bound": "x"}, "tail_bound"),
        ({"tail_bound": None}, "tail_bound"),
        ({"tail_bound": [0.01]}, "tail_bound"),
        ({"tail_bound": math.nan}, "tail_bound"),
        ({"tail_bound": math.inf}, "tail_bound"),
        ({"tail_n": 100.7}, "tail_n"),
        ({"tail_n": True}, "tail_n"),
        ({"simultaneous_tail_n": 64.5}, "simultaneous_tail_n"),
        ([["tail_n", 100]], "tolerances"),
        (None, "tolerances must map names to numbers"),
        ({"tail_bound": True}, "tail_bound"),
        ({"tail_bound": "0.01"}, "tail_bound"),
        ({"tail_bound": np.float32(0.01)}, "tail_bound"),
    ], ids=["typo", "string", "null", "list", "nan", "inf", "fractional cutoff",
            "bool cutoff", "fractional other cutoff", "not a mapping", "null mapping",
            "bool", "numeric string", "float32"])
    def test_bad_tolerances_rejected(self, tolerances, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(dict(self.THEOREM1, tolerances=tolerances))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [0.02, np.float64(0.02), 1])
    def test_json_number_tolerances_accepted(self, value):
        cfg = ScenarioConfig.from_dict(dict(self.THEOREM1, tolerances={"tail_bound": value}))
        assert cfg.tolerances["tail_bound"] is value

    @pytest.mark.filterwarnings("error")
    def test_valid_tolerances_are_echoed_as_given(self, tmp_path):
        cfg = ScenarioConfig.from_dict(dict(self.THEOREM1, out_dir=str(tmp_path),
                                            tolerances={"tail_n": 100, "tail_bound": 1}))
        assert cfg.tolerances["tail_n"] == 100 and type(cfg.tolerances["tail_n"]) is int
        _, json_path = export_report(run_scenario(cfg))
        echoed = json.loads(json_path.read_text())["provenance"]["config"]["tolerances"]
        assert echoed["tail_n"] == 100 and type(echoed["tail_n"]) is int
        assert ScenarioConfig.from_dict(dict(self.THEOREM1, tolerances={"tail_n": 100.0}))

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

    @settings(max_examples=40, deadline=None)
    @given(m_lo=st.integers(2, 40), m_count=st.integers(1, 30),
           n_lo=st.integers(1, 40), n_count=st.integers(1, 30))
    def test_cutoff_check_reads_the_grid_tail_supremum_builds(self, m_lo, m_count,
                                                              n_lo, n_count):
        m_range, n_range = (m_lo, m_lo + m_count - 1), (n_lo, n_lo + n_count - 1)
        n_grid, _ = tauber.tail_supremum(np.zeros((m_count, n_count)),
                                         np.arange(m_lo, m_range[1] + 1))
        kw = dict(scenario="theorem1", m_range=m_range, n_range=n_range, series_order=72)
        assert ScenarioConfig(**kw, tolerances={"tail_n": int(n_grid[-1])})
        with pytest.raises(ConfigError, match="lies off the tail grid"):
            ScenarioConfig(**kw, tolerances={"tail_n": int(n_grid[-1]) + 1})

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", ["series_order", "grunsky_order"])
    def test_orders_have_a_ceiling(self, key, tmp_path):
        data = {"scenario": "inequality_audit", "m_range": [1, 1], "n_range": [1, 1],
                "out_dir": str(tmp_path / "out")}
        for order in (families.MAX_ORDER + 1, 10**30):
            with pytest.raises(ConfigError, match=f"{key} must be at most {families.MAX_ORDER}"):
                ScenarioConfig.from_dict(dict(data, **{key: order}))
        assert getattr(ScenarioConfig.from_dict(dict(data, **{key: families.MAX_ORDER})),
                       key) == families.MAX_ORDER
        assert not (tmp_path / "out").exists()


# every tolerance key of the scenario table; tests/test_readme.py checks the
# defaults against the README's table
ALL_KEYS = sorted(k for row in lab.SCENARIOS.values() for k in row.tolerances)

# the rounding slacks that were tolerance keys, each with the scenario that read
# it; they are lab constants now, and a config that names one is refused
RETIRED_KEYS = {"norm_slack": "inequality_audit", "identity_tol": "inequality_audit",
                "split_tol": "inequality_audit", "zalcman_slack": "zalcman_scan"}

# a small config per scenario whose flags all hold at its defaults; theorem2's
# tail bound is tightened so that its cutoff decides a flag (at the default
# 0.05 every cutoff of this family passes, from 0 on)
FLAG_CONFIGS = {
    "counterexample": dict(m_range=(2, 12), n_range=(1, 64), series_order=64),
    "theorem1": dict(m_range=(2, 12), n_range=(1, 128), series_order=128),
    "theorem2": dict(m_range=(1, 4), n_range=(1, 130), series_order=130,
                     tolerances={"simultaneous_tail_bound": 0.01}),
    "zalcman_scan": dict(m_range=(1, 5), n_range=(2, 16), series_order=32),
    "inequality_audit": dict(m_range=(1, 1), n_range=(1, 1), series_order=34,
                             grunsky_order=16),
}


def _below(x: float) -> float:
    return float(np.nextafter(x, -math.inf))


def _at_cut(rep, cut) -> float:
    tail_n, tail_sup = np.asarray(rep.summary["tail_n"]), np.asarray(rep.summary["tail_sup"])
    return float(tail_sup[tail_n == int(cut)][0])


def _last_cut_above(rep, bound) -> int:
    """The last cutoff, before every one whose tail supremum is within ``bound``."""
    tail_n, tail_sup = rep.summary["tail_n"], rep.summary["tail_sup"]
    return next(n for n, s in zip(tail_n, tail_sup) if s <= bound) - 1


def _checked(rep, check) -> list:
    return [v for v, c in zip(rep.rows["value"].tolist(), rep.rows["check"]) if c == check]


# For each key: the override that crosses, in the failing direction, the value
# its check observed in the default run ``rep`` of the scenario's FLAG_CONFIGS.
CROSSINGS = {
    # rows_vanish_in_n: the last column's largest deviation <= row_vanish
    "row_vanish": lambda rep, tol: _below(float(np.max(
        rep.rows["deviation"][rep.rows["n"] == rep.rows["n"].max()]))),
    # diagonal_above_e_inv_floor: min over m >= 8 of the diagonal > diagonal_floor
    "diagonal_floor": lambda rep, tol: min(v for m, v in rep.summary["diagonal"].items()
                                           if m >= 8),
    # uniform_tail_bound: the tail supremum at tail_n <= tail_bound
    "tail_n": lambda rep, tol: _last_cut_above(rep, tol["tail_bound"]),
    "tail_bound": lambda rep, tol: _below(_at_cut(rep, tol["tail_n"])),
    # simultaneous_tail_bound: the tail supremum at the cutoff <= the allowance
    "simultaneous_tail_n": lambda rep, tol: _last_cut_above(rep, rep.summary["tail_allowance"]),
    "simultaneous_tail_bound": lambda rep, tol: 0.5 * (
        _at_cut(rep, tol["simultaneous_tail_n"]) - max(rep.summary["bracket_widths"])),
    # the audit's checks, each against its own row values
    "milin_bound": lambda rep, tol: _below(max(_checked(rep, "milin_bound"))),
    "direction_tol": lambda rep, tol: _below(max(_checked(rep, "bazilevich_equality_residual"))),
}

# For each rounding-slack constant of lab: its scenario, the flag it decides and
# the value that crosses, in the failing direction, what the flag's check
# observed in the default run ``rep`` of the scenario's FLAG_CONFIGS.
SLACK_CROSSINGS = {
    # zalcman_ceiling: the worst slack <= ZALCMAN_SLACK
    "ZALCMAN_SLACK": ("zalcman_scan", "zalcman_ceiling",
                      lambda rep: _below(rep.summary["worst_zalcman_slack"])),
    "IDENTITY_TOL": ("inequality_audit", "log_identity_link",
                     lambda rep: _below(max(_checked(rep, "log_identity_link")))),
    "SPLIT_TOL": ("inequality_audit", "tauber_split_identity",
                  lambda rep: _below(max(_checked(rep, "tauber_split_identity")))),
    # grunsky_norm_bound: norm <= 1 + NORM_SLACK; half the excess still rounds above 1
    "NORM_SLACK": ("inequality_audit", "grunsky_norm_bound",
                   lambda rep: 0.5 * (max(_checked(rep, "grunsky_norm_bound")) - 1.0)),
}


class TestScenarioTolerances:
    def test_each_key_sits_in_one_scenario(self):
        assert len(ALL_KEYS) == len(set(ALL_KEYS)) == 8
        assert sorted(CROSSINGS) == ALL_KEYS
        assert not set(RETIRED_KEYS) & set(ALL_KEYS)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario, key", [
        (s, k) for s, row in lab.SCENARIOS.items() for k in ALL_KEYS + sorted(RETIRED_KEYS)
        if k not in row.tolerances and RETIRED_KEYS.get(k) != s])
    def test_key_outside_the_entry_is_rejected(self, scenario, key):
        data = dict(FLAG_CONFIGS[scenario], scenario=scenario)
        data["tolerances"] = dict(data.get("tolerances", {}), **{key: 1.0})
        with pytest.raises(ConfigError, match=rf"unknown tolerance keys for {scenario}: "
                                              rf"\['{key}'\]"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario, key", [
        (s, k) for s, row in lab.SCENARIOS.items() for k in ALL_KEYS if k in row.tolerances])
    def test_key_inside_the_entry_flips_a_flag(self, scenario, key):
        data = dict(FLAG_CONFIGS[scenario], scenario=scenario)
        default = ScenarioConfig.from_dict(data)
        rep = run_scenario(default)
        assert rep.all_ok(), rep.summary["flags"]
        crossing = CROSSINGS[key](rep, default.tolerances)
        tolerances = dict(data.get("tolerances", {}), **{key: crossing})
        crossed = run_scenario(ScenarioConfig.from_dict(dict(data, tolerances=tolerances)))
        assert crossed.summary["flags"] != rep.summary["flags"], (key, crossing)
        assert not crossed.all_ok()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_key_is_refused_where_it_was_read(self, key):
        scenario = RETIRED_KEYS[key]
        data = dict(FLAG_CONFIGS[scenario], scenario=scenario, tolerances={key: 1e-9})
        with pytest.raises(ConfigError, match=rf"unknown tolerance keys for {scenario}: "
                                              rf"\['{key}'\]"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(SLACK_CROSSINGS))
    def test_rounding_slack_flips_its_flag(self, name, monkeypatch):
        # each constant, moved across the value its check observed, turns its
        # flag false, and only that flag
        scenario, flag, crossing = SLACK_CROSSINGS[name]
        cfg = ScenarioConfig.from_dict(dict(FLAG_CONFIGS[scenario], scenario=scenario))
        rep = run_scenario(cfg)
        assert rep.all_ok(), rep.summary["flags"]
        monkeypatch.setattr(lab, name, crossing(rep))
        failed = {k for k, ok in run_scenario(cfg).summary["flags"].items() if not ok}
        assert failed and {k.split(":")[0] for k in failed} == {flag}, (name, failed)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario", [s for s in lab.SCENARIOS if s != "inequality_audit"])
    @pytest.mark.parametrize("order", [8, 31, 33, 128])
    def test_grunsky_order_is_the_audits_alone(self, scenario, order):
        data = dict(FLAG_CONFIGS[scenario], scenario=scenario)
        assert ScenarioConfig.from_dict(dict(data, grunsky_order=32))
        with pytest.raises(ConfigError, match=f"grunsky_order .* {scenario}"):
            ScenarioConfig.from_dict(dict(data, grunsky_order=order))
        audit = dict(FLAG_CONFIGS["inequality_audit"], scenario="inequality_audit")
        assert ScenarioConfig.from_dict(dict(audit, grunsky_order=order)).grunsky_order == order

    @pytest.mark.filterwarnings("error")
    def test_fractional_theorem2_cutoff_rejected(self):
        data = dict(FLAG_CONFIGS["theorem2"], scenario="theorem2",
                    tolerances={"simultaneous_tail_n": 64.5})
        with pytest.raises(ConfigError, match="simultaneous_tail_n must be a whole number"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.filterwarnings("error")
    def test_provenance_echoes_the_scenarios_own_keys(self, tmp_path):
        # the fields each scenario reads besides scenario, series_order and
        # out_dir; the zalcman and audit FLAG_CONFIGS give ranges they do not
        # read, which are not echoed
        own = {"counterexample": ["m_range", "n_range"], "theorem1": ["m_range", "n_range"],
               "theorem2": ["m_range", "n_range"], "zalcman_scan": ["n_range"],
               "inequality_audit": ["grunsky_order"]}
        for scenario, fields in own.items():
            data = dict(FLAG_CONFIGS[scenario], scenario=scenario)
            echoed = run_scenario(ScenarioConfig.from_dict(data)).provenance["config"]
            assert sorted(echoed) == sorted(["scenario", "series_order", "out_dir",
                                             "tolerances", *fields])
            assert echoed["tolerances"] == dict(lab.SCENARIOS[scenario].tolerances,
                                                **data.get("tolerances", {}))
        # overrides are echoed as given
        tolerances = {"tail_n": 4, "tail_bound": 1}
        cfg = ScenarioConfig.from_dict({"scenario": "theorem1", "m_range": [2, 12],
                                        "n_range": [1, 16], "series_order": 16,
                                        "tolerances": tolerances, "out_dir": str(tmp_path)})
        _, json_path = export_report(run_scenario(cfg))
        echoed = json.loads(json_path.read_text())["provenance"]["config"]
        assert echoed == {"scenario": "theorem1", "m_range": [2, 12], "n_range": [1, 16],
                          "series_order": 16, "tolerances": tolerances,
                          "out_dir": str(tmp_path)}
        assert type(echoed["tolerances"]["tail_bound"]) is int


# a config per scenario that loads, from which each load rule of the scenario's
# row moves one setting to the rule's edge; every cutoff sits on every grid used
LOAD_BASE = {
    "counterexample": dict(m_range=[2, 12], n_range=[1, 16], series_order=16),
    "theorem1": dict(m_range=[2, 12], n_range=[1, 16], series_order=16,
                     tolerances={"tail_n": 4}),
    "theorem2": dict(m_range=[1, 12], n_range=[1, 16], series_order=16,
                     tolerances={"simultaneous_tail_n": 4}),
    "zalcman_scan": dict(n_range=[2, 8], series_order=16),
    "inequality_audit": dict(series_order=32),
}
LEFT_OUT = object()  # a setting removed from the config

# the rules of a row's own check, as _load_rules gives them
CHECK_RULES = {
    "counterexample": {"diagonal cell": ({"m_range": [2, 8]}, {"m_range": [2, 7]},
                                         "diagonal cell")},
}


def _load_rules(scenario) -> dict:
    """Each load rule of the scenario's SCENARIOS row: the settings at its edge,
    which load, those just past it (None: nothing to refuse), and the error."""
    row, base = lab.SCENARIOS[scenario], LOAD_BASE[scenario]
    rules = dict(CHECK_RULES.get(scenario, {}))
    for key in ("m_range", "n_range"):
        if key in row.reads:
            rules[f"{key} required"] = ({}, {key: LEFT_OUT}, f"{key} must be a non-empty")
        else:
            rules[f"{key} left out"] = ({key: LEFT_OUT}, None, None)
    if "m_range" in row.reads:
        m_hi = base["m_range"][1]
        rules["m floor"] = ({"m_range": [row.m_floor, m_hi]},
                            {"m_range": [row.m_floor - 1, m_hi]}, "needs m >=")
    if "n_range" in row.reads:
        (n_lo, n_hi), order = base["n_range"], base["series_order"]
        top = (order - 1) // row.n_reach + 1  # the last n whose a_{n_reach (n-1) + 1} it holds
        rules["n floor"] = ({"n_range": [row.n_floor, n_hi]},
                           {"n_range": [row.n_floor - 1, n_hi]}, "needs n_range inside")
        rules["n top"] = ({"n_range": [n_lo, top]}, {"n_range": [n_lo, top + 1]},
                          "needs n_range inside")
        n_at_min = [row.n_floor, (row.min_order - 1) // row.n_reach + 1]
        rules["min order"] = ({"series_order": row.min_order, "n_range": n_at_min},
                              {"series_order": row.min_order - 1, "n_range": n_at_min},
                              "needs series_order >=")
    else:
        rules["min order"] = ({"series_order": row.min_order},
                              {"series_order": row.min_order - 1}, "needs series_order >=")
    if row.cutoff is not None:
        (m_lo, m_hi), (n_lo, n_hi) = base["m_range"], base["n_range"]
        last = tauber.tail_cutoffs(m_hi, n_hi - n_lo + 1) - 1
        for name, edge, past in (("cutoff last", last, last + 1), ("cutoff first", 0, -1)):
            rules[name] = ({"tolerances": {row.cutoff: edge}},
                           {"tolerances": {row.cutoff: past}}, "lies off the tail grid")
        rules["cutoff whole"] = ({"tolerances": {row.cutoff: 4.0}},
                                 {"tolerances": {row.cutoff: 4.5}}, "must be a whole number")
    if "grunsky_order" in row.reads:
        rules["grunsky_order owner"] = ({"grunsky_order": 8}, {"grunsky_order": 7},
                                        "grunsky_order must be at least 8")
    else:
        rules["grunsky_order default"] = ({"grunsky_order": 32}, {"grunsky_order": 33},
                                          f"grunsky_order is not read by {scenario}")
    return rules


def _with(data: dict, changes: dict) -> dict:
    out = dict(data, **changes)
    return {k: v for k, v in out.items() if v is not LEFT_OUT}


class TestScenarioTable:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario, rule", [
        (s, r) for s in lab.SCENARIOS for r in _load_rules(s)])
    def test_load_rule_edges(self, scenario, rule):
        # each rule of the row loads a config at its edge and refuses one just
        # past it, so a row value that stops being read fails here
        edge, past, match = _load_rules(scenario)[rule]
        data = dict(LOAD_BASE[scenario], scenario=scenario)
        assert ScenarioConfig.from_dict(_with(data, edge)).scenario == scenario
        if past is not None:
            with pytest.raises(ConfigError, match=match):
                ScenarioConfig.from_dict(_with(data, past))


# config files that once escaped ScenarioConfig.from_json as a bare Python
# error, and as a traceback from `schlicht-lab run --config`, or loaded a
# setting that no flag of their scenario reads
_ZALCMAN = '"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [2, 8], "series_order": 32'
_COUNTEREXAMPLE = '"scenario": "counterexample", "m_range": [2, 12], "n_range": [1, 12]'
MALFORMED_CONFIGS = {
    "truncated json": ("{" + _ZALCMAN[:40]).encode(),
    "not utf-8": ("{" + _ZALCMAN + ', "out_dir": "r').encode() + b'\xe9"}',  # a latin-1 byte
    "array of pairs": b'[["scenario", "zalcman_scan"], ["m_range", [1, 5]]]',
    "tolerance beyond float range": (
        "{" + _COUNTEREXAMPLE + ', "tolerances": {"row_vanish": 1' + "0" * 400 + "}}").encode(),
    "series_order beyond the ceiling": (
        "{" + _ZALCMAN.replace(": 32", ": 1" + "0" * 30) + "}").encode(),
    "tolerances of other scenarios": (
        "{" + _COUNTEREXAMPLE + ', "tolerances": {"tail_n": 5, "direction_tol": 3}}').encode(),
    "grunsky_order outside the audit": (
        "{" + _COUNTEREXAMPLE + ', "grunsky_order": 9}').encode(),
    "empty object": b"{}",
    "m_range beyond the ceiling": (
        b'{"scenario": "theorem1", "m_range": [1000000, 1000000], "n_range": [1, 8], '
        b'"series_order": 8}'),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
class TestMalformedConfigFile:
    def _path(self, case, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(MALFORMED_CONFIGS[case])
        return path

    def test_from_json_raises_config_error(self, case, tmp_path):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(self._path(case, tmp_path))

    def test_cli_prints_an_error_line(self, case, tmp_path, capsys):
        code, out, err = run_cli(["run", "--config", str(self._path(case, tmp_path))], capsys)
        assert code == 1 and out == ""
        assert err.startswith("Error: "), err
        assert "Traceback" not in err and err.count("\n") == 1


class TestBadInputs:
    """A wrong kind of object raises a SchlichtLabError at the lab's boundary."""

    CASES = {
        # an int names an open file descriptor: from_json(True) once closed stdout
        "from_json of an int": (ConfigError, lambda: ScenarioConfig.from_json(True)),
        "from_json of None": (ConfigError, lambda: ScenarioConfig.from_json(None)),
        "run_scenario of a dict": (InvalidParameter,
                                   lambda: run_scenario({"scenario": "theorem2"})),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_lab_error(self, case):
        error, call = self.CASES[case]
        with pytest.raises(error):
            call()


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

    @pytest.mark.filterwarnings("error")
    def test_builds_no_ledger(self, tmp_path, monkeypatch):
        # the harness reads only the boundary-mean rows, which need neither
        # the series logarithm nor the square root
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(logmilin, "log_data", counting("log_data", logmilin.log_data))
        monkeypatch.setattr(ComplexSeries, "log", counting("log", ComplexSeries.log))
        monkeypatch.setattr(ComplexSeries, "sqrt", counting("sqrt", ComplexSeries.sqrt))
        rep = run_scenario(small_cfg("theorem1", tmp_path, tolerances={"tail_n": 40.0}))
        assert "tauber_harness" in rep.summary
        assert calls == Counter()
        # the counters count; the ledger of a series-only map takes the
        # series logarithm and no square root
        coeffs = make_schlicht("halfplane", order=16).series.coeffs
        logmilin.log_data(make_schlicht("custom", {"coeffs": coeffs}, order=16))
        assert calls == Counter(log_data=1, log=1)


class TestTheorem2:
    def test_small_run_flags(self, tmp_path):
        cfg = ScenarioConfig(scenario="theorem2", m_range=(1, 8),
                             n_range=(1, 64), series_order=64,
                             tolerances={"simultaneous_tail_n": 32.0},
                             out_dir=str(tmp_path))
        rep = run_scenario(cfg)
        ts = np.asarray(rep.summary["tail_sup"])
        assert np.all(np.diff(ts) <= 1e-12)
        assert rep.summary["flags"] == {"simultaneous_tail_bound": True}
        assert max(rep.summary["bracket_widths"]) < 1e-6


class TestWindowErrors:
    """An error inside a grid scenario's window names the window's m range."""

    @staticmethod
    def _raise(*args):
        raise InvalidParameter("bad member")

    @pytest.mark.parametrize("scenario, builder, cutoff", [
        ("counterexample", "_dilations", {}),
        ("theorem1", "_dilations", {"tail_n": 0.0}),
        ("theorem2", "_transforms", {"simultaneous_tail_n": 0.0}),
    ])
    def test_a_failed_window_build_names_the_window(self, scenario, builder, cutoff, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(families, builder, self._raise)
        cfg = small_cfg(scenario, tmp_path, m_range=(2, 9), tolerances=cutoff)
        with pytest.raises(InvalidParameter, match=r"^\(m=2\.\.9\) bad member$") as info:
            run_scenario(cfg)
        assert type(info.value.__cause__) is InvalidParameter
        assert str(info.value.__cause__) == "bad member"

    def test_a_failed_growth_index_names_the_window(self, tmp_path, monkeypatch):
        def hayman_fail(members):
            raise AmbiguousDirection(f"no direction on {len(members)} members")

        monkeypatch.setattr(hayman, "hayman_index", hayman_fail)
        cfg = small_cfg("theorem2", tmp_path, m_range=(3, 7),
                        tolerances={"simultaneous_tail_n": 0.0})
        with pytest.raises(AmbiguousDirection,
                           match=r"^\(m=3\.\.7\) no direction on 5 members$") as info:
            run_scenario(cfg)
        assert type(info.value.__cause__) is AmbiguousDirection


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


    @pytest.mark.filterwarnings("error")
    def test_columns_equal_the_per_cell_functionals(self):
        # the scan's whole-array columns against one coefficient_functionals
        # call per (member, n), bit for bit, at the README's scan config
        cfg = ScenarioConfig(scenario="zalcman_scan", m_range=(1, 5), n_range=(2, 128),
                             series_order=256)
        rep = run_scenario(cfg)
        values, slacks, ratios, best = [], [], [], {}
        for f in families.standard_corpus(256):
            for n in range(2, 129):
                ratio, zal, bound = logmilin.coefficient_functionals(f, n)
                values.append(zal)
                slacks.append(zal - bound)
                ratios.append(ratio)
                if n not in best or zal > best[n][0] + 1e-12:
                    best[n] = (zal, f.kind)
        assert rep.rows["value"].tobytes() == np.array(values).tobytes()
        assert rep.rows["deviation"].tobytes() == np.array(slacks).tobytes()
        assert rep.rows["flag"] == ["ok" if s <= 1e-9 else "fail" for s in slacks]
        assert rep.summary["worst_zalcman_slack"] == max(slacks)
        assert rep.summary["max_bieberbach_ratio"] == max(ratios)
        assert rep.summary["flags"]["extremal_at_koebe_or_rotation"] == all(
            kind in ("koebe", "rotation") for _, kind in best.values())


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
        # the audit_grunsky benchmark's scale; with exact exterior coefficients
        # every section's norm stays inside the 1e-9 lab.NORM_SLACK
        cfg = ScenarioConfig(scenario="inequality_audit", m_range=(1, 1),
                             n_range=(1, 1), series_order=258, grunsky_order=128,
                             out_dir=str(tmp_path))
        flags = run_scenario(cfg).summary["flags"]
        assert {k for k, ok in flags.items() if not ok} == set()

    @pytest.mark.filterwarnings("error")
    def test_provenance_echoes_the_section_order_run(self, monkeypatch):
        # series order 64 keeps a 31 x 31 section faithful, so a grunsky_order
        # of 128 runs 31, and the provenance names the 31
        orders = []
        build = grunsky.grunsky_matrix
        monkeypatch.setattr(grunsky, "grunsky_matrix",
                            lambda g, n: orders.append(n) or build(g, n))
        cfg = ScenarioConfig.from_dict({"scenario": "inequality_audit", "series_order": 64,
                                        "grunsky_order": 128})
        rep = run_scenario(cfg)
        assert cfg.grunsky_order == 128 and set(orders) == {31}
        assert rep.provenance["config"]["grunsky_order"] == 31

    @pytest.mark.filterwarnings("error")
    def test_order_32_compares_sections(self, tmp_path):
        # the smallest order the config accepts: the order-15 section holds
        # the order-8 comparison section, and every flag holds
        cfg = ScenarioConfig(scenario="inequality_audit", m_range=(1, 1),
                             n_range=(1, 1), series_order=32, out_dir=str(tmp_path))
        flags = run_scenario(cfg).summary["flags"]
        assert len([k for k in flags if k.startswith("fullness_defect")]) == 3
        assert {k for k, ok in flags.items() if not ok} == set()

    @pytest.mark.filterwarnings("error")
    def test_prawitz_margin_is_positive_zero(self):
        # no pair fails, so each margin -violations is 0.0 with its sign bit clear
        rows = run_scenario(ScenarioConfig(scenario="inequality_audit",
                                           series_order=32)).rows
        prawitz = [i for i, c in enumerate(rows["check"]) if c == "prawitz_integral"]
        assert len(prawitz) == 5
        for i in prawitz:
            assert rows["flag"][i] == "ok"
            assert math.copysign(1.0, rows["deviation"][i]) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order, grunsky_order",
                             [(32, 32), (66, 32), (130, 32), (258, 32), (258, 128)])
    def test_flag_is_ok_exactly_when_the_margin_is_nonnegative(self, order, grunsky_order):
        # every row's deviation is its check's margin, and its flag and the
        # summary's flag read margin >= 0 and nothing else
        rep = run_scenario(ScenarioConfig(scenario="inequality_audit", series_order=order,
                                          grunsky_order=grunsky_order))
        rows, labels = rep.rows, rep.summary["labels"]
        flags = {}
        for m, margin, flag, check in zip(rows["m"].tolist(), rows["deviation"].tolist(),
                                          rows["flag"], rows["check"]):
            assert (flag == "ok") == (margin >= 0.0), (labels[m - 1], check, margin, flag)
            flags[f"{check}:{labels[m - 1]}"] = flag == "ok"
        assert rep.summary["flags"] == flags

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", ["dilation", "halfplane", "koebe", "koebe_transform",
                                     "rotation"])
    def test_cli_audit_prints_ok_on_the_nonnegative_margins(self, tag, capsys):
        code, out, _ = run_cli(["audit", "--function", tag, "--order", "130"], capsys)
        *lines, last = out.splitlines()
        checks = json.loads(last)["checks"]
        assert len(lines) == len(checks)
        for line in lines:
            flag, name, margin = re.fullmatch(r"(ok  |FAIL) (\w+): value=\S+ margin=(\S+)",
                                              line).groups()
            assert (flag == "ok  ") == (float(margin) >= 0.0) == checks[name]["ok"], line
            assert checks[name]["ok"] == (checks[name]["margin"] >= 0.0)
        assert code == (0 if all(c["ok"] for c in checks.values()) else 1)

    @pytest.mark.filterwarnings("error")
    def test_milin_flag_reads_its_tolerance(self, tmp_path):
        # the flag and the margin compare against the same milin_bound
        cfg = ScenarioConfig(scenario="inequality_audit", m_range=(1, 1), n_range=(1, 1),
                             series_order=64, tolerances={"milin_bound": -0.5},
                             out_dir=str(tmp_path))
        rows = run_scenario(cfg).rows
        milin = [i for i, c in enumerate(rows["check"]) if c == "milin_bound"]
        assert len(milin) == 5
        for i in milin:
            assert (rows["flag"][i] == "ok") == (rows["deviation"][i] >= 0.0)
        assert [rows["flag"][i] for i in milin].count("fail") == 3

    @pytest.mark.filterwarnings("error")
    def test_one_pass_computes_only_what_it_reads(self, tmp_path, monkeypatch):
        # one table and one ledger per member, and no series logarithm in the
        # identity link (log f' comes from each pair): the comparison section
        # is a slice, the increment bound reads the coefficients, and the
        # Prawitz search and the growth indexes come from one batched call each
        calls = Counter()
        in_defect = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def defect_frame(*args, **kwargs):
            in_defect.append(True)
            try:
                return full_mapping_defect(*args, **kwargs)
            finally:
                in_defect.pop()

        def series_log(self):
            if in_defect:
                calls["log_in_defect"] += 1
            return complex_log(self)

        full_mapping_defect, complex_log = grunsky.full_mapping_defect, ComplexSeries.log
        monkeypatch.setattr(grunsky, "grunsky_matrix",
                            counting("grunsky_matrix", grunsky.grunsky_matrix))
        monkeypatch.setattr(logmilin, "log_data", counting("log_data", logmilin.log_data))
        monkeypatch.setattr(hayman, "hayman_index",
                            counting("hayman_index", hayman.hayman_index))
        monkeypatch.setattr(logmilin, "prawitz_check",
                            counting("prawitz_check", logmilin.prawitz_check))
        monkeypatch.setattr(logmilin, "max_modulus",
                            counting("prawitz_search", logmilin.max_modulus))
        monkeypatch.setattr(grunsky, "full_mapping_defect", defect_frame)
        monkeypatch.setattr(ComplexSeries, "log", series_log)
        cfg = ScenarioConfig(scenario="inequality_audit", m_range=(1, 1), n_range=(1, 1),
                             series_order=130, grunsky_order=64, out_dir=str(tmp_path))
        assert run_scenario(cfg).all_ok()
        assert calls == Counter(grunsky_matrix=5, log_data=5, hayman_index=1,
                                prawitz_check=1, prawitz_search=1)
        assert calls["log_in_defect"] == 0

    @pytest.mark.filterwarnings("error")
    def test_batched_estimates_equal_single_member_calls(self, corpus130):
        cfg = ScenarioConfig(scenario="inequality_audit", series_order=130, grunsky_order=32)
        maximal = [f for f in corpus130 if f.maximal_growth]
        assert len(maximal) == 3
        batched = hayman.hayman_index(maximal)
        assert batched == [hayman.hayman_index(f) for f in maximal]
        results = lab.audit_members(corpus130, cfg)
        alphas = {label: alpha for label, alpha, _checks in results}
        for f, est in zip(maximal, batched):
            assert alphas[f.label()] == hayman.hayman_index(f).alpha == est.alpha
        assert alphas["halfplane"] == alphas["dilation(r=0.9)"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_maximal_member_without_a_direction_raises(self, corpus130, monkeypatch):
        # no growth direction is an error, not an audit along theta = 0
        estimate = hayman.hayman_index
        monkeypatch.setattr(hayman, "hayman_index", lambda fs: [
            dataclasses.replace(est, theta=None) for est in estimate(fs)])
        cfg = ScenarioConfig(scenario="inequality_audit", series_order=130)
        with pytest.raises(InvalidParameter, match="theta"):
            lab.audit_members(corpus130, cfg)

    @pytest.mark.filterwarnings("error")
    def test_rotated_koebe_is_audited_as_the_rotation(self):
        # the growth class comes from the pair, not the kind tag: a rotated
        # Koebe map is audited as maximal, with its growth index and the
        # Bazilevich checks, exactly as the rotation kind at the same angle
        cfg = ScenarioConfig(scenario="inequality_audit", series_order=130)
        koebe = make_schlicht("koebe", order=130)
        [(_, alpha, checks)] = lab.audit_members([families.rotated(koebe, 0.5)], cfg)
        [(_, alpha_kind, checks_kind)] = lab.audit_members(
            [make_schlicht("rotation", {"theta": 0.5}, order=130)], cfg)
        assert alpha == alpha_kind > 0.99
        assert checks == checks_kind
        assert all(ok for _, _, _, ok in checks)
        assert "non_full_defect_positive" not in [name for name, _, _, _ in checks]

    @pytest.mark.filterwarnings("error")
    def test_audit_members_needs_an_audit_config(self, corpus130):
        cfg = ScenarioConfig(scenario="zalcman_scan", n_range=(2, 8), series_order=130)
        with pytest.raises(ConfigError, match="inequality_audit config"):
            lab.audit_members(corpus130, cfg)

    @pytest.mark.filterwarnings("error")
    def test_increment_bound_reads_the_ledger_increments(self, corpus130):
        # the audit takes s_n = a_{n+1} - a_n from the coefficients; the
        # ledger's s is the same expression, bit for bit
        for f in corpus130:
            a = f.series.coeffs
            assert np.array_equal(a[1:] - a[:-1], logmilin.log_data(f).s)


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
        assert loaded == json.loads(json.dumps(report_dict(rep)))

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = ScenarioConfig(scenario="zalcman_scan", m_range=(1, 5),
                                 n_range=(2, 16), series_order=64, out_dir="reports")
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
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = {"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [2, 8],
               "series_order": 32, "out_dir": str(tmp_path / "rep")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 0, err
        assert (tmp_path / "rep" / "zalcman_scan.csv").exists()
        assert "zalcman_ceiling" in out

    def test_run_rejects_bad_config_without_files(self, tmp_path, capsys):
        cfg = {"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [8, 2],
               "series_order": 32, "out_dir": str(tmp_path / "rep")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code != 0
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_path(self, kind, tmp_path, capsys):
        # argparse checks no path: the loader refuses it like any bad config
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ConfigError, match="cannot read"):
            ScenarioConfig.from_json(path)
        code, out, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("Error: cannot read ") and err.count("\n") == 1, err

    def test_audit_subcommand(self, capsys):
        code, out, err = run_cli(["audit", "--function", "koebe", "--order", "64"], capsys)
        assert code == 0, err
        assert "milin_bound" in out

    def test_grunsky_subcommand(self, capsys):
        code, out, err = run_cli(["grunsky", "--function", "koebe", "--order", "16",
                                  "--z", "0.5,0.0"], capsys)
        assert code == 0, err
        assert "strong norm" in out

    @pytest.mark.parametrize("tag,order", [
        pytest.param(tag, order, id=tag if order == "32" else f"{tag}-{order}")
        for order in ("32", "64", "128")
        for tag in ("dilation", "halfplane", "koebe", "koebe_transform", "rotation")
    ])
    def test_grunsky_subcommand_every_member(self, tag, order, capsys):
        # full mappings cluster their singular values at 1, where power
        # iteration stalls; the dense norm of an exact section stays within
        # the 1e-9 slack at every order (order-32 cases keep the bare ids)
        code, out, err = run_cli(["grunsky", "--function", tag, "--order", order,
                                  "--z", "0.5,0.0"], capsys)
        assert code == 0, err
        assert "(ok)" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        ["grunsky", "--function", "koebe", "--order", str(10**17)],
        ["grunsky", "--function", "rotation", "--order", str(families.MAX_ORDER)],
        ["audit", "--function", "koebe", "--order", str(10**20)],
        ["audit", "--function", "koebe_transform", "--order", str(families.MAX_ORDER + 1)],
    ], ids=["grunsky-1e17", "grunsky-ceiling", "audit-1e20", "audit-ceiling"])
    def test_orders_past_the_ceiling_print_one_error_line(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("Error: ") and err.count("\n") == 1
        assert f"at most {families.MAX_ORDER}" in err

    def test_grunsky_bad_point(self, capsys):
        code, _, _ = run_cli(["grunsky", "--function", "koebe", "--order", "16",
                              "--z", "oops"], capsys)
        assert code != 0


# tracemalloc's peak of one theorem2 run at the README config (m 2..64, n 1..256,
# order 256): 1.46 MB on Python 3.11.7 and numpy 2.4.6.  The pin leaves 19%
# headroom.  The circle search evaluates an arc of every circle, the last one
# included, about 4,800 cells for the whole window; evaluating every member's
# whole last circle in one broadcast lifted the peak to 3.7 MB.
THEOREM2_RUN_PEAK = 1_750_000


def test_theorem2_run_peak_stays_under_its_pin():
    cfg = ScenarioConfig(scenario="theorem2", m_range=(2, 64), n_range=(1, 256),
                         series_order=256)
    run_scenario(cfg)  # warm: the measured run allocates no first-call state
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < THEOREM2_RUN_PEAK, peak
