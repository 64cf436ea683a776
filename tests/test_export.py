"""Byte identity of export_report with the row-at-a-time writers it replaced.

The reference writers below format one row dict at a time, exactly as the
report writers did when a report held one record per (m, n) cell.  The
columnar writers must produce the same bytes for every report.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schlichtlab.lab import COLUMNS, ScenarioConfig, ScenarioReport, export_report, run_scenario


def _fmt(x: float) -> str:
    x = 0.0 if x == 0.0 else float(x)  # normalize -0.0
    return f"{x:.8f}"


def reference_csv(rep: ScenarioReport) -> str:
    lines = ["scenario,m,n,value,alpha_m,deviation,flag"]
    for r in rep.to_dict()["rows"]:
        lines.append(
            f"{rep.scenario},{r['m']},{r['n']},{_fmt(r['value'])},{_fmt(r['alpha_m'])},"
            f"{_fmt(r['deviation'])},{r['flag']}"
        )
    return "\n".join(lines) + "\n"


def reference_json(rep: ScenarioReport) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def assert_matches_reference(rep: ScenarioReport, out_dir):
    csv_path, json_path = export_report(rep, out_dir=str(out_dir))
    assert csv_path.read_bytes() == reference_csv(rep).encode("utf-8")
    assert json_path.read_bytes() == reference_json(rep).encode("utf-8")


def hand_built(values, flags, checks) -> ScenarioReport:
    size = len(values)
    rows = {
        "m": np.arange(size, dtype=np.int64) - 1,
        "n": np.arange(size, dtype=np.int64) * 3,
        "value": np.array(values, dtype=np.float64),
        "alpha_m": np.array(values[::-1], dtype=np.float64),
        "deviation": -np.array(values, dtype=np.float64),
        "flag": list(flags),
        "check": list(checks),
    }
    summary = {"flags": {"edge": True}, "nan": math.nan, "diagonal": {10: 1.5, 9: -0.0}}
    provenance = {"config": {"out_dir": "reports", "m_range": [1, 2]}, "version": "0.1.0"}
    return ScenarioReport("edge_case", rows, summary, provenance)


SMALL = {
    "counterexample": dict(m_range=(2, 12), n_range=(1, 24), series_order=24),
    "theorem1": dict(m_range=(2, 10), n_range=(1, 24), series_order=24,
                     tolerances={"tail_n": 12.0}),
    "theorem2": dict(m_range=(1, 6), n_range=(1, 24), series_order=24,
                     tolerances={"simultaneous_tail_n": 12.0}),
    "zalcman_scan": dict(m_range=(1, 5), n_range=(2, 12), series_order=32),
    "inequality_audit": dict(m_range=(1, 5), n_range=(1, 5), series_order=34,
                             grunsky_order=16),
}


@pytest.mark.parametrize("scenario", sorted(SMALL))
def test_every_scenario_matches_reference(scenario, tmp_path):
    rep = run_scenario(ScenarioConfig(scenario=scenario, **SMALL[scenario]))
    assert set(rep.rows) == set(COLUMNS)
    assert len({len(col) for col in rep.rows.values()}) == 1
    assert_matches_reference(rep, tmp_path)


def test_edge_values_match_reference(tmp_path):
    values = [-0.0, 0.0, math.nan, math.inf, -math.inf, -1e-10, 5e-324, 1e300, -2.5, 0.1]
    checks = ['quote "q"', "Grunsky–Milin ∞", "back\\slash", "tab\there", "ok,comma",
              "zalcman_ceiling", "é", "", "milin_bound", "milin_bound"]
    flags = ["ok", "fail"] * 5
    rep = hand_built(values, flags, checks)
    assert_matches_reference(rep, tmp_path)
    csv_lines = (tmp_path / "edge_case.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[1] == "edge_case,-1,0,0.00000000,0.10000000,0.00000000,ok"
    assert "NaN" in (tmp_path / "edge_case.json").read_text(encoding="utf-8")


def test_empty_report_matches_reference(tmp_path):
    rep = hand_built([], [], [])
    assert_matches_reference(rep, tmp_path)
    assert rep.to_dict()["rows"] == []


@st.composite
def grid_configs(draw):
    scenario = draw(st.sampled_from(["counterexample", "theorem1", "theorem2"]))
    if scenario == "counterexample":
        # the window must hold a diagonal cell (m, m) with m >= 8
        cell = draw(st.integers(8, 20))
        m_lo, m_hi = draw(st.integers(2, cell)), draw(st.integers(cell, 24))
        n_lo, n_hi = draw(st.integers(1, cell)), draw(st.integers(cell, 32))
        tolerances = {}
    else:
        m_lo = draw(st.integers(1 if scenario == "theorem2" else 2, 12))
        m_hi = draw(st.integers(m_lo, m_lo + 8))
        n_lo = draw(st.integers(1, 10))
        n_hi = draw(st.integers(n_lo, 32))
        key = "tail_n" if scenario == "theorem1" else "simultaneous_tail_n"
        last = max(m_hi, n_hi - n_lo) - 1
        tolerances = {key: float(draw(st.integers(0, last)))}
    return ScenarioConfig(scenario=scenario, m_range=(m_lo, m_hi), n_range=(n_lo, n_hi),
                          series_order=max(8, n_hi), tolerances=tolerances)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=grid_configs())
def test_grid_reports_match_reference(cfg, tmp_path):
    assert_matches_reference(run_scenario(cfg), tmp_path)
