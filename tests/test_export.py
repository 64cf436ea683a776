"""Byte identity of export_report with the row-at-a-time writers it replaced.

The reference writers below format one row dict at a time, exactly as the
report writers did when a report held one record per (m, n) cell.  The
block writers must produce the same bytes for every report, whatever the
row count's place relative to the block size, and must leave no partial
file under a report's name.
"""

import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schlichtlab import lab
from schlichtlab.errors import SchlichtLabError
from schlichtlab.lab import (
    BLOCK_ROWS,
    COLUMNS,
    ScenarioConfig,
    ScenarioReport,
    export_report,
    run_scenario,
)

from conftest import report_dict
from test_report_digests import report_set


def _fmt(x: float) -> str:
    x = 0.0 if x == 0.0 else float(x)  # normalize -0.0
    return f"{x:.8f}"


def reference_csv(rep: ScenarioReport) -> str:
    lines = ["scenario,m,n,value,alpha_m,deviation,flag"]
    for r in report_dict(rep)["rows"]:
        lines.append(
            f"{rep.scenario},{r['m']},{r['n']},{_fmt(r['value'])},{_fmt(r['alpha_m'])},"
            f"{_fmt(r['deviation'])},{r['flag']}"
        )
    return "\n".join(lines) + "\n"


def reference_json(rep: ScenarioReport) -> str:
    return json.dumps(report_dict(rep), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.filterwarnings("error")
def test_equal_but_not_bitwise_equal_columns_match_reference(tmp_path):
    # value and deviation compare equal under == yet differ in their bits, so
    # each keeps its own spelling; alpha_m is bitwise value and reuses its text
    value = np.array([0.0, -0.0, 2.5, -0.0])
    rep = hand_built([0.0] * 4, ["ok"] * 4, ["c"] * 4)
    rep.rows.update(value=value, alpha_m=value.copy(), deviation=np.abs(value))
    assert np.array_equal(rep.rows["value"], rep.rows["deviation"])
    assert_matches_reference(rep, tmp_path)
    rows = json.loads((tmp_path / "edge_case.json").read_text(encoding="utf-8"))["rows"]
    assert [math.copysign(1.0, r["value"]) for r in rows] == [1.0, -1.0, 1.0, -1.0]
    assert [math.copysign(1.0, r["deviation"]) for r in rows] == [1.0] * 4


@pytest.mark.filterwarnings("error")
def test_nan_columns_match_reference(tmp_path):
    nan = np.full(4, math.nan)
    rep = hand_built([0.0] * 4, ["fail"] * 4, ["c"] * 4)
    rep.rows.update(value=nan, alpha_m=-nan, deviation=nan.copy())
    assert_matches_reference(rep, tmp_path)


def test_empty_report_matches_reference(tmp_path):
    rep = hand_built([], [], [])
    assert_matches_reference(rep, tmp_path)
    assert report_dict(rep)["rows"] == []


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


B = BLOCK_ROWS


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_row_counts_around_the_block_size_match_reference(size, tmp_path):
    values = np.random.default_rng(size).standard_normal(size).tolist()
    flags = ["ok" if i % 3 else "fail" for i in range(size)]
    checks = [f"check_{i % 5}" for i in range(size)]
    assert_matches_reference(hand_built(values, flags, checks), tmp_path)


@pytest.mark.filterwarnings("error")
def test_signed_zero_and_nan_across_a_block_boundary_match_reference(tmp_path):
    size = 2 * B + 1
    value = np.linspace(-1.0, 1.0, size)
    value[[B - 2, B + 1]] = math.nan
    value[[B - 1, B + 2]] = -0.0
    rep = hand_built([0.0] * size, ["ok"] * size, ["c"] * size)
    rep.rows.update(value=value, alpha_m=value[::-1].copy(), deviation=np.abs(value))
    assert_matches_reference(rep, tmp_path)
    rows = json.loads((tmp_path / "edge_case.json").read_text(encoding="utf-8"))["rows"]
    assert [math.copysign(1.0, rows[i]["value"]) for i in (B - 1, B + 2)] == [-1.0, -1.0]
    assert all(math.isnan(rows[i]["value"]) for i in (B - 2, B + 1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("equal_block", [0, 1])
def test_column_equal_to_value_in_one_block_only_matches_reference(equal_block, tmp_path):
    # deviation is bitwise value in one block and differs from it in the other,
    # so one block reuses value's text and the other spells its own
    size = 2 * B
    value = np.random.default_rng(7).standard_normal(size)
    deviation = value + 1.0
    block = slice(equal_block * B, (equal_block + 1) * B)
    deviation[block] = value[block]
    rep = hand_built([0.0] * size, ["ok"] * size, ["c"] * size)
    rep.rows.update(value=value, alpha_m=np.zeros(size), deviation=deviation)
    assert_matches_reference(rep, tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("constant_block", [0, 1])
@pytest.mark.parametrize("column", ["flag", "check", "alpha_m"])
def test_column_constant_in_one_block_only_matches_reference(column, constant_block, tmp_path):
    # the constant block spells the column once in its row format, the other
    # formats it row by row
    size = 2 * B
    rng = np.random.default_rng(11)
    rep = hand_built(rng.standard_normal(size).tolist(),
                     ["ok" if i % 3 else "fail" for i in range(size)],
                     [f"check_{i % 5}" for i in range(size)])
    block = slice(constant_block * B, (constant_block + 1) * B)
    if column == "alpha_m":
        rep.rows["alpha_m"][block] = 0.25
    else:
        rep.rows[column][block] = [rep.rows[column][block.start]] * B
    assert_matches_reference(rep, tmp_path)


@pytest.mark.filterwarnings("error")
def test_constant_text_with_percent_signs_matches_reference(tmp_path):
    # constant text goes into a % format, so each of its % must print as given
    size = B + 2
    rep = dataclasses.replace(hand_built([0.5] * size, ["ok%"] * size,
                                         ["100% of %(x)s %d %%"] * B + ["5%s", "5%s"]),
                              scenario="edge%s_%d%%")
    assert_matches_reference(rep, tmp_path)
    line = (tmp_path / "edge%s_%d%%.csv").read_text(encoding="utf-8").splitlines()[1]
    assert line == "edge%s_%d%%,-1,0,0.50000000,0.50000000,-0.50000000,ok%"


@pytest.mark.filterwarnings("error")
def test_block_of_constant_columns_matches_reference(tmp_path):
    # the first block has every column constant, m and n included; the second
    # varies; the last holds one row
    size = 2 * B + 1
    values = np.random.default_rng(5).standard_normal(size)
    values[:B] = 1.5
    flags = ["ok"] * B + ["ok" if i % 3 else "fail" for i in range(B + 1)]
    rep = hand_built(values.tolist(), flags, ["c"] * size)
    rep.rows["m"][:B] = 7
    rep.rows["n"][:B] = 9
    rep.rows["deviation"][:B] = -0.0
    assert_matches_reference(rep, tmp_path)
    assert len((tmp_path / "edge_case.csv").read_text(encoding="utf-8").splitlines()) == size + 1


_NAN_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fill", [-0.0, _NAN_PAYLOAD, -math.inf], ids=["neg_zero", "nan", "inf"])
def test_constant_special_value_columns_match_reference(fill, tmp_path):
    # value is constant; alpha_m holds the same value with its sign bit flipped
    # in the second block only; deviation mixes NaN payloads or signed zeros
    size = B + 3
    value = np.full(size, fill)
    alpha = value.copy()
    alpha[B:] = -alpha[B:]
    deviation = value.copy()
    deviation[1::2] = np.abs(fill) if not math.isnan(fill) else math.nan
    rep = hand_built([0.0] * size, ["ok"] * size, ["c"] * size)
    rep.rows.update(value=value, alpha_m=alpha, deviation=deviation)
    assert_matches_reference(rep, tmp_path)


_PRINTABLE_FLOATS = [0.0, -0.0, math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 5e-324, 1e300,
                     -2.5, 0.1, 1e-9]
_TEXTS = ["ok", "fail", "50%", "%s", "%%d", "%(x)s", 'q"', "é", ""]


@st.composite
def runs(draw, values, size):
    """``size`` entries drawn as runs of one repeated value from ``values``."""
    out = []
    while len(out) < size:
        out += [draw(values)] * draw(st.integers(1, 12))
    return out[:size]


@st.composite
def run_reports(draw):
    """A report whose every column is made of random runs of repeated values."""
    size = draw(st.integers(1, 40))
    floats = st.sampled_from(_PRINTABLE_FLOATS)
    ints = st.integers(-3, 3)
    rows = {
        "m": np.array(draw(runs(ints, size)), dtype=np.int64),
        "n": np.array(draw(runs(ints, size)), dtype=np.int64),
        "value": np.array(draw(runs(floats, size))),
        "alpha_m": np.array(draw(runs(floats, size))),
        "deviation": np.array(draw(runs(floats, size))),
        "flag": draw(runs(st.sampled_from(_TEXTS), size)),
        "check": draw(runs(st.sampled_from(_TEXTS), size)),
    }
    rep = hand_built([], [], [])
    return dataclasses.replace(rep, scenario=draw(st.sampled_from(["edge_case", "run%s"])),
                               rows=rows)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rep=run_reports(), block=st.integers(1, 8))
def test_runs_of_repeated_values_match_reference(rep, block, tmp_path):
    # small blocks put many runs across block boundaries; the writers read
    # BLOCK_ROWS at call time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "BLOCK_ROWS", block)
        assert_matches_reference(rep, tmp_path)


@st.composite
def long_runs(draw, values, size):
    """``size`` entries as runs of 1 to BLOCK_ROWS + 1 repeats of a value from
    ``values``, so that runs cross block edges."""
    out = []
    while len(out) < size:
        out += [draw(values)] * draw(st.one_of(st.integers(1, 4), st.integers(1, B + 1)))
    return out[:size]


@st.composite
def long_run_reports(draw):
    """A report of up to three blocks, each column made of long and short runs."""
    size = draw(st.integers(1, 2 * B + 2))
    floats = st.sampled_from(_PRINTABLE_FLOATS)
    rows = {
        "m": np.array(draw(long_runs(st.integers(-3, 3), size)), dtype=np.int64),
        "n": np.array(draw(long_runs(st.integers(0, 20_000), size)), dtype=np.int64),
        "value": np.array(draw(long_runs(floats, size))),
        "alpha_m": np.array(draw(long_runs(floats, size))),
        "deviation": np.array(draw(long_runs(floats, size))),
        "flag": draw(long_runs(st.sampled_from(_TEXTS), size)),
        "check": draw(long_runs(st.sampled_from(_TEXTS), size)),
    }
    return dataclasses.replace(hand_built([], [], []), rows=rows)


@pytest.mark.filterwarnings("error")
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(rep=long_run_reports())
def test_runs_across_block_edges_match_reference(rep, tmp_path):
    assert_matches_reference(rep, tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("equal_blocks", [(0,), (1,), (0, 2), (1, 2)])
def test_column_equal_to_value_in_some_blocks_only_matches_reference(equal_blocks, tmp_path):
    # value runs in fours; deviation is bitwise value in the listed blocks and
    # differs from it by a sign bit or a last bit in the others
    size = 3 * B - 5
    value = np.repeat(np.random.default_rng(3).standard_normal(-(-size // 4)), 4)[:size]
    deviation = np.where(np.arange(size) % 2, -value, np.nextafter(value, np.inf))
    for block in equal_blocks:
        deviation[block * B : (block + 1) * B] = value[block * B : (block + 1) * B]
    rep = hand_built([0.0] * size, ["ok"] * size, ["c"] * size)
    rep.rows.update(value=value, alpha_m=np.repeat([0.5, -0.0], [B + 3, size - B - 3]),
                    deviation=deviation)
    assert_matches_reference(rep, tmp_path)


@pytest.mark.filterwarnings("error")
def test_constant_flag_next_to_a_mixed_one_matches_reference(tmp_path):
    # flag is constant and check mixed in the first block, the other way round
    # in the second, and both constant, with different texts, in the third
    size = 2 * B + 7
    flags = ["ok"] * B + ["ok" if i % 3 else "fail" for i in range(B)] + ["fail"] * 7
    checks = [f"check_{i % 5}" for i in range(B)] + ["milin_bound"] * B + ["c%"] * 7
    rep = hand_built(np.linspace(-1.0, 1.0, size).tolist(), flags, checks)
    assert_matches_reference(rep, tmp_path)


_SLOW_HEADS = [
    1 / 512,  # an exact tie of '%.8f': x * 10^8 = 195312.5
    -3 / 512,
    math.nextafter(0.5e-8, 1.0), math.nextafter(2.5e-8, 0.0),  # next to a tie
    1e4, -12345.678, 1e300,  # |x| >= 1e4
    math.nan, _NAN_PAYLOAD, -math.nan, math.inf,
    0.0, -0.0,  # one CSV text after + 0.0, two JSON texts
    5e-324, 2.0 ** -600, 0.1,
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [1, 2, 7, B - 1, B + 1])
def test_runs_with_slow_path_heads_match_reference(run, tmp_path):
    # every run's head goes to Python's format or json's; the runs of -0.0
    # next to 0.0 are two runs in the JSON and one text in the CSV
    heads = np.array(_SLOW_HEADS * (3 if run < 8 else 1))  # long runs: the heads once
    order = np.random.default_rng(run).permutation(len(heads))
    value = np.repeat(heads, run)
    size = len(value)
    rep = hand_built([0.0] * size, ["ok"] * size, ["c"] * size)
    rep.rows.update(value=value, alpha_m=np.repeat(heads[order], run),
                    deviation=np.repeat(heads[::-1].copy(), run))
    rep.rows["n"] = np.repeat(np.arange(len(heads)) * 9_999, run)  # ints off the table too
    assert_matches_reference(rep, tmp_path)


def _export_peak(rep: ScenarioReport, out_dir) -> int:
    """tracemalloc's peak, in bytes, while ``rep`` is exported as CSV and JSON."""
    export_report(rep, out_dir=str(out_dir))  # warm: the measured call overwrites
    tracemalloc.start()
    try:
        export_report(rep, out_dir=str(out_dir))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_memory_does_not_grow_with_the_row_count(tmp_path):
    peaks = {}
    for m_hi in (16, 64):  # 4,096 and 16,384 rows
        rep = run_scenario(ScenarioConfig(scenario="theorem2", m_range=(1, m_hi),
                                          n_range=(1, 256), series_order=256))
        peaks[m_hi] = _export_peak(rep, tmp_path / str(m_hi))
    assert peaks[64] < 1.5 * peaks[16], peaks


class _Unprintable:
    """A flag no writer can spell: str() raises, and json.dumps refuses it."""

    def __str__(self):
        raise RuntimeError("unprintable flag")


@pytest.mark.parametrize("fmt, error", [("csv", RuntimeError), ("json", TypeError)])
@pytest.mark.parametrize("earlier", [False, True])
def test_failure_in_a_later_block_leaves_no_partial_report(fmt, error, earlier, tmp_path):
    size = 2 * B + 1
    path = tmp_path / f"edge_case.{fmt}"
    if earlier:
        export_report(hand_built([0.5] * size, ["ok"] * size, ["c"] * size), fmt=fmt,
                      out_dir=str(tmp_path))
        before = path.read_bytes()
    flags = ["ok"] * size
    flags[B + 1] = _Unprintable()  # the first block formats and writes cleanly
    with pytest.raises(error):
        export_report(hand_built([0.25] * size, flags, ["c"] * size), fmt=fmt,
                      out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == ([path] if earlier else [])
    if earlier:
        assert path.read_bytes() == before


@pytest.mark.parametrize("fmt, column, bad, error", [
    ("csv", "flag", _Unprintable(), RuntimeError),
    ("json", "flag", _Unprintable(), TypeError),
    ("both", "check", object(), TypeError),
])
def test_unprintable_entry_constant_over_its_block_raises(fmt, column, bad, error, tmp_path):
    # the second block spells its one entry once, as literal text, and that
    # must fail as a row-by-row spelling does and leave the earlier reports
    size = 2 * B + 1
    export_report(hand_built([0.5] * size, ["ok"] * size, ["c"] * size), fmt=fmt,
                  out_dir=str(tmp_path))
    paths = sorted(tmp_path.iterdir())
    before = [p.read_bytes() for p in paths]
    rep = hand_built([0.25] * size, ["ok"] * size, ["c"] * size)
    rep.rows[column][B : 2 * B] = [bad] * B
    with pytest.raises(error):
        export_report(rep, fmt=fmt, out_dir=str(tmp_path))
    assert sorted(tmp_path.iterdir()) == paths  # no *.tmp left
    assert [p.read_bytes() for p in paths] == before


def test_failed_json_leaves_both_earlier_reports(tmp_path):
    # the check column is JSON only: its CSV writes cleanly, so a CSV moved into
    # place before the JSON failed would stand beside the earlier JSON
    size = 2 * B + 1
    export_report(hand_built([0.5] * size, ["ok"] * size, ["c"] * size), fmt="both",
                  out_dir=str(tmp_path))
    paths = [tmp_path / "edge_case.csv", tmp_path / "edge_case.json"]
    before = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    checks = ["c"] * size
    checks[B] = object()  # row 2,049: the first row of the second block
    with pytest.raises(TypeError):
        export_report(hand_built([0.25] * size, ["ok"] * size, checks), fmt="both",
                      out_dir=str(tmp_path))
    assert sorted(tmp_path.iterdir()) == paths  # no *.tmp left
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == before


# -- the CSV's number kernel against Python's own format ----------------------


def _float_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _steps(x: float, steps: int) -> float:
    """``x`` moved ``steps`` floats up (or down, when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_STEPS = st.integers(-3, 3)
adversarial_floats = st.one_of(
    # exact ties: x * 10^8 is an odd multiple of 1/2
    st.integers(-512 * 10 ** 4 - 9, 512 * 10 ** 4 + 9).map(lambda k: k / 512),
    # floats next to a tie (k + 1/2) / 10^8, where x * 1e8 may round onto it
    st.builds(lambda k, s: _steps((k + 0.5) / 1e8, s), st.integers(0, 10 ** 12), _STEPS),
    # carries into the next integer digit, up to 10^4
    st.builds(lambda j, s, neg: (-1) ** neg * _steps(10 ** j - 5e-9, s),
              st.integers(0, 4), _STEPS, st.booleans()),
    st.builds(lambda s: _steps(1e4, s), st.integers(-40, 40)),
    st.floats(9990.0, 10010.0),
    # negatives that round to zero, subnormals and signed zeros
    st.floats(-5e-9, 0.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf]),
    # NaN of any payload and sign
    st.builds(lambda p, neg: _float_bits((neg << 63) | 0x7FF0000000000000 | p),
              st.integers(1, 2 ** 52 - 1), st.integers(0, 1)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(adversarial_floats, min_size=1, max_size=20))
def test_float_text_is_percent_8f(values):
    col = np.array(values, dtype=np.float64)
    assert lab._spell(col).tolist() == [("%.8f" % x).encode() for x in values]


_INT64 = np.iinfo(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([-1, 0, 1, 9, 10, 9999, 10 ** 4, int(_INT64.min), int(_INT64.max)]),
    st.integers(-20, 10 ** 4 + 20), st.integers(int(_INT64.min), int(_INT64.max))),
    min_size=1, max_size=20))
def test_int_text_is_percent_d(values):
    col = np.array(values, dtype=np.int64)
    assert lab._spell(col).tolist() == [("%d" % v).encode() for v in values]


def test_every_table_entry_is_percent_d_and_8f():
    ints = np.arange(10 ** 4, dtype=np.int64)
    assert lab._spell(ints).tolist() == [b"%d" % v for v in range(10 ** 4)]
    fractions = ints / 1e4 + ints / 1e8  # 0.vvvvvvvv: v in both 4-digit groups
    assert lab._spell(fractions).tolist() == [("%.8f" % x).encode() for x in fractions.tolist()]


_AWKWARD_TEXTS = ["ok\x00", "o\x00k", "\x00", "\x00\x00", "50%", "%s%%", "é∞ö", "", "ok"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", _AWKWARD_TEXTS)
def test_awkward_flags_match_reference(text, tmp_path):
    # the flag constant over the first block, mixed with others in the second
    size = B + 4
    flags = [text] * B + [text, "ok", "é∞ö", text]
    assert_matches_reference(hand_built([0.5] * size, flags, ["c"] * size), tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", _AWKWARD_TEXTS)
def test_awkward_scenario_names_match_reference(text):
    # a NUL cannot stand in a file name, so the CSV is written to memory
    rep = dataclasses.replace(hand_built([0.5, -1e-12], ["ok", text], ["c", "c"]),
                              scenario=text)
    out = io.BytesIO()
    lab._write_csv(rep, out)
    assert out.getvalue() == reference_csv(rep).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "both"])
def test_lone_surrogate_flag_raises_and_leaves_nothing(fmt, tmp_path):
    rep = hand_built([0.5] * 3, ["ok", "\ud800", "ok"], ["c"] * 3)
    with pytest.raises(UnicodeEncodeError):
        export_report(rep, fmt=fmt, out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


class TestBadInputs:
    """Bad export arguments raise a SchlichtLabError before any file is made."""

    CASES = {
        "out_dir int": {"out_dir": 5},
        "out_dir list": {"out_dir": ["reports"]},
        "fmt array": {"fmt": np.array([1.0, 2.0])},
        "fmt None": {"fmt": None},
        "report None": {"rep": None},
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_lab_error_and_writes_nothing(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where the report's own out_dir would go
        with pytest.raises(SchlichtLabError):
            export_report(**{"rep": hand_built([0.5], ["ok"], ["c"]), **self.CASES[case]})
        assert list(tmp_path.iterdir()) == []

    def test_a_path_is_an_out_dir(self, tmp_path):
        (path,) = export_report(hand_built([0.5], ["ok"], ["c"]), fmt="csv",
                                out_dir=tmp_path / "out")
        assert path == tmp_path / "out" / "edge_case.csv" and path.is_file()


# -- the JSON's float speller against json.dumps -------------------------------


@st.composite
def decimal_ties(draw):
    """An odd multiple of 2^-s with 17 or 18 significant digits, the last a 5:
    its 16- or 17-digit rounding is an exact tie."""
    digits = draw(st.sampled_from([17, 18]))
    s = draw(st.integers(digits - 16, 16))
    lo, hi = 10 ** (digits - 1 - s) * 2 ** s, min(10 ** (digits - s), 2 ** (53 - s)) * 2 ** s
    return (draw(st.integers(lo, hi - 1)) | 1) / 2 ** s


json_floats = st.one_of(
    # random bit patterns: subnormals, NaN payloads, +-inf and +-0.0 among them
    st.integers(0, 2 ** 64 - 1).map(_float_bits),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, _NAN_PAYLOAD, 5e-324,
                     -2.2250738585072014e-308, 1.7976931348623157e308]),
    # powers of 2 and of 10 and their neighbours
    st.builds(lambda e, s: _steps(2.0 ** e, s), st.integers(-1074, 1023), _STEPS),
    st.builds(lambda e, s: _steps(float(f"1e{e}"), s), st.integers(-323, 308), _STEPS),
    # the layout switches at 1e16, 1e-4 and 1e-5
    st.builds(lambda x, s, neg: (-1) ** neg * _steps(x, s),
              st.sampled_from([1e16, 1e-4, 1e-5]), st.integers(-60, 60), st.booleans()),
    st.floats(9e15, 2e16), st.floats(5e-6, 2e-4),
    decimal_ties(),
    # values with 1 to 17 significant digits
    st.builds(lambda k, e: float(f"{k}e{e}"),
              st.integers(1, 17).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1)),
              st.integers(-340, 300)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=600, deadline=None)
@given(st.lists(json_floats, min_size=1, max_size=30))
def test_json_float_text_is_json_dumps(values):
    col = np.array(values, dtype=np.float64)
    assert lab._json_float(col).tolist() == [json.dumps(v).encode() for v in values]


def _near_17_digit_ties(rng, size: int) -> list:
    """Floats x in 1e-7 .. 1e-5 with x * 10^k (10^16 <= x * 10^k < 10^17) a
    few units of 2^-52 .. 2^-48 off a half-integer: near ties of the
    17-digit rounding that are not ties.  With x = m * 2^q and s = -(q + k),
    x * 10^k = m * 5^k / 2^s, so m = (2^(s-1) + delta) / 5^k mod 2^s."""
    out = []
    while len(out) < size:
        e = int(rng.integers(-7, -5))
        s, delta = int(rng.integers(48, 53)), int(rng.choice([-2, -1, 1, 2]))
        k, q = 16 - e, e - 16 - s
        base = (2 ** (s - 1) + delta) * pow(5 ** k, -1, 2 ** s) % 2 ** s
        m = base + 2 ** s * int(rng.integers(-(-(2 ** 52 - base) // 2 ** s),
                                             (2 ** 53 - 1 - base) // 2 ** s, endpoint=True))
        x = math.ldexp(m, q)
        if 10.0 ** e <= x < 10.0 ** (e + 1):
            out.append(x)
    return out


@pytest.mark.filterwarnings("error")
def test_json_float_text_is_json_dumps_in_bulk():
    # many draws of each kind: [0,1)^3, log-uniform over the table's range and
    # beyond, random bit patterns, and near ties of the 17-digit rounding
    rng = np.random.default_rng(20)
    size = 20_000
    col = np.concatenate([rng.random(size) ** 3,
                          10.0 ** rng.uniform(-260, 260, size) * rng.choice([-1.0, 1.0], size),
                          rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64),
                          _near_17_digit_ties(rng, 2_000)])
    assert lab._json_float(col).tolist() == [json.dumps(v).encode() for v in col.tolist()]


def _float_columns(rep: ScenarioReport) -> dict:
    """The report's float columns and its summary's lists of floats."""
    cols = {k: rep.rows[k] for k in ("value", "alpha_m", "deviation")}
    cols.update((f"summary:{k}", np.array(v)) for k, v in rep.summary.items()
                if isinstance(v, list) and v and all(type(x) is float for x in v))
    return cols


@pytest.fixture(scope="module")
def digest_reports():
    """The five scenarios at their digest config (the README's)."""
    return [run_scenario(ScenarioConfig.from_dict(dict(data, out_dir="reports")))
            for data in report_set()["readme"]]


def test_digest_reports_read_back_bit_for_bit(digest_reports, tmp_path):
    # an oracle independent of the writers: json.loads returns every float
    # column bit for bit, and no float is spelled longer than repr spells it
    for rep in digest_reports:
        (path,) = export_report(rep, fmt="json", out_dir=str(tmp_path))
        texts = []
        loaded = json.loads(path.read_bytes(),
                            parse_float=lambda s: texts.append(s) or float(s))
        assert all(len(s) <= len(repr(float(s))) for s in texts)
        read = {k: [r[k] for r in loaded["rows"]] for k in ("value", "alpha_m", "deviation")}
        read.update((f"summary:{k}", v) for k, v in loaded["summary"].items())
        for key, col in _float_columns(rep).items():
            got = np.array(read[key], dtype=np.float64)
            assert np.array_equal(np.isnan(got), np.isnan(col)), (rep.scenario, key)
            same = ~np.isnan(col)
            assert np.array_equal(got[same].view(np.uint64), col[same].view(np.uint64)), key


def _named_fallback(x: float) -> bool:
    """True when x is of a class _shortest_digits names for the fallback:
    non-finite, zero, a power-of-two mantissa, |x| outside 10^_E_LO ..
    10^_E_HI, or a near tie, checked here in exact rational arithmetic."""
    a = abs(x)
    if not math.isfinite(x) or a == 0.0 or math.frexp(a)[0] == 0.5:
        return True
    exact = Fraction(a)
    if not Fraction(10) ** lab._E_LO <= exact < Fraction(10) ** lab._E_HI:
        return True
    e = math.floor(math.log10(a))
    e += (exact >= Fraction(10) ** (e + 1)) - (exact < Fraction(10) ** e)
    y = exact * Fraction(10) ** (16 - e)
    h = Fraction(2) ** (math.frexp(a)[1] - 54) * Fraction(10) ** (16 - e)
    near = Fraction(1, 2 ** 38)
    if abs(abs(y - round(y)) - Fraction(1, 2)) <= near:  # the 17-digit rounding
        return True
    for unit in (100, 10):
        low = y // unit * unit
        if abs(y - low - Fraction(unit, 2)) <= near:  # between two candidates
            return True
        if any(abs(abs(m - y) - h) <= near for m in (low, low + unit)):  # on the boundary
            return True
    return False


def test_digest_reports_fall_back_only_where_named(digest_reports):
    # a later change that sends ordinary values through Python fails here
    for rep in digest_reports:
        for key, col in _float_columns(rep).items():
            fast = lab._shortest_digits(col)[0]
            odd = [x for x in col[~fast].tolist() if not _named_fallback(x)]
            assert not odd, (rep.scenario, key, odd[:5])
