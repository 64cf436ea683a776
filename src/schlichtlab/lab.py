"""Scenario runner: orchestrates the modules into named experiments.

Scenarios are hard-coded presets with schedule knobs rather than
arbitrary user series: univalence and fullness are not machine-checkable
for free-form input, so presets keep every reported claim honest.

  counterexample    Koebe dilations r_m = 1 - 1/m: per-row coefficient
                    ratios vanish in n, yet the (m = n) diagonal stays
                    above 1/e -- simultaneous convergence fails when the
                    growth indexes do not converge to the limit's.
  theorem1          half-plane dilations (slow growth): the joint tail of
                    |a_n^(m)|/n collapses to zero.
  theorem2          Koebe transforms w_m = 0.3 e^{i/m} (maximal growth,
                    full-mapping limit): | |a_n^(m)|/n - alpha_m | has a
                    decreasing joint tail, with the growth-index bracket
                    width folded into the tolerance.
  zalcman_scan      coefficient functionals over the corpus against the
                    (n-1)^2 ceiling.
  inequality_audit  every scalar inequality check over the whole corpus.

A ScenarioReport keeps its rows as columns (see COLUMNS): ``m`` and ``n``
are int64 arrays, ``value``, ``alpha_m`` and ``deviation`` float64 arrays,
``flag`` and ``check`` lists of str.  The grid scenarios fill them with
whole-array operations; the scan and the audit append one row at a time.

Reports are deterministic: identical config (including seed) yields
byte-identical CSV/JSON.  CSV rows use fixed 8-decimal formatting under
the header ``scenario,m,n,value,alpha_m,deviation,flag``; JSON mirrors
the full report, provenance included, as
``json.dumps(report.to_dict(), sort_keys=True, indent=2)`` writes it.  Both
writers format whole columns in one pass instead of one record per row.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import errors as errors_mod
from . import families, grunsky, hayman, logmilin, tauber
from .errors import ConfigError, SchlichtLabError

SCENARIOS = ("counterexample", "theorem1", "theorem2", "zalcman_scan", "inequality_audit")

# report columns, in CSV order with the scenario name first and check last
COLUMNS = ("m", "n", "value", "alpha_m", "deviation", "flag", "check")

# the counterexample's diagonal flag reads only the cells (m, m) with m >= this
DIAGONAL_MIN_M = 8

DEFAULT_TOLERANCES = {
    "row_vanish": 0.05,
    "tail_n": 100.0,
    "tail_bound": 0.01,
    "diagonal_floor": 0.36,
    "simultaneous_tail_n": 128.0,
    "simultaneous_tail_bound": 0.05,
    "zalcman_slack": 1e-9,
    "milin_bound": logmilin.MILIN_CONSTANT_BOUND,
    "direction_tol": 5e-3,
    "identity_tol": 1e-8,
    "split_tol": 1e-10,
    "norm_slack": 1e-9,
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    m_range: tuple
    n_range: tuple
    series_order: int = 128
    grunsky_order: int = 32
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "reports"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name, rng in (("m_range", self.m_range), ("n_range", self.n_range)):
            if len(rng) != 2 or int(rng[0]) > int(rng[1]):
                raise ConfigError(f"{name} must be a non-empty [lo, hi] pair")
        object.__setattr__(self, "m_range", (int(self.m_range[0]), int(self.m_range[1])))
        object.__setattr__(self, "n_range", (int(self.n_range[0]), int(self.n_range[1])))
        if self.series_order < 8 or self.grunsky_order < 8:
            raise ConfigError("orders must be at least 8")
        if self.scenario in ("counterexample", "theorem1") and self.m_range[0] < 2:
            raise ConfigError(f"{self.scenario} needs m >= 2 (dilation radius 1 - 1/m)")
        if self.scenario == "theorem2" and self.m_range[0] < 1:
            raise ConfigError("theorem2 needs m >= 1 (transform parameter 0.3 e^{i/m})")
        if self.scenario in ("counterexample", "theorem1", "theorem2"):
            if self.n_range[0] < 1 or self.n_range[1] > self.series_order:
                raise ConfigError("n_range must fit inside the series order")
        if self.scenario == "zalcman_scan":
            if self.n_range[0] < 2 or 2 * self.n_range[1] - 1 > self.series_order:
                raise ConfigError("zalcman_scan needs 2n-1 within the series order")
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(self.tolerances or {})
        object.__setattr__(self, "tolerances", tol)
        self._check_cutoffs_on_grid()

    def _check_cutoffs_on_grid(self):
        """Reject a config whose flag could only read False for lack of grid cells."""
        (m_lo, m_hi), (n_lo, n_hi) = self.m_range, self.n_range
        diagonal_lo = max(m_lo, n_lo, DIAGONAL_MIN_M)
        if self.scenario == "counterexample" and diagonal_lo > min(m_hi, n_hi):
            raise ConfigError(f"counterexample needs a diagonal cell (m, m) with "
                              f"m >= {DIAGONAL_MIN_M} inside both m_range and n_range")
        key = {"theorem1": "tail_n", "theorem2": "simultaneous_tail_n"}.get(self.scenario)
        if key is not None:
            last = max(m_hi, n_hi - n_lo) - 1  # the cutoff grid of tauber.tail_supremum
            cut = int(self.tolerances[key])
            if not 0 <= cut <= last:
                raise ConfigError(f"tolerance {key}={cut} lies off the tail grid 0..{last}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {"scenario", "m_range", "n_range", "series_order",
                 "grunsky_order", "tolerances", "seed", "out_dir"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in data or "m_range" not in data or "n_range" not in data:
            raise ConfigError("config needs scenario, m_range and n_range")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ScenarioReport:
    """A scenario's result; ``rows`` maps each name in COLUMNS to one column.

    ``m`` and ``n`` are int64 arrays, ``value``, ``alpha_m`` and ``deviation``
    float64 arrays, ``flag`` and ``check`` lists of str, all of one length.
    """

    scenario: str
    rows: dict
    summary: dict
    provenance: dict

    def all_ok(self) -> bool:
        return all(self.summary["flags"].values())

    def to_dict(self) -> dict:
        cols = [c.tolist() if isinstance(c, np.ndarray) else list(c)
                for c in (self.rows[k] for k in COLUMNS)]
        return {
            "scenario": self.scenario,
            "rows": [dict(zip(COLUMNS, row)) for row in zip(*cols)],
            "summary": self.summary,
            "provenance": self.provenance,
        }


def _columns(m, n, value, alpha_m, deviation, flag, check) -> dict:
    """Report columns from equally long sequences, typed as ScenarioReport documents."""
    return {"m": np.asarray(m, dtype=np.int64), "n": np.asarray(n, dtype=np.int64),
            "value": np.asarray(value, dtype=np.float64),
            "alpha_m": np.asarray(alpha_m, dtype=np.float64),
            "deviation": np.asarray(deviation, dtype=np.float64),
            "flag": list(flag), "check": list(check)}


def _annotate(exc: SchlichtLabError, m: int, n: Optional[int] = None):
    where = f"(m={m})" if n is None else f"(m={m}, n={n})"
    raise type(exc)(f"{where} {exc}") from exc


def _append_row(cols: dict, m, n, value, alpha_m, deviation, ok, check):
    row = (m, n, float(value), float(alpha_m), float(deviation), "ok" if ok else "fail", check)
    for key, x in zip(COLUMNS, row):
        cols[key].append(x)


def _provenance(cfg: ScenarioConfig) -> dict:
    d = dict(vars(cfg), m_range=list(cfg.m_range), n_range=list(cfg.n_range),
             tolerances=dict(cfg.tolerances))
    return {"config": d, "version": __version__}


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    runner = {
        "counterexample": _run_counterexample,
        "theorem1": _run_theorem1,
        "theorem2": _run_theorem2,
        "zalcman_scan": _run_zalcman,
        "inequality_audit": _run_audit,
    }[cfg.scenario]
    return runner(cfg)


# -- coefficient-ratio scenarios ------------------------------------------


def _ratio_scenario(cfg, build_member, estimate_alpha, flag_fn):
    """Shared grid machinery: value = |a_n^(m)|/n, deviation = |value - alpha_m|."""
    m_lo, m_hi = cfg.m_range
    n_lo, n_hi = cfg.n_range
    ms = list(range(m_lo, m_hi + 1))
    ns = np.arange(n_lo, n_hi + 1)

    def one_member(m):
        try:
            f = build_member(m)
            return estimate_alpha(f), np.abs(f.series.coeffs[ns]) / ns
        except SchlichtLabError as exc:
            _annotate(exc, m)

    computed = [one_member(m) for m in ms]
    alphas = np.array([est[0] for est, _ in computed], dtype=np.float64)
    widths = [est[1] for est, _ in computed]
    ratios = np.array([r for _, r in computed])
    d = np.abs(ratios - alphas[:, None])
    size = d.size
    rows = _columns(np.repeat(ms, len(ns)), np.tile(ns, len(ms)), ratios.ravel(),
                    np.repeat(alphas, len(ns)), d.ravel(), ["ok"] * size,
                    ["coefficient_ratio_deviation"] * size)
    tail_n, tail_sup = tauber.tail_supremum(d, np.asarray(ms))
    summary = {
        "alpha": [float(a) for a in alphas],
        "bracket_widths": [float(w) for w in widths],
        "tail_n": tail_n.tolist(),
        "tail_sup": tail_sup.tolist(),
        "flags": {},
    }
    flag_fn(cfg, np.asarray(ms), ns, d, alphas, np.asarray(widths), summary)
    return rows, summary


def _run_counterexample(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances

    def build(m):
        return families.make_schlicht("dilation", {"r": 1.0 - 1.0 / m}, cfg.series_order)

    def est(_f):
        return 0.0, 0.0  # every dilation of a bounded-coefficient map: index 0

    def flags(cfg, ms, ns, d, alphas, widths, summary):
        fl = summary["flags"]
        n_arr = ns
        diag = {}
        for i, m in enumerate(ms):
            j = np.flatnonzero(n_arr == m)
            if len(j):
                diag[int(m)] = float(d[i, j[0]])
        summary["diagonal"] = diag
        floor = tol["diagonal_floor"]
        big_m = [v for m, v in diag.items() if m >= DIAGONAL_MIN_M]
        fl["diagonal_above_e_inv_floor"] = min(big_m) > floor
        fl["rows_vanish_in_n"] = float(np.max(d[:, -1])) <= tol["row_vanish"]
        fl["corner_m_dominates_near_one"] = float(d[-1, 0]) >= 0.9
        fl["corner_n_dominates_near_zero"] = float(d[0, -1]) <= tol["row_vanish"]

    rows, summary = _ratio_scenario(cfg, build, est, flags)
    return ScenarioReport("counterexample", rows, summary, _provenance(cfg))


def _run_theorem1(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    base = families.make_schlicht("halfplane", order=cfg.series_order)

    def build(m):
        return families.dilated(base, 1.0 - 1.0 / m)

    def est(_f):
        return 0.0, 0.0  # bounded image: slow growth

    def flags(cfg, ms, ns, d, alphas, widths, summary):
        fl = summary["flags"]
        cut = int(tol["tail_n"])
        tail_n = np.asarray(summary["tail_n"])
        tail_sup = np.asarray(summary["tail_sup"])
        fl["uniform_tail_bound"] = float(tail_sup[tail_n == cut][0]) <= tol["tail_bound"]
        fl["tail_sup_non_increasing"] = bool(np.all(np.diff(tail_sup) <= 1e-12))

    rows, summary = _ratio_scenario(cfg, build, est, flags)

    # deeper machinery: the weighted-mean harness over the boundary-mean rows
    ms = np.arange(cfg.m_range[0], cfg.m_range[1] + 1)
    ledgers = [logmilin.log_data(build(int(m))) for m in ms]
    rows_b = np.array([ld.f_coeffs.real for ld in ledgers])
    fam = tauber.DoubleFamily(m_values=ms, coeff_rows=rows_b,
                              alpha=np.zeros(len(ms)))
    harness = tauber.simultaneous_tauber_harness(fam)
    summary["tauber_harness"] = {
        "l_observed": harness.l_observed,
        "uniform_gap": harness.uniform_gap,
        "iii_bounded": harness.iii_bounded,
        "tail_sup_first": float(harness.tail_sup[0]),
        "tail_sup_last": float(harness.tail_sup[-1]),
    }
    summary["flags"]["tauber_hypothesis_iii"] = harness.iii_bounded
    summary["flags"]["abel_uniform_gap_small"] = harness.uniform_gap <= 0.02
    return ScenarioReport("theorem1", rows, summary, _provenance(cfg))


def _run_theorem2(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances

    def build(m):
        w = 0.3 * cmath.exp(1j / m)
        return families.make_schlicht("koebe_transform", {"w": w}, cfg.series_order)

    def est(f):
        h = hayman.hayman_index(f)
        return h.alpha, h.bracket_width

    def flags(cfg, ms, ns, d, alphas, widths, summary):
        fl = summary["flags"]
        tail_n = np.asarray(summary["tail_n"])
        tail_sup = np.asarray(summary["tail_sup"])
        fl["tail_sup_non_increasing"] = bool(np.all(np.diff(tail_sup) <= 1e-12))
        cut = int(tol["simultaneous_tail_n"])
        allowance = tol["simultaneous_tail_bound"] + float(np.max(widths))
        fl["simultaneous_tail_bound"] = float(tail_sup[tail_n == cut][0]) <= allowance
        summary["tail_allowance"] = allowance

    rows, summary = _ratio_scenario(cfg, build, est, flags)
    return ScenarioReport("theorem2", rows, summary, _provenance(cfg))


# -- functional scan and inequality audit ----------------------------------


def _corpus_with_labels(order: int):
    corpus = families.standard_corpus(order)
    return list(enumerate(corpus, start=1)), [f.label() for f in corpus]


def _run_zalcman(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    members, labels = _corpus_with_labels(cfg.series_order)
    n_lo, n_hi = cfg.n_range
    cols = {k: [] for k in COLUMNS}
    worst_slack = -math.inf
    max_ratio = 0.0
    per_n_max = {}
    for m, f in members:
        for n in range(n_lo, n_hi + 1):
            try:
                ratio, zal, bound = logmilin.coefficient_functionals(f, n)
            except SchlichtLabError as exc:
                _annotate(exc, m, n)
            slack = zal - bound
            worst_slack = max(worst_slack, slack)
            max_ratio = max(max_ratio, ratio)
            ok = slack <= tol["zalcman_slack"]
            _append_row(cols, m, n, zal, 0.0, slack, ok, "zalcman_ceiling")
            key = per_n_max.get(n)
            if key is None or zal > key[0] + 1e-12:
                per_n_max[n] = (zal, f.kind)
    extremal_ok = all(kind in ("koebe", "rotation")
                      for _v, kind in per_n_max.values())
    summary = {
        "labels": labels,
        "worst_zalcman_slack": float(worst_slack),
        "max_bieberbach_ratio": float(max_ratio),
        "flags": {
            "zalcman_ceiling": worst_slack <= tol["zalcman_slack"],
            "extremal_at_koebe_or_rotation": extremal_ok,
            "bieberbach_ratio_bound": max_ratio <= 1.0 + 1e-12,
        },
    }
    return ScenarioReport("zalcman_scan", _columns(**cols), summary, _provenance(cfg))


def _audit_member(args):
    m, f, cfg = args
    tol = cfg.tolerances
    order = cfg.series_order
    gN = min(cfg.grunsky_order, (order - 2) // 2)
    ld = logmilin.log_data(f)
    maximal = f.kind in families.MAXIMAL_GROWTH_KINDS
    checks = []  # (check_name, value, alpha, deviation, ok)

    _, max_partial, passes = logmilin.milin_check(ld)
    checks.append(("milin_bound", max_partial,
                   tol["milin_bound"] - max_partial, passes))

    n_lm = min(32, order - 2)
    a_abs, b_sum, rhs = logmilin.lebedev_milin_check(f, ld, n_lm)
    scale = 1e-9 * max(1.0, rhs)
    ok = (a_abs <= b_sum + scale) and (b_sum <= rhs + scale)
    checks.append(("lebedev_milin_chain", rhs - a_abs,
                   min(b_sum - a_abs, rhs - b_sum), ok))

    _, violations = logmilin.prawitz_check(f, (0.3, 0.5, 0.7, 0.9), quad_points=1024)
    checks.append(("prawitz_integral", float(violations), -float(violations),
                   violations == 0))

    g = families.invert_to_sigma(f, order - 2)
    table = grunsky.grunsky_matrix(g, gN)
    try:
        norm = grunsky.strong_grunsky_norm(table)
    except errors_mod.PowerIterationStalled:
        # full-mapping sections cluster their singular values at 1; the
        # iterative route stalls there by design, the dense route does not
        norm = grunsky.grunsky_norm_dense(table)
    checks.append(("grunsky_norm_bound", norm, 1.0 + tol["norm_slack"] - norm,
                   norm <= 1.0 + tol["norm_slack"]))

    defect, identity = grunsky.full_mapping_defect(table, ld, f, 0.5)
    checks.append(("log_identity_link", identity, tol["identity_tol"] - identity,
                   identity <= tol["identity_tol"]))

    if maximal:
        small = grunsky.grunsky_matrix(g, max(8, gN // 2))
        defect_small, _ = grunsky.full_mapping_defect(small, ld, f, 0.5)
        checks.append(("fullness_defect_decreasing", defect,
                       defect_small - defect, defect <= defect_small + 1e-9))
    else:
        checks.append(("non_full_defect_positive", defect, defect - 0.01,
                       defect > 0.01))

    alpha_val = 0.0
    if maximal:
        est = hayman.hayman_index(f)
        alpha_val = est.alpha
        theta = est.theta if est.theta is not None else 0.0
        n_terms = min(128, ld.top_index)
        _, _, gap = logmilin.bazilevich_gap(ld, est.alpha, theta, n_terms)
        checks.append(("bazilevich_nonnegative_gap", gap, gap + tol["direction_tol"],
                       gap >= -tol["direction_tol"]))
        residual = grunsky.bazilevich_equality_residual(ld, est.alpha, theta, n_terms)
        checks.append(("bazilevich_equality_residual", residual,
                       tol["direction_tol"] - residual,
                       residual <= tol["direction_tol"]))
        aligned = families.rotated(f, theta) if abs(theta) > 1e-12 else f
        ld_aligned = logmilin.log_data(aligned)
        s_sq = float(np.max(np.abs(ld_aligned.s) ** 2))
        ceiling = math.exp(2.0 * logmilin.MILIN_CONSTANT_BOUND) / est.alpha
        checks.append(("increment_square_bound", s_sq, ceiling - s_sq,
                       s_sq <= ceiling + 1e-9))

    n_split = min(16, ld.top_index)
    residual = tauber.tauber_decomposition_check(ld, n_split, 1.0 - 1.0 / n_split)
    checks.append(("tauber_split_identity", residual, tol["split_tol"] - residual,
                   residual <= tol["split_tol"]))
    return m, f.label(), alpha_val, checks


def _run_audit(cfg: ScenarioConfig) -> ScenarioReport:
    members, labels = _corpus_with_labels(cfg.series_order)
    results = [_audit_member((m, f, cfg)) for m, f in members]
    cols = {k: [] for k in COLUMNS}
    flags = {}
    for m, label, alpha_val, checks in results:
        for idx, (name, value, margin, ok) in enumerate(checks, start=1):
            _append_row(cols, m, idx, value, alpha_val, margin, ok, name)
            key = f"{name}:{label}"
            flags[key] = bool(ok)
    summary = {"labels": labels, "flags": flags}
    return ScenarioReport("inequality_audit", _columns(**cols), summary, _provenance(cfg))


# -- export -----------------------------------------------------------------

CSV_HEADER = "scenario,m,n,value,alpha_m,deviation,flag"

# one row of the report JSON, keys sorted and indented as json.dumps(indent=2) does
_ROW_JSON = "{\n" + ",\n".join(f'      "{k}": %s' for k in sorted(COLUMNS)) + "\n    }"


def _csv_text(rep: ScenarioReport) -> str:
    c = rep.rows
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    floats = [(c[k] + 0.0).tolist() for k in ("value", "alpha_m", "deviation")]
    lines = ["%s,%d,%d,%.8f,%.8f,%.8f,%s" % row for row in
             zip(repeat(rep.scenario), c["m"].tolist(), c["n"].tolist(), *floats, c["flag"])]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def _json_column(col) -> list:
    """The JSON text of each entry of one report column."""
    if isinstance(col, list):
        text = {s: json.dumps(s) for s in set(col)}
        return [text[s] for s in col]
    if col.dtype.kind == "f" and len(col):
        # one C-encoder call; it spells floats (NaN and Infinity too) as the
        # pure-Python encoder behind indent=2 does, and no float contains ", "
        return json.dumps(col.tolist())[1:-1].split(", ")
    return col.tolist()


def _json_text(rep: ScenarioReport) -> str:
    """The text of ``json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\\n"``."""
    # each top-level value sits one level deep, so its inner lines move two
    # spaces right; JSON strings escape newlines, so every "\n" is layout
    parts = {key: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
             for key, value in (("provenance", rep.provenance), ("scenario", rep.scenario),
                                ("summary", rep.summary))}
    rows = [_ROW_JSON % row for row in zip(*(_json_column(rep.rows[k]) for k in sorted(COLUMNS)))]
    parts["rows"] = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return "{\n  " + ",\n  ".join(f'"{key}": {parts[key]}' for key in sorted(parts)) + "\n}\n"


def export_report(rep: ScenarioReport, fmt: str = "both",
                  out_dir: Optional[str] = None):
    """Write the report as CSV and/or JSON; returns the written paths.

    Output is byte-identical for identical config and seed: CSV uses
    fixed 8-decimal floats, JSON uses sorted keys and full precision.
    """
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown export format {fmt!r}")
    out = Path(out_dir if out_dir is not None else rep.provenance["config"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if fmt in ("csv", "both"):
        path = out / f"{rep.scenario}.csv"
        path.write_text(_csv_text(rep), encoding="utf-8")
        paths.append(path)
    if fmt in ("json", "both"):
        path = out / f"{rep.scenario}.json"
        path.write_text(_json_text(rep), encoding="utf-8")
        paths.append(path)
    return paths
