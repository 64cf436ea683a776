"""Scenario runner: orchestrates the modules into named experiments.

Scenarios are hard-coded presets with config ranges, orders and
tolerances rather than arbitrary user series: univalence and fullness are
not machine-checkable for free-form input, so presets keep every reported
claim honest.

  counterexample    Koebe dilations r_m = 1 - 1/m: per-row coefficient
                    ratios vanish in n, yet the (m = n) diagonal stays
                    above 1/e -- simultaneous convergence fails when the
                    growth indexes do not converge to the limit's.
  theorem1          half-plane dilations (slow growth): the joint tail of
                    |a_n^(m)|/n collapses to zero.  The weighted-mean
                    harness runs on the members' boundary-mean rows
                    (1-z)^2 f(z)/z, taken without a log_data ledger.
  theorem2          Koebe transforms w_m = 0.3 e^{i/m} (maximal growth,
                    full-mapping limit): | |a_n^(m)|/n - alpha_m | has a
                    decreasing joint tail, with the growth-index bracket
                    width folded into the tolerance.  All members' growth
                    indexes come from one batched hayman_index call.
  zalcman_scan      coefficient functionals over the corpus against the
                    (n-1)^2 ceiling, every member and n in one pass of
                    array arithmetic.
  inequality_audit  every scalar inequality check over the whole corpus.
                    One Grunsky table and one ledger per member; the
                    identity link takes log f' from the member's pair,
                    not from a series logarithm, and the fullness
                    comparison reads a leading section of the table.
                    One batched prawitz_check call searches every
                    member's circles, and one batched hayman_index call
                    gives the maximal members' growth indexes.  It needs
                    series_order >= 32 (AUDIT_MIN_ORDER).

A ScenarioConfig holds only what its scenario's flags read.  The
tolerances come from one table, TOLERANCES[scenario], and each of the
twelve keys sits under the one scenario whose flags read it; a config that
overrides a key outside its scenario's entry, or a scenario other than
inequality_audit that moves grunsky_order off GRUNSKY_ORDER, raises
ConfigError at load.  series_order and grunsky_order run from 8 to
families.MAX_ORDER, and m_range ends at or below it.  The provenance still
echoes every scenario's defaults as one dict, the config's overrides in
place.

The three grid scenarios build one member per m, an error naming its m,
and share the coefficient-ratio grid (rows, deviations and joint tail
suprema); each runner then sets its own flags.

A ScenarioReport keeps its rows as columns (see COLUMNS): ``m`` and ``n``
are int64 arrays, ``value``, ``alpha_m`` and ``deviation`` float64 arrays,
``flag`` and ``check`` lists of str.  The grid scenarios and the scan fill
them with whole-array operations; the audit appends one row at a time.

Reports are deterministic: identical config yields byte-identical CSV/JSON
on one Python and numpy, whose versions the provenance records.  CSV rows
use fixed 8-decimal formatting under the header
``scenario,m,n,value,alpha_m,deviation,flag``; JSON mirrors the full
report, provenance included, as ``json.dumps(..., sort_keys=True,
indent=2)`` writes an object with the keys ``scenario``, ``summary``,
``provenance`` and ``rows``, one dict per row with the keys of COLUMNS.
Both writers stream the rows to disk in blocks of BLOCK_ROWS rows: each
block's column slices are formatted in one pass instead of one record per
row, written, and dropped, so the memory an export holds does not grow with
the row count.  Within a block, a column whose entries are all equal (a
float or int column: equal bits, after the CSV's normalisation of -0.0; a
str column: ==) is spelled once and put into the block's row format as
literal text, so each row formats only the columns that vary there: the
scenario name, ``alpha_m``, ``flag`` and ``check`` mostly repeat over a
grid's rows.  The JSON writer also spells a column only once when another
is bitwise equal to it (``deviation`` is ``value`` whenever every alpha is
0).  Every file of one export is written under a temporary name beside it,
and all are moved into place only once all are complete, so an export cut
short leaves no partial report and no report newer than its sibling.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import families, grunsky, hayman, logmilin, tauber
from .errors import ConfigError, SchlichtLabError

SCENARIOS = ("counterexample", "theorem1", "theorem2", "zalcman_scan", "inequality_audit")

# report columns, in CSV order with the scenario name first and check last
COLUMNS = ("m", "n", "value", "alpha_m", "deviation", "flag", "check")

# the counterexample's diagonal flag reads only the cells (m, m) with m >= this
DIAGONAL_MIN_M = 8

# each scenario's tolerances, the only ones its flags read, with their
# defaults; a config may override only the keys of its own scenario
TOLERANCES = {
    "counterexample": {"row_vanish": 0.05, "diagonal_floor": 0.36},
    "theorem1": {"tail_n": 100.0, "tail_bound": 0.01},
    "theorem2": {"simultaneous_tail_n": 128.0, "simultaneous_tail_bound": 0.05},
    "zalcman_scan": {"zalcman_slack": 1e-9},
    "inequality_audit": {"milin_bound": logmilin.MILIN_CONSTANT_BOUND, "direction_tol": 5e-3,
                         "identity_tol": 1e-8, "split_tol": 1e-10, "norm_slack": 1e-9},
}

# the grid scenarios' tolerance that names a cutoff on the tail grid, so must be whole
CUTOFF_TOLERANCES = {"theorem1": "tail_n", "theorem2": "simultaneous_tail_n"}


# the audit compares its Grunsky section, of order (series_order - 2) // 2,
# against a leading section of order at least 8, which needs order 18; its
# log_identity_link check evaluates that section at z = 0.5, where the
# truncation decays like 0.5^order and first meets identity_tol at order 30
AUDIT_MIN_ORDER = 32

# the audit's default Grunsky table order; no other scenario reads grunsky_order,
# so no other config may move it
GRUNSKY_ORDER = 32


def _finite_number(value) -> bool:
    """True for an int or float, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _config_integer(value, name: str, *bounds) -> int:
    """``families.integer_parameter(value, name, *bounds)``, raising ConfigError."""
    try:
        return families.integer_parameter(value, name, *bounds)
    except SchlichtLabError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    m_range: tuple
    n_range: tuple
    series_order: int = 128
    grunsky_order: int = GRUNSKY_ORDER
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "reports"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        for name in ("m_range", "n_range"):
            rng = getattr(self, name)
            if not isinstance(rng, (list, tuple)) or len(rng) != 2:
                raise ConfigError(f"{name} must be a non-empty [lo, hi] pair")
            lo, hi = (_config_integer(x, name) for x in rng)
            if lo > hi:
                raise ConfigError(f"{name} must be a non-empty [lo, hi] pair")
            object.__setattr__(self, name, (lo, hi))
        if self.m_range[1] > families.MAX_ORDER:
            raise ConfigError(f"m_range must end at or below families.MAX_ORDER "
                              f"({families.MAX_ORDER}), got {self.m_range[1]}")
        for key in ("series_order", "grunsky_order"):
            object.__setattr__(self, key, _config_integer(getattr(self, key), key, 8,
                                                          families.MAX_ORDER))
        if self.scenario != "inequality_audit" and self.grunsky_order != GRUNSKY_ORDER:
            raise ConfigError(f"grunsky_order is read by inequality_audit only, "
                              f"so {self.scenario} keeps {GRUNSKY_ORDER}")
        if self.scenario in ("counterexample", "theorem1") and self.m_range[0] < 2:
            raise ConfigError(f"{self.scenario} needs m >= 2 (dilation radius 1 - 1/m)")
        if self.scenario == "theorem2" and self.m_range[0] < 1:
            raise ConfigError("theorem2 needs m >= 1 (transform parameter 0.3 e^{i/m})")
        if self.scenario in ("counterexample", "theorem1", "theorem2"):
            if self.n_range[0] < 1 or self.n_range[1] > self.series_order:
                raise ConfigError("n_range must fit inside the series order")
        if self.scenario == "inequality_audit" and self.series_order < AUDIT_MIN_ORDER:
            raise ConfigError(f"inequality_audit needs series_order >= {AUDIT_MIN_ORDER}, so "
                              f"that its Grunsky section holds the order-8 comparison section "
                              f"and meets identity_tol at z = 0.5")
        if self.scenario == "zalcman_scan":
            if self.n_range[0] < 2 or 2 * self.n_range[1] - 1 > self.series_order:
                raise ConfigError("zalcman_scan needs 2n-1 within the series order")
        # every scenario's defaults, so the provenance echoes one 12-key dict
        tol = {k: v for entry in TOLERANCES.values() for k, v in entry.items()}
        tol.update(self._checked_tolerances())
        object.__setattr__(self, "tolerances", tol)
        self._check_cutoffs_on_grid()

    def _checked_tolerances(self) -> dict:
        """The tolerance overrides, each a key of this scenario's TOLERANCES
        entry with a finite real value.

        Values are checked, not converted, so the provenance echoes them as given.
        """
        overrides = {} if self.tolerances is None else self.tolerances
        if not isinstance(overrides, dict):
            raise ConfigError("tolerances must map names to numbers")
        entry = TOLERANCES[self.scenario]
        unknown = set(overrides) - set(entry)
        if unknown:
            raise ConfigError(f"unknown tolerance keys for {self.scenario}: "
                              f"{sorted(unknown, key=str)}; it reads {list(entry)}")
        for key, value in overrides.items():
            if not _finite_number(value):
                raise ConfigError(f"tolerance {key} must be a finite number, got {value!r}")
            if key == CUTOFF_TOLERANCES.get(self.scenario) and value != int(value):
                raise ConfigError(f"tolerance {key} must be a whole number, got {value!r}")
        return overrides

    def _check_cutoffs_on_grid(self):
        """Reject a config whose flag could only read False for lack of grid cells."""
        (m_lo, m_hi), (n_lo, n_hi) = self.m_range, self.n_range
        diagonal_lo = max(m_lo, n_lo, DIAGONAL_MIN_M)
        if self.scenario == "counterexample" and diagonal_lo > min(m_hi, n_hi):
            raise ConfigError(f"counterexample needs a diagonal cell (m, m) with "
                              f"m >= {DIAGONAL_MIN_M} inside both m_range and n_range")
        key = CUTOFF_TOLERANCES.get(self.scenario)
        if key is not None:
            last = tauber.tail_cutoffs(m_hi, n_hi - n_lo + 1) - 1
            cut = int(self.tolerances[key])
            if not 0 <= cut <= last:
                raise ConfigError(f"tolerance {key}={cut} lies off the tail grid 0..{last}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be an object of keys, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
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
        """The config in the UTF-8 JSON file ``path``; a file that does not
        decode or parse raises :class:`ConfigError`."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path} is not a UTF-8 JSON file: {exc}") from exc
        return cls.from_dict(data)


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


def _columns(m, n, value, alpha_m, deviation, flag, check) -> dict:
    """Report columns from equally long sequences, typed as ScenarioReport documents."""
    return {"m": np.asarray(m, dtype=np.int64), "n": np.asarray(n, dtype=np.int64),
            "value": np.asarray(value, dtype=np.float64),
            "alpha_m": np.asarray(alpha_m, dtype=np.float64),
            "deviation": np.asarray(deviation, dtype=np.float64),
            "flag": list(flag), "check": list(check)}


def _annotate(exc: SchlichtLabError, m):
    raise type(exc)(f"(m={m}) {exc}") from exc


def _append_row(cols: dict, m, n, value, alpha_m, deviation, ok, check):
    row = (m, n, float(value), float(alpha_m), float(deviation), "ok" if ok else "fail", check)
    for key, x in zip(COLUMNS, row):
        cols[key].append(x)


def _provenance(cfg: ScenarioConfig) -> dict:
    d = dict(vars(cfg), m_range=list(cfg.m_range), n_range=list(cfg.n_range),
             tolerances=dict(cfg.tolerances))
    return {"config": d, "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3], "version": __version__}


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


def _build_members(cfg: ScenarioConfig, build) -> list:
    """``build(m)`` for each m of ``cfg.m_range``; an error names its m."""
    members = []
    for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
        try:
            members.append(build(m))
        except SchlichtLabError as exc:
            _annotate(exc, m)
    return members


def _ratio_grid(cfg: ScenarioConfig, members, alphas, widths):
    """Shared grid machinery: value = |a_n^(m)|/n, deviation = |value - alpha_m|.

    ``members`` holds one member per m of ``cfg.m_range``, ``alphas`` and
    ``widths`` their growth indexes and bracket widths.  Returns ``ms``,
    ``ns``, the deviations ``d`` (one row per m), the report rows and the
    summary, to which the runner adds its flags.
    """
    ms = np.arange(cfg.m_range[0], cfg.m_range[1] + 1)
    ns = np.arange(cfg.n_range[0], cfg.n_range[1] + 1)
    alphas = np.asarray(alphas, dtype=np.float64)
    ratios = np.array([np.abs(f.series.coeffs[ns]) / ns for f in members])
    d = np.abs(ratios - alphas[:, None])
    size = d.size
    rows = _columns(np.repeat(ms, len(ns)), np.tile(ns, len(ms)), ratios.ravel(),
                    np.repeat(alphas, len(ns)), d.ravel(), ["ok"] * size,
                    ["coefficient_ratio_deviation"] * size)
    tail_n, tail_sup = tauber.tail_supremum(d, ms)
    summary = {
        "alpha": [float(a) for a in alphas],
        "bracket_widths": [float(w) for w in widths],
        "tail_n": tail_n.tolist(),
        "tail_sup": tail_sup.tolist(),
    }
    return ms, ns, d, rows, summary


def _run_counterexample(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    members = _build_members(cfg, lambda m: families.make_schlicht(
        "dilation", {"r": 1.0 - 1.0 / m}, cfg.series_order))
    zeros = [0.0] * len(members)  # dilations of bounded-coefficient maps
    ms, ns, d, rows, summary = _ratio_grid(cfg, members, zeros, zeros)
    diag = {}
    for i, m in enumerate(ms.tolist()):
        j = np.flatnonzero(ns == m)
        if len(j):
            diag[m] = float(d[i, j[0]])
    summary["diagonal"] = diag
    big_m = [v for m, v in diag.items() if m >= DIAGONAL_MIN_M]
    summary["flags"] = {
        "diagonal_above_e_inv_floor": min(big_m) > tol["diagonal_floor"],
        "rows_vanish_in_n": float(np.max(d[:, -1])) <= tol["row_vanish"],
        "corner_m_dominates_near_one": float(d[-1, 0]) >= 0.9,
        "corner_n_dominates_near_zero": float(d[0, -1]) <= tol["row_vanish"],
    }
    return ScenarioReport("counterexample", rows, summary, _provenance(cfg))


def _run_theorem1(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    base = families.make_schlicht("halfplane", order=cfg.series_order)
    members = _build_members(cfg, lambda m: families.dilated(base, 1.0 - 1.0 / m))
    zeros = [0.0] * len(members)  # bounded image: slow growth
    ms, _, _, rows, summary = _ratio_grid(cfg, members, zeros, zeros)
    tail_n, tail_sup = np.asarray(summary["tail_n"]), np.asarray(summary["tail_sup"])
    at_cut = float(tail_sup[tail_n == int(tol["tail_n"])][0])

    # deeper machinery: the weighted-mean harness over the boundary-mean rows
    rows_b = np.array([logmilin.boundary_mean_coeffs(f).real for f in members])
    fam = tauber.DoubleFamily(m_values=ms, coeff_rows=rows_b, alpha=np.zeros(len(ms)))
    harness = tauber.simultaneous_tauber_harness(fam)
    summary["tauber_harness"] = {
        "l_observed": harness.l_observed,
        "uniform_gap": harness.uniform_gap,
        "iii_bounded": harness.iii_bounded,
        "tail_sup_first": float(harness.tail_sup[0]),
        "tail_sup_last": float(harness.tail_sup[-1]),
    }
    summary["flags"] = {
        "uniform_tail_bound": at_cut <= tol["tail_bound"],
        "tail_sup_non_increasing": bool(np.all(np.diff(tail_sup) <= 1e-12)),
        "tauber_hypothesis_iii": harness.iii_bounded,
        "abel_uniform_gap_small": harness.uniform_gap <= 0.02,
    }
    return ScenarioReport("theorem1", rows, summary, _provenance(cfg))


def _run_theorem2(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    members = _build_members(cfg, lambda m: families.make_schlicht(
        "koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, cfg.series_order))
    try:
        ests = hayman.hayman_index(members)  # one batched search over every circle
    except SchlichtLabError as exc:
        _annotate(exc, f"{cfg.m_range[0]}..{cfg.m_range[1]}")
    widths = [h.bracket_width for h in ests]
    _, _, _, rows, summary = _ratio_grid(cfg, members, [h.alpha for h in ests], widths)
    tail_n, tail_sup = np.asarray(summary["tail_n"]), np.asarray(summary["tail_sup"])
    at_cut = float(tail_sup[tail_n == int(tol["simultaneous_tail_n"])][0])
    allowance = tol["simultaneous_tail_bound"] + max(widths)
    summary["tail_allowance"] = allowance
    summary["flags"] = {
        "tail_sup_non_increasing": bool(np.all(np.diff(tail_sup) <= 1e-12)),
        "simultaneous_tail_bound": at_cut <= allowance,
    }
    return ScenarioReport("theorem2", rows, summary, _provenance(cfg))


# -- functional scan and inequality audit ----------------------------------


def _corpus_with_labels(order: int):
    corpus = families.standard_corpus(order)
    return list(enumerate(corpus, start=1)), [f.label() for f in corpus]


def _run_zalcman(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    members, labels = _corpus_with_labels(cfg.series_order)
    ns = np.arange(cfg.n_range[0], cfg.n_range[1] + 1)
    a = np.array([f.series.coeffs for _, f in members])
    # |a_n^2 - a_{2n-1}| and |a_n| / n, one row per member, spelled in real
    # arithmetic as numpy's complex scalars do it (a^2 as a*a, abs as hypot),
    # so the values match logmilin.coefficient_functionals bit for bit
    x, y = a[:, ns].real, a[:, ns].imag
    b = a[:, 2 * ns - 1]
    zal = np.hypot(x * x - y * y - b.real, x * y + y * x - b.imag)
    ratio = np.hypot(x, y) / ns
    slack = zal - ((ns - 1) ** 2).astype(np.float64)
    # the extremal member at each n: the first, unless a later one exceeds it by 1e-12
    best, kind = zal[0].copy(), np.zeros(len(ns), dtype=int)
    for i in range(1, len(members)):
        wins = zal[i] > best + 1e-12
        best[wins], kind[wins] = zal[i, wins], i
    extremal_ok = all(members[i][1].kind in ("koebe", "rotation") for i in set(kind.tolist()))
    worst_slack, max_ratio = float(np.max(slack)), max(0.0, float(np.max(ratio)))
    size = slack.size
    rows = _columns(np.repeat([m for m, _ in members], len(ns)), np.tile(ns, len(members)),
                    zal.ravel(), np.zeros(size), slack.ravel(),
                    np.where(slack.ravel() <= tol["zalcman_slack"], "ok", "fail").tolist(),
                    ["zalcman_ceiling"] * size)
    summary = {
        "labels": labels,
        "worst_zalcman_slack": worst_slack,
        "max_bieberbach_ratio": max_ratio,
        "flags": {
            "zalcman_ceiling": worst_slack <= tol["zalcman_slack"],
            "extremal_at_koebe_or_rotation": extremal_ok,
            "bieberbach_ratio_bound": max_ratio <= 1.0 + 1e-12,
        },
    }
    return ScenarioReport("zalcman_scan", rows, summary, _provenance(cfg))


def _audit_member(m, f, cfg: ScenarioConfig, est, violations: int):
    """The audit rows of one member; ``est`` is its growth-index estimate
    (None unless the member is of maximal growth), ``violations`` its
    Prawitz violation count."""
    tol = cfg.tolerances
    order = cfg.series_order
    gN = min(cfg.grunsky_order, (order - 2) // 2)
    ld = logmilin.log_data(f)
    checks = []  # (check_name, value, alpha, deviation, ok)

    _, max_partial, _ = logmilin.milin_check(ld)
    checks.append(("milin_bound", max_partial, tol["milin_bound"] - max_partial,
                   max_partial <= tol["milin_bound"]))

    n_lm = min(32, order - 2)
    a_abs, b_sum, rhs = logmilin.lebedev_milin_check(f, ld, n_lm)
    scale = 1e-9 * max(1.0, rhs)
    ok = (a_abs <= b_sum + scale) and (b_sum <= rhs + scale)
    checks.append(("lebedev_milin_chain", rhs - a_abs,
                   min(b_sum - a_abs, rhs - b_sum), ok))

    checks.append(("prawitz_integral", float(violations), -float(violations),
                   violations == 0))

    g = families.invert_to_sigma(f, order - 2)
    table = grunsky.grunsky_matrix(g, gN)
    norm = grunsky.strong_grunsky_norm(table)
    checks.append(("grunsky_norm_bound", norm, 1.0 + tol["norm_slack"] - norm,
                   norm <= 1.0 + tol["norm_slack"]))

    defect, identity = grunsky.full_mapping_defect(table, ld, f, 0.5)
    checks.append(("log_identity_link", identity, tol["identity_tol"] - identity,
                   identity <= tol["identity_tol"]))

    alpha_val = 0.0
    if est is None:
        checks.append(("non_full_defect_positive", defect, defect - 0.01,
                       defect > 0.01))
    else:
        defect_small = grunsky.fullness_defect(table.section(max(8, gN // 2)), 0.5)
        checks.append(("fullness_defect_decreasing", defect,
                       defect_small - defect, defect <= defect_small + 1e-9))
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
        a = aligned.series.coeffs
        s_sq = float(np.max(np.abs(a[1:] - a[:-1]) ** 2))  # the ledger's s_n = a_{n+1} - a_n
        ceiling = math.exp(2.0 * logmilin.MILIN_CONSTANT_BOUND) / est.alpha
        checks.append(("increment_square_bound", s_sq, ceiling - s_sq,
                       s_sq <= ceiling + 1e-9))

    n_split = min(16, ld.top_index)
    residual = tauber.tauber_decomposition_check(ld, n_split, 1.0 - 1.0 / n_split)
    checks.append(("tauber_split_identity", residual, tol["split_tol"] - residual,
                   residual <= tol["split_tol"]))
    return m, f.label(), alpha_val, checks


def _audit_members(members, cfg: ScenarioConfig) -> list:
    """``(m, label, alpha, checks)`` for each ``(m, f)`` in ``members``.

    One batched :func:`logmilin.prawitz_check` call covers every member, and
    the members of maximal growth get their growth indexes from one batched
    :func:`hayman.hayman_index` call.
    """
    prawitz = logmilin.prawitz_check([f for _, f in members], (0.3, 0.5, 0.7, 0.9))
    maximal = [f for _, f in members if f.kind in families.MAXIMAL_GROWTH_KINDS]
    ests = iter(hayman.hayman_index(maximal) if maximal else [])
    return [_audit_member(m, f, cfg,
                          next(ests) if f.kind in families.MAXIMAL_GROWTH_KINDS else None,
                          violations)
            for (m, f), (_, violations) in zip(members, prawitz)]


def _run_audit(cfg: ScenarioConfig) -> ScenarioReport:
    members, labels = _corpus_with_labels(cfg.series_order)
    cols = {k: [] for k in COLUMNS}
    flags = {}
    for m, label, alpha_val, checks in _audit_members(members, cfg):
        for idx, (name, value, margin, ok) in enumerate(checks, start=1):
            _append_row(cols, m, idx, value, alpha_val, margin, ok, name)
            key = f"{name}:{label}"
            flags[key] = bool(ok)
    summary = {"labels": labels, "flags": flags}
    return ScenarioReport("inequality_audit", _columns(**cols), summary, _provenance(cfg))


# -- export -----------------------------------------------------------------

CSV_HEADER = "scenario,m,n,value,alpha_m,deviation,flag"

# a CSV row, one %s slot per field, and the spec that formats each field
_ROW_CSV = ",".join(["%s"] * 7) + "\n"
_CSV_SPECS = ("%s", "%d", "%d", "%.8f", "%.8f", "%.8f", "%s")

# one row of the report JSON, keys sorted and indented as json.dumps(indent=2) does
_ROW_JSON = "{\n" + ",\n".join(f'      "{k}": %s' for k in sorted(COLUMNS)) + "\n    }"
_JSON_SPECS = ("%s",) * len(COLUMNS)

# the writers format and write this many rows at a time, so the memory an
# export holds does not grow with the report
BLOCK_ROWS = 2048


def _row_blocks(rows: dict):
    """The report columns ``rows`` cut into consecutive blocks of BLOCK_ROWS rows
    (the last one shorter), each a dict of column slices."""
    for lo in range(0, len(rows["m"]), BLOCK_ROWS):
        yield {k: col[lo : lo + BLOCK_ROWS] for k, col in rows.items()}


def _constant(col) -> bool:
    """True when every entry of the block column ``col`` equals its first: a
    list by ==, an array by its bits (so -0.0 is not 0.0, and NaN is NaN only
    with the same payload)."""
    if isinstance(col, list):
        return col.count(col[0]) == len(col)
    bits = col.view(f"u{col.itemsize}")
    return bool((bits == bits[0]).all())


def _format_block(layout: str, specs, cells, size: int) -> list:
    """The text of each of the ``size`` rows of one block.

    ``layout`` is a row with one ``%s`` slot per field and no other ``%``,
    ``specs`` the format spec of each field.  ``cells`` holds each field's
    entries over the block, a list, or its text, a str, when the field is
    constant over the block.  A text fills its slot as literal text, every
    ``%`` doubled, so each row formats only the fields that vary.
    """
    fmt = layout % tuple(cell.replace("%", "%%") if isinstance(cell, str) else spec
                         for spec, cell in zip(specs, cells))
    varying = [cell for cell in cells if not isinstance(cell, str)]
    if not varying:
        return [fmt % ()] * size
    return [fmt % row for row in zip(*varying)]


def _write_csv(rep: ScenarioReport, fh):
    fh.write(CSV_HEADER + "\n")
    for c in _row_blocks(rep.rows):
        # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
        floats = [c[k] + 0.0 for k in ("value", "alpha_m", "deviation")]
        cells = [rep.scenario]
        for spec, col in zip(_CSV_SPECS[1:], [c["m"], c["n"], *floats, c["flag"]]):
            if _constant(col):
                cells.append(spec % (col[0],))
            else:
                cells.append(col if isinstance(col, list) else col.tolist())
        fh.write("".join(_format_block(_ROW_CSV, _CSV_SPECS, cells, len(c["m"]))))


def _json_column(col, spelled: dict) -> list:
    """The JSON text of each entry of one report column.

    ``spelled`` maps the (dtype, bytes) of each array column already spelled
    to its text, which a bitwise equal column reuses (deviation is value when
    every alpha is 0); bits, not ==, tell -0.0 from 0.0 and NaN from NaN.
    """
    if isinstance(col, list):
        text = {s: json.dumps(s) for s in set(col)}
        return [text[s] for s in col]
    bits = (col.dtype.str, col.tobytes())
    if bits not in spelled:
        # one C-encoder call; it spells floats (NaN and Infinity too) as the
        # pure-Python encoder behind indent=2 does, and no float contains ", "
        spelled[bits] = (json.dumps(col.tolist())[1:-1].split(", ")
                         if col.dtype.kind == "f" and len(col) else col.tolist())
    return spelled[bits]


def _write_json(rep: ScenarioReport, fh):
    """Write ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, where
    ``report`` is the dict of ``rep``'s scenario, summary and provenance with
    ``rows`` as a list of one dict per row (keys COLUMNS).

    The top-level keys come in sorted order, ``rows`` one block at a time.
    Within a block, a column whose entries all have the same bits (a list:
    all compare equal) is spelled once, as literal text of the block's row
    format; a column spelled bitwise equal to another reuses its text.
    """
    def part(value) -> str:
        # each top-level value sits one level deep, so its inner lines move two
        # spaces right; JSON strings escape newlines, so every "\n" is layout
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")

    fh.write('{\n  "provenance": ' + part(rep.provenance) + ',\n  "rows": [')
    sep = "\n    "
    for c in _row_blocks(rep.rows):
        spelled = {}
        cells = [json.dumps(col[0] if isinstance(col, list) else col[0].item())
                 if _constant(col) else _json_column(col, spelled)
                 for col in (c[k] for k in sorted(COLUMNS))]
        fh.write(sep + ",\n    ".join(_format_block(_ROW_JSON, _JSON_SPECS, cells,
                                                     len(c["m"]))))
        sep = ",\n    "
    fh.write(("\n  ]" if len(rep.rows["m"]) else "]") + ',\n  "scenario": '
             + part(rep.scenario) + ',\n  "summary": ' + part(rep.summary) + "\n}\n")


def export_report(rep: ScenarioReport, fmt: str = "both",
                  out_dir: Optional[str] = None):
    """Write the report as CSV and/or JSON; returns the written paths.

    Output is byte-identical for identical config: CSV uses fixed
    8-decimal floats, JSON uses sorted keys and full precision.  Each file
    is opened once and its rows written BLOCK_ROWS at a time, so the memory
    held does not grow with the report; a column constant over a block is
    spelled once there, as literal text of the block's row format, with the
    same bytes as row-by-row formatting gives.  Every file goes under a
    temporary name in the output directory, and the files are moved onto
    their report names (``<scenario>.csv`` and ``.json``) only once all are
    complete: an error mid-write removes the temporaries and leaves every
    earlier report there as it was.
    """
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown export format {fmt!r}")
    out = Path(out_dir if out_dir is not None else rep.provenance["config"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    writers = {out / f"{rep.scenario}.{ext}": write
               for ext, write in (("csv", _write_csv), ("json", _write_json))
               if fmt in (ext, "both")}
    tmps = {path: path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in writers}
    try:
        for path, write in writers.items():
            with open(tmps[path], "w", encoding="utf-8") as fh:
                write(rep, fh)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)  # a no-op once replaced
    return list(writers)
