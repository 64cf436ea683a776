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
                    (1-z)^2 f(z)/z, the second differences of the window's
                    block (logmilin._times_square, which
                    boundary_mean_coeffs takes for one member), exact but
                    at k = 1.  They are handed over complex, so the
                    harness's own check decides that they are real.
  theorem2          Koebe transforms w_m = 0.3 e^{i/m} (maximal growth,
                    full-mapping limit): | |a_n^(m)|/n - alpha_m | has a
                    decreasing joint tail, with the growth-index bracket
                    width folded into the tolerance.  All members' growth
                    indexes come from one batched hayman_index call.
  zalcman_scan      coefficient functionals over the corpus against the
                    (n-1)^2 ceiling: one logmilin.coefficient_functionals
                    call per member takes every n of the range at once.
  inequality_audit  every scalar inequality check over the whole corpus.
                    One Grunsky table and one ledger per member; the
                    ledger's gamma_k = (beta^k - rho^k/2)/k and the
                    identity link's log f' come from the member's pair,
                    so the audit takes no series logarithm, and the
                    fullness comparison reads a leading section of the
                    table.
                    One batched prawitz_check call searches every
                    member's circles, and one batched hayman_index call
                    gives the maximal members' growth indexes
                    (audit_members, which the CLI also calls).  Each check
                    is one (name, value, margin): value is what it
                    measures, margin its bound, with every allowance
                    inside it, minus value, written as the row's
                    deviation.  Its flag is ok exactly when margin >= 0,
                    decided in audit_members for every check alike.

One table, SCENARIOS, holds each scenario's rules as a Scenario row.
ScenarioConfig checks a config against its scenario's row only, raising
ConfigError, and run_scenario calls the row's runner.  The provenance
echoes the config's own fields and tolerances, overrides as given.

The three grid scenarios build their m window at once, one coefficient
block with a row per m, an error naming the window: theorem2 takes a
member per row (families._transforms), for the growth-index search, and
counterexample and theorem1 the block alone (families._dilations).  They
share the coefficient-ratio grid (rows, deviations and joint tail
suprema), read off the block in one operation; each runner then sets its
own flags.

A ScenarioReport keeps its rows as columns (see COLUMNS): ``m`` and ``n``
are int64 arrays, ``value``, ``alpha_m`` and ``deviation`` float64 arrays,
``flag`` and ``check`` lists of str.  The grid scenarios and the scan fill
them with whole-array operations; the audit builds them from its rows.

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
the row count.  The CSV writer spells each number column of a block in
numpy (see _spell): an 8-decimal float whose digits the product x * 1e8
fixes beyond doubt, and an int in 0 .. 9999, is read off a table of
4-digit texts, and only the rest (NaN, infinities, |x| >= 1e4, near or
exact ties) goes through Python's ``'%.8f'`` or ``'%d'``.  Each distinct
scenario name and flag is spelled once, with its separator.  The JSON
writer does the same with its own speller (see _json_float): a float's
shortest round-trip digits, those of its repr, come from a double-double
product with a table of powers of ten wherever they are decided beyond a
margin, and only the rest (non-finite values, zeros, powers of two, |x|
outside 1e-128 .. 1e128, near ties) goes through json's own float text.
Both build a block's rows through one helper (see _block_rows) with the
same column rules: a column whose entries are all equal (a float or int
column: equal bits; a str column: ==) is spelled once, into the literal
text between the fields that vary (``alpha_m``, ``flag`` and ``check``
mostly repeat over a grid's rows); a column bitwise equal to an earlier one
reuses its text (``deviation`` is ``value`` whenever every alpha is 0); and
each run of bitwise-equal neighbours in a number column is spelled once
(``m``, and theorem2's ``alpha_m``, hold one run per m).  np.strings.add
then joins the fields of every row at once, left to right.  The runs rule
and one speller call for the run heads of all columns alike stay for the
export time they save, measured in _block_rows's docstring.  The JSON's
provenance, scenario and summary are written by json.dumps itself.  Both
files are written as bytes.  Every file of one export is written under a
temporary name beside it, and all are moved into place only once all are
complete, so an export cut short leaves no partial report and no report
newer than its sibling.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from . import families, grunsky, hayman, logmilin, tauber
from .errors import ConfigError, SchlichtLabError
from .series import MAX_ORDER, finite_parameter, integer_parameter, require_instance

# report columns, in CSV order with the scenario name first and check last
COLUMNS = ("m", "n", "value", "alpha_m", "deviation", "flag", "check")


@dataclass(frozen=True)
class Scenario:
    """A row of SCENARIOS: a scenario's config rules and its runner ``run``.

    ``reads``: which of m_range, n_range and grunsky_order it reads; a range
    read is required, and grunsky_order keeps 32 unless read.  ``tolerances``:
    its keys and defaults; ``cutoff``: the one that is whole, on the tail
    grid.  Each m >= ``m_floor`` and n >= ``n_floor`` reads
    ``a_{n_reach (n-1) + 1}``, held by ``series_order`` >= ``min_order``.
    ``check``: any other rule.
    """

    reads: tuple
    tolerances: dict
    run: Callable
    cutoff: Optional[str] = None
    m_floor: int = 1
    n_floor: int = 1
    n_reach: int = 1
    min_order: int = 8
    check: Callable = lambda cfg: None


def _config_value(check, value, name: str, *args):
    """``check(value, name, *args)``, a check of :mod:`~schlichtlab.series`,
    raising ConfigError instead of its error."""
    try:
        return check(value, name, *args)
    except SchlichtLabError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's settings, checked at load against its SCENARIOS row."""

    scenario: str
    m_range: tuple = ()
    n_range: tuple = ()
    series_order: int = 128
    grunsky_order: int = 32
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "reports"

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        row = SCENARIOS[self.scenario]
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        for name in ("m_range", "n_range"):
            rng = getattr(self, name)
            if isinstance(rng, tuple) and not rng and name not in row.reads:
                continue  # a range the scenario does not read may be left out
            if not isinstance(rng, (list, tuple)) or len(rng) != 2:
                raise ConfigError(f"{name} must be a non-empty [lo, hi] pair")
            lo, hi = (_config_value(integer_parameter, x, name) for x in rng)
            if lo > hi:
                raise ConfigError(f"{name} must be a non-empty [lo, hi] pair")
            object.__setattr__(self, name, (lo, hi))
        if self.m_range and self.m_range[1] > MAX_ORDER:
            raise ConfigError(f"m_range must end at or below families.MAX_ORDER "
                              f"({MAX_ORDER}), got {self.m_range[1]}")
        for key, floor in (("series_order", None), ("grunsky_order", 8)):
            object.__setattr__(self, key, _config_value(integer_parameter, getattr(self, key),
                                                        key, floor, MAX_ORDER))
        if self.series_order < row.min_order:
            raise ConfigError(f"{self.scenario} needs series_order >= {row.min_order}")
        if "grunsky_order" not in row.reads and self.grunsky_order != 32:
            raise ConfigError(f"grunsky_order is not read by {self.scenario}, so it keeps 32")
        if "m_range" in row.reads and self.m_range[0] < row.m_floor:
            raise ConfigError(f"{self.scenario} needs m >= {row.m_floor}")
        top = (self.series_order - 1) // row.n_reach + 1
        if "n_range" in row.reads and not (row.n_floor <= self.n_range[0]
                                           and self.n_range[1] <= top):
            raise ConfigError(f"{self.scenario} needs n_range inside [{row.n_floor}, {top}] "
                              f"at series_order {self.series_order}")
        object.__setattr__(self, "tolerances", dict(row.tolerances, **self._overrides(row)))
        row.check(self)
        if row.cutoff is not None:
            cut = self.tolerances[row.cutoff]
            if cut != int(cut):
                raise ConfigError(f"tolerance {row.cutoff} must be a whole number, "
                                  f"got {cut!r}")
            (_, m_hi), (n_lo, n_hi) = self.m_range, self.n_range
            last = tauber.tail_cutoffs(m_hi, n_hi - n_lo + 1) - 1
            if not 0 <= cut <= last:
                raise ConfigError(f"tolerance {row.cutoff}={int(cut)} lies off the tail grid "
                                  f"0..{last}")

    def _overrides(self, row: Scenario) -> dict:
        """The tolerance overrides: keys of ``row.tolerances`` whose values are
        JSON numbers (an int or a float, which json.dumps writes into the
        provenance) and finite (series.finite_parameter); checked, not
        converted, so the provenance echoes them as given."""
        overrides = self.tolerances
        if not isinstance(overrides, dict):
            raise ConfigError("tolerances must map names to numbers")
        unknown = set(overrides) - set(row.tolerances)
        if unknown:
            raise ConfigError(f"unknown tolerance keys for {self.scenario}: "
                              f"{sorted(unknown, key=str)}; it reads {list(row.tolerances)}")
        for key, value in overrides.items():
            if not isinstance(value, (int, float)):
                raise ConfigError(f"tolerance {key} must be a JSON number, got {value!r}")
            _config_value(finite_parameter, value, f"tolerance {key}")
        return overrides

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be an object of keys, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        """The config in the UTF-8 JSON file ``path``; a path that is not a
        string or path object (an int would name an open file descriptor), a
        path that cannot be read (missing, a directory) and a file that does
        not decode or parse raise :class:`ConfigError`."""
        if not isinstance(path, (str, bytes, os.PathLike)):
            raise ConfigError(f"a config path must be a string or a path, got {path!r:.60}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
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


def _provenance(cfg: ScenarioConfig) -> dict:
    """The config's own fields (ranges as lists) and the versions that ran it."""
    own = ("scenario", "series_order", "out_dir", *SCENARIOS[cfg.scenario].reads)
    config = {k: list(getattr(cfg, k)) if k.endswith("_range") else getattr(cfg, k)
              for k in own}
    config["tolerances"] = dict(cfg.tolerances)
    return {"config": config, "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3], "version": __version__}


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    require_instance(cfg, ScenarioConfig, "run_scenario")
    return SCENARIOS[cfg.scenario].run(cfg)


# -- coefficient-ratio scenarios ------------------------------------------


def _window(cfg: ScenarioConfig, build):
    """``build(ms)``, ms the m of ``cfg.m_range``: one coefficient block with
    a row per m, and its members where ``build`` makes them; an error names
    the window."""
    ms = range(cfg.m_range[0], cfg.m_range[1] + 1)
    try:
        return build(ms)
    except SchlichtLabError as exc:
        _annotate(exc, f"{ms[0]}..{ms[-1]}")


def _dilation_window(cfg: ScenarioConfig, kind: str) -> np.ndarray:
    """The checked, read-only coefficient block of the ``kind`` map's
    dilations by r_m = 1 - 1/m, one row per m; no member is built."""
    base = families.make_schlicht(kind, order=cfg.series_order)
    return _window(cfg, lambda ms: families._dilations(base, [1.0 - 1.0 / m for m in ms]))


def _ratio_grid(cfg: ScenarioConfig, block, alphas, widths):
    """Shared grid machinery: value = |a_n^(m)|/n, deviation = |value - alpha_m|.

    ``block`` holds the coefficients of one member per m of ``cfg.m_range``,
    one row each, so the values are one array operation; ``alphas`` and
    ``widths`` are the members' growth indexes and bracket widths.  Returns
    ``ms``, the deviations ``d`` (one row per m), the report rows, the
    summary, to which the runner adds its flags, and the tail suprema
    ``(tail_n, tail_sup)``.
    """
    ms = np.arange(cfg.m_range[0], cfg.m_range[1] + 1)
    ns = np.arange(cfg.n_range[0], cfg.n_range[1] + 1)
    alphas = np.asarray(alphas, dtype=np.float64)
    ratios = np.abs(block[:, ns[0] : ns[-1] + 1])
    np.divide(ratios, ns, out=ratios)
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
    return ms, d, rows, summary, (tail_n, tail_sup)


def _tail_at_cutoff(cfg: ScenarioConfig, tail_n, tail_sup) -> float:
    """The tail supremum at the scenario's cutoff."""
    cut = int(cfg.tolerances[SCENARIOS[cfg.scenario].cutoff])
    return float(tail_sup[tail_n == cut][0])


def _diagonal_cells(cfg: ScenarioConfig) -> range:
    """The m >= 8 of the cells (m, m) the diagonal flag reads; raises if none."""
    (m_lo, m_hi), (n_lo, n_hi) = cfg.m_range, cfg.n_range
    cells = range(max(m_lo, n_lo, 8), min(m_hi, n_hi) + 1)
    if not cells:
        raise ConfigError("counterexample needs a diagonal cell (m, m) with m >= 8")
    return cells


def _run_counterexample(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    block = _dilation_window(cfg, "koebe")
    zeros = [0.0] * len(block)  # dilations of bounded-coefficient maps
    _, d, rows, summary, _ = _ratio_grid(cfg, block, zeros, zeros)
    (m_lo, m_hi), (n_lo, n_hi) = cfg.m_range, cfg.n_range
    diag = {m: float(d[m - m_lo, m - n_lo])
            for m in range(max(m_lo, n_lo), min(m_hi, n_hi) + 1)}
    summary["diagonal"] = diag
    summary["flags"] = {
        "diagonal_above_e_inv_floor": min(diag[m] for m in _diagonal_cells(cfg))
                                      > tol["diagonal_floor"],
        "rows_vanish_in_n": float(np.max(d[:, -1])) <= tol["row_vanish"],
    }
    return ScenarioReport("counterexample", rows, summary, _provenance(cfg))


def _run_theorem1(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    block = _dilation_window(cfg, "halfplane")
    zeros = [0.0] * len(block)  # bounded image: slow growth
    ms, _, rows, summary, tail = _ratio_grid(cfg, block, zeros, zeros)
    at_cut = _tail_at_cutoff(cfg, *tail)

    # deeper machinery: the weighted-mean harness over the boundary-mean rows
    rows_b = logmilin._times_square(block[:, 1:])  # (1-z)^2 f(z)/z, every member at once
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
        "tauber_hypothesis_iii": harness.iii_bounded,
        "abel_uniform_gap_small": harness.uniform_gap <= 0.02,
    }
    return ScenarioReport("theorem1", rows, summary, _provenance(cfg))


def _run_theorem2(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    block, members = _window(cfg, lambda ms: families._transforms(
        [0.3 * cmath.exp(1j / m) for m in ms], cfg.series_order))
    try:
        ests = hayman.hayman_index(members)  # one batched search over every circle
    except SchlichtLabError as exc:
        _annotate(exc, f"{cfg.m_range[0]}..{cfg.m_range[1]}")
    widths = [h.bracket_width for h in ests]
    _, _, rows, summary, tail = _ratio_grid(cfg, block, [h.alpha for h in ests], widths)
    at_cut = _tail_at_cutoff(cfg, *tail)
    allowance = tol["simultaneous_tail_bound"] + max(widths)
    summary["tail_allowance"] = allowance
    summary["flags"] = {
        "simultaneous_tail_bound": at_cut <= allowance,
    }
    return ScenarioReport("theorem2", rows, summary, _provenance(cfg))


# -- functional scan and inequality audit ----------------------------------


def _run_zalcman(cfg: ScenarioConfig) -> ScenarioReport:
    tol = cfg.tolerances
    corpus = families.standard_corpus(cfg.series_order)
    ns = np.arange(cfg.n_range[0], cfg.n_range[1] + 1)
    # |a_n| / n, |a_n^2 - a_{2n-1}| and (n-1)^2, one row per member
    ratio, zal, bound = (np.array(col) for col in zip(
        *(logmilin.coefficient_functionals(f, ns) for f in corpus)))
    slack = zal - bound
    # the extremal member at each n: the first, unless a later one exceeds it by 1e-12
    best, kind = zal[0].copy(), np.zeros(len(ns), dtype=int)
    for i in range(1, len(corpus)):
        wins = zal[i] > best + 1e-12
        best[wins], kind[wins] = zal[i, wins], i
    extremal_ok = all(corpus[i].kind in ("koebe", "rotation") for i in set(kind.tolist()))
    worst_slack, max_ratio = float(np.max(slack)), max(0.0, float(np.max(ratio)))
    size = slack.size
    rows = _columns(np.repeat(np.arange(len(corpus)) + 1, len(ns)), np.tile(ns, len(corpus)),
                    zal.ravel(), np.zeros(size), slack.ravel(),
                    np.where(slack.ravel() <= tol["zalcman_slack"], "ok", "fail").tolist(),
                    ["zalcman_ceiling"] * size)
    summary = {
        "labels": [f.label() for f in corpus],
        "worst_zalcman_slack": worst_slack,
        "max_bieberbach_ratio": max_ratio,
        "flags": {
            "zalcman_ceiling": worst_slack <= tol["zalcman_slack"],
            "extremal_at_koebe_or_rotation": extremal_ok,
            "bieberbach_ratio_bound": max_ratio <= 1.0 + 1e-12,
        },
    }
    return ScenarioReport("zalcman_scan", rows, summary, _provenance(cfg))


def _section_order(cfg: ScenarioConfig) -> int:
    """The order of the audit's Grunsky section: grunsky_order, cut to the
    (series_order - 2) // 2 whose section the inverted series keeps faithful."""
    return min(cfg.grunsky_order, (cfg.series_order - 2) // 2)


def _audit_member(f, cfg: ScenarioConfig, est, violations: int):
    """``(label, alpha, checks)`` of one member, ``checks`` listing each
    check's ``(name, value, margin)``; ``est`` is its growth-index estimate
    (None unless the member is of maximal growth), ``violations`` its
    Prawitz violation count."""
    tol = cfg.tolerances
    order = cfg.series_order
    gN = _section_order(cfg)
    ld = logmilin.log_data(f)
    _, max_partial, _ = logmilin.milin_check(ld)
    a_abs, b_sum, rhs = logmilin.lebedev_milin_check(f, ld, min(32, order - 2))
    table = grunsky.grunsky_matrix(families.invert_to_sigma(f, order - 2), gN)
    norm = grunsky.strong_grunsky_norm(table)
    defect, identity = grunsky.full_mapping_defect(table, ld, f, 0.5)
    checks = [
        ("milin_bound", max_partial, tol["milin_bound"] - max_partial),
        ("lebedev_milin_chain", rhs - a_abs,
         min(b_sum - a_abs, rhs - b_sum) + 1e-9 * max(1.0, rhs)),
        ("prawitz_integral", float(violations), float(-violations)),
        ("grunsky_norm_bound", norm, 1.0 + tol["norm_slack"] - norm),
        ("log_identity_link", identity, tol["identity_tol"] - identity),
    ]

    alpha_val = 0.0
    if est is None:
        checks.append(("non_full_defect_positive", defect, defect - 0.01))
    else:
        defect_small = grunsky.fullness_defect(table.section(max(8, gN // 2)), 0.5)
        alpha_val, theta = est.alpha, est.theta
        _, _, gap = logmilin.bazilevich_gap(ld, alpha_val, theta, min(128, ld.top_index))
        aligned = families.rotated(f, theta) if abs(theta) > 1e-12 else f
        a = aligned.series.coeffs
        s_sq = float(np.max(np.abs(a[1:] - a[:-1]) ** 2))  # the ledger's s_n = a_{n+1} - a_n
        ceiling = math.exp(2.0 * logmilin.MILIN_CONSTANT_BOUND) / alpha_val
        checks += [
            ("fullness_defect_decreasing", defect, defect_small - defect + 1e-9),
            ("bazilevich_nonnegative_gap", gap, gap + tol["direction_tol"]),
            # the equality residual is |gap|: grunsky.bazilevich_equality_residual
            ("bazilevich_equality_residual", abs(gap), tol["direction_tol"] - abs(gap)),
            ("increment_square_bound", s_sq, ceiling - s_sq + 1e-9),
        ]

    n_split = min(16, ld.top_index)
    residual = tauber.tauber_decomposition_check(ld, n_split, 1.0 - 1.0 / n_split)
    checks.append(("tauber_split_identity", residual, tol["split_tol"] - residual))
    return f.label(), alpha_val, checks


def audit_members(members, cfg: ScenarioConfig) -> list:
    """``(label, alpha, checks)`` per member of the batch ``members``
    (:func:`families.batch`: one member, or a list of them), at the
    settings of the inequality_audit config ``cfg``; ``alpha`` is 0.0 below
    maximal growth, which each member's pair decides, whatever its kind
    (:attr:`families.SchlichtFunction.maximal_growth`).  ``checks`` lists
    ``(name, value, margin, ok)``: ``value`` is what the check measures,
    ``margin`` its bound, every allowance included, minus that, and ``ok``
    is ``margin >= 0`` for every check.
    One batched :func:`logmilin.prawitz_check` call covers every member, one
    :func:`hayman.hayman_index` call the maximal ones.
    """
    require_instance(cfg, ScenarioConfig, "audit_members")
    if cfg.scenario != "inequality_audit":
        raise ConfigError("audit_members needs an inequality_audit config")
    members = families.batch(members)
    prawitz = logmilin.prawitz_check(members, (0.3, 0.5, 0.7, 0.9))
    maximal = [f for f in members if f.maximal_growth]
    ests = iter(hayman.hayman_index(maximal) if maximal else [])
    results = []
    for f, (_, violations) in zip(members, prawitz):
        est = next(ests) if f.maximal_growth else None
        label, alpha, checks = _audit_member(f, cfg, est, violations)
        results.append((label, alpha, [(name, value, margin, bool(margin >= 0))
                                       for name, value, margin in checks]))
    return results


def _run_audit(cfg: ScenarioConfig) -> ScenarioReport:
    corpus = families.standard_corpus(cfg.series_order)
    results = audit_members(corpus, cfg)
    rows = [(m, n, value, alpha, margin, "ok" if ok else "fail", name)
            for m, (_, alpha, checks) in enumerate(results, start=1)
            for n, (name, value, margin, ok) in enumerate(checks, start=1)]
    summary = {"labels": [label for label, _, _ in results],
               "flags": {f"{name}:{label}": ok
                         for label, _, checks in results for name, _, _, ok in checks}}
    provenance = _provenance(cfg)
    provenance["config"]["grunsky_order"] = _section_order(cfg)  # the section run
    return ScenarioReport("inequality_audit", _columns(*zip(*rows)), summary, provenance)


# -- the scenario table -------------------------------------------------------

# m floors: dilation radii 1 - 1/m > 0, transforms 0.3 e^{i/m}.  The audit's Grunsky
# section, of order (series_order - 2) // 2, must hold its order-8 comparison section
# (order 18), and its truncation at z = 0.5, about 0.5^order, meets identity_tol from 30
SCENARIOS = {
    "counterexample": Scenario(("m_range", "n_range"),
                               {"row_vanish": 0.05, "diagonal_floor": 0.36},
                               _run_counterexample, m_floor=2, check=_diagonal_cells),
    "theorem1": Scenario(("m_range", "n_range"), {"tail_n": 100.0, "tail_bound": 0.01},
                         _run_theorem1, cutoff="tail_n", m_floor=2),
    "theorem2": Scenario(("m_range", "n_range"),
                         {"simultaneous_tail_n": 128.0, "simultaneous_tail_bound": 0.05},
                         _run_theorem2, cutoff="simultaneous_tail_n"),
    "zalcman_scan": Scenario(("n_range",), {"zalcman_slack": 1e-9}, _run_zalcman,
                             n_floor=2, n_reach=2),
    "inequality_audit": Scenario(("grunsky_order",),
                                 {"milin_bound": logmilin.MILIN_CONSTANT_BOUND,
                                  "direction_tol": 5e-3, "identity_tol": 1e-8,
                                  "split_tol": 1e-10, "norm_slack": 1e-9},
                                 _run_audit, min_order=32),
}


# -- export -----------------------------------------------------------------

CSV_HEADER = "scenario,m,n,value,alpha_m,deviation,flag"

# the writers format and write this many rows at a time, so the memory an
# export holds does not grow with the report
BLOCK_ROWS = 2048

# 0 .. 9999 as 'S' text: zero-padded to four digits (_DIGITS4, and _D4 with each
# text as one number, for a gather), as %d spells them (_DIGITS), and so with a
# point after (_DIGITS_POINT)
_DIGIT = np.frombuffer(b"0123456789", dtype="S1")
_DIGITS4 = np.strings.add(*np.ix_(*[np.strings.add(*np.ix_(_DIGIT, _DIGIT)).ravel()] * 2)).ravel()
_D4 = _DIGITS4.view(np.uint32)
_DIGITS = np.strings.lstrip(_DIGITS4, b"0")
_DIGITS[0] = b"0"
_DIGITS_POINT = np.strings.add(_DIGITS, b".")


def _row_blocks(rows: dict):
    """The report columns ``rows`` cut into consecutive blocks of BLOCK_ROWS rows
    (the last one shorter), each a dict of column slices."""
    for lo in range(0, len(rows["m"]), BLOCK_ROWS):
        yield {k: col[lo : lo + BLOCK_ROWS] for k, col in rows.items()}


def _spell(col: np.ndarray) -> np.ndarray:
    """The text of each entry of a float64 or int64 column, as an 'S' array:
    ``'%.8f' % x`` of each float x, ``'%d' % v`` of each int v.

    An int 0 <= v < 10^4 is read off a table.  A float takes a = |x| and
    y = a * 1e8, 1e8 being exact in binary.  When a < 1e4, y is a * 10^8
    correctly rounded, so |y - a * 10^8| <= y * 2^-53 (or y is subnormal,
    within 2^-1075 of it).  The nearest half-integer to y is floor(y) + 1/2;
    every other one lies at least 1/2 > y * 2^-50 away, as y < 10^12.  When
    also |(y - floor(y)) - 1/2| > y * 2^-50 (computed exactly: below 2^52
    the fraction lies on y's grid, and a fraction under 1/4 passes anyway),
    no half-integer lies between y and a * 10^8 or on either, so
    q = rint(y) is a * 10^8 rounded to the nearest integer, with no tie to
    break: the digits of Python's correctly rounded '%.8f'.  When q also
    stays below 10^12, its integer part q // 10^8 is below 10^4, and the
    text is the sign (np.signbit, so -1e-12 gives -0.00000000 as '%.8f'
    does), the integer part and its ``.`` off _DIGITS_POINT, and the 8
    digits of q % 10^8: two _D4 words side by side, viewed as one 8-byte
    text, so a single np.strings.add joins the parts.  Every other entry,
    NaN, +-inf, a >= 1e4, an int off the table, and each near or exact tie
    or carry to 10^4, is spelled by Python's own format.
    """
    if col.dtype.kind == "f":
        spec, a = "%.8f", np.abs(col)
        y = np.where(a < 1e4, a, 0.0) * 1e8  # NaN compares False
        q = np.rint(y)
        fast = (a < 1e4) & (np.abs(y - np.floor(y) - 0.5) > y * 2.0 ** -50) & (q < 1e12)
        whole, part = np.divmod(np.where(fast, q, 0.0).astype(np.int64), 10 ** 8)
        decimals = np.stack([_D4[part // 10 ** 4], _D4[part % 10 ** 4]], axis=-1).view("S8")
        text = np.strings.add(_DIGITS_POINT[whole], decimals[:, 0])
        negative = np.signbit(col)
        if negative.any():
            text = np.strings.add(np.where(negative, b"-", b""), text)
    else:
        spec, fast = "%d", (col >= 0) & (col < 10 ** 4)
        text = _DIGITS[np.where(fast, col, 0)]
    slow = np.flatnonzero(~fast)
    if len(slow):
        spelled = np.array([(spec % v).encode("ascii") for v in col[slow].tolist()])
        text = text.astype(np.result_type(text, spelled))
        text[slow] = spelled
    return text


# The JSON speller's fast path takes 10^_E_LO <= |x| < 10^_E_HI.  For each k in
# _E_LO .. 16 - _E_LO, _TEN_HI + _TEN_LO is 10^k within 10^k * 2^-104, _TEN_GE is
# the least double >= 10^k, and _TEN_H + _TEN_L is _TEN_HI cut in two halves of
# 26 bits (Veltkamp), all indexed by k - _E_LO.
_E_LO, _E_HI = -128, 128


def _powers_of_ten() -> tuple:
    """``(hi, lo)`` over k = _E_LO .. 16 - _E_LO: 10^k = 2^k 5^k, 5^k exact in
    Python ints, int -> float and int / int correctly rounded, and the sign
    of lo that of 10^k - hi."""
    hi, lo, five = {}, {}, 1
    for k in range(17 - _E_LO):
        h = float(five)
        hi[k], lo[k] = math.ldexp(h, k), math.ldexp(float(five - int(h)), k)
        if 0 < k <= -_E_LO:
            h = 1 / five
            num, den = h.as_integer_ratio()
            hi[-k] = math.ldexp(h, -k)
            lo[-k] = math.ldexp(float(den - num * five) / float(five), 1 - den.bit_length() - k)
        five *= 5
    ks = range(_E_LO, 17 - _E_LO)
    return np.array([hi[k] for k in ks]), np.array([lo[k] for k in ks])


_TEN_HI, _TEN_LO = _powers_of_ten()
_TEN_GE = np.where(_TEN_LO > 0, np.nextafter(_TEN_HI, np.inf), _TEN_HI)
_TEN_H = _TEN_HI * 134217729.0  # 2^27 + 1
_TEN_H -= _TEN_H - _TEN_HI
_TEN_L = _TEN_HI - _TEN_H
_MARGIN = 2.0 ** -40
_UNITS = np.array([[100], [10]])
_AT = np.arange(18, dtype=np.uint8)[:, None]  # the row of each place
_FLOAT_SIGN = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000",
                        b"-", b"-0.", b"-0.0", b"-0.00", b"-0.000"])
_FLOAT_EXP = np.array([b"" if -4 <= e < 16 else b"e%+03d" % e for e in range(_E_LO, _E_HI + 1)])


def _shortest_digits(col: np.ndarray) -> tuple:
    """``(fast, digits, e)`` for a float64 column: where ``fast`` holds,
    repr(|x|) has the digits of the int64 ``digits`` (10^16 <= digits <
    10^17) without their trailing zeros, times 10^(e - 16).  Elsewhere
    digits is 10^16 and e is 0.

    repr writes the shortest decimal that reads back as x, the nearest to x
    when there are several.  Here they are found in fixed-width arithmetic,
    the result behind Ryu (Adams, PLDI 2018), for each x with
    10^_E_LO <= a = |x| < 10^_E_HI (where no product below over- or
    underflows) whose mantissa is not a power of two.

    With a = m * 2^q (2^52 <= m < 2^53), the doubles next to a lie 2^q away,
    so the decimals that read back as a fill [Y - h, Y + h] and no more, in
    units where Y = a * 10^k, h = 2^(q-1) * 10^k and k = 16 - e for the
    decade 10^e <= a < 10^(e+1): e is floor((q + 52) log10 2), plus one when
    a >= 10^(e+1) (_TEN_GE compares exactly).  Then 10^16 <= Y < 10^17 and
    h = Y / 2m, so 0.55 < h < 11.2.  Y is the product p = fl(a * _TEN_HI)
    plus y, which holds p's rounding error (Dekker's TwoProduct, no FMA)
    and a * _TEN_LO; p + y is within 2^-46 of Y.  p, at least 2^53, is an
    integer, so D = p + rint(y) and r = y - rint(y) are exact, and
    D = round(Y) with Y - D = r within 2^-46 when |r| stays _MARGIN =
    2^-40 short of 1/2.

    First, at most one decimal of 15 significant digits or fewer lies
    within h of Y: any such decimal there is a multiple of 100 (Y - h >
    10^16 - 12, and below 10^16 the 15-digit decimals are multiples of 10,
    at most 10^16 - 10), and two of those lie 100 > 2h apart.  So when the
    multiple of 100 nearest Y lies within h, it is repr's digits, trailing
    zeros dropped.  Second, when none does, the 16-digit candidates are the
    multiples of 10, and the interval is symmetric about Y: when any lies
    within h, the one nearest Y does, and repr picks it.  Otherwise repr
    has 17 digits, the nearest being D, within h as |Y - D| <= 1/2 < h.

    Each candidate is D + step, with step read off D's last digits and the
    sign of r.  Its distance |step - r| is within 2^-45 of the exact one,
    and h within 2^-49 of its value, so a candidate is taken or refused
    only when the two differ by more than _MARGIN.  One within _MARGIN of h
    (Python reads the boundary in only for an even mantissa), a tie
    between two nearest multiples (repr keeps the even one), and a D in
    doubt all go to the fallback, as do non-finite values, zeros, |x|
    outside the range (subnormals too) and power-of-two mantissas, whose
    lower neighbour lies only 2^(q-1) away.
    """
    a = np.abs(col)
    fast = (a >= _TEN_GE[0]) & (a < _TEN_GE[_E_HI - _E_LO]) & (a.view(np.uint64) << 12 != 0)
    if not fast.any():
        return fast, np.full(len(col), 10 ** 16), np.zeros(len(col), dtype=np.int64)
    a = np.where(fast, a, 1.0)
    biased = (a.view(np.uint64) >> 52).astype(np.int64)
    e = np.floor((biased - 1023) * 0.30102999566398120).astype(np.int64)
    e += a >= _TEN_GE[e + 1 - _E_LO]
    i = 16 - e - _E_LO
    c = a * 134217729.0  # Veltkamp's split of a, then Dekker's product a * _TEN_HI
    ah = c - (c - a)
    al = a - ah
    bh, bl = _TEN_H[i], _TEN_L[i]
    p = a * _TEN_HI[i]
    y = (al * bl - (((p - ah * bh) - al * bh) - ah * bl)) + a * _TEN_LO[i]
    whole = np.rint(y)
    r = y - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    h = _TEN_HI[i] * ((biased - 53) << 52).view(np.float64)
    fast &= np.abs(r) < 0.5 - _MARGIN
    # the multiples of 100 and of 10 nearest Y, D + step, one row each; half
    # is 0 on a tie, which is never taken
    rem = d % _UNITS
    half = 2 * rem - _UNITS
    step = ((half > 0) | (half == 0) & (r > 0)) * _UNITS - rem
    far = np.abs(step - r)
    inside = (far < h - _MARGIN) & ~((half == 0) & (np.abs(r) <= _MARGIN))
    outside = far > h + _MARGIN
    fast &= inside[0] | outside[0] & (inside[1] | outside[1])
    digits = d + np.where(inside[0], step[0], np.where(inside[1], step[1], 0))
    carry = digits == 10 ** 17  # the next decade's one digit 1
    return fast, np.where(fast & ~carry, digits, 10 ** 16), np.where(fast, e + carry, 0)


def _json_float(col: np.ndarray) -> np.ndarray:
    """The text of each entry of a float64 column, as an 'S' array: the bytes
    ``json.dumps(x)`` writes, which are ``repr(x)`` when x is finite.

    _shortest_digits finds repr's digits d and decade e; repr writes them as
    positional text (``.0`` when whole) for -4 <= e < 16, else as
    ``d.ddde+XX`` or ``d.ddde-XX``.  The 17 digits go into an 18 x n byte
    array, one row per place, where the point is put in and the trailing
    zeros cut off; the sign, a leading ``0.0..`` and the exponent come from
    tables.  Every entry off the fast path is spelled by json itself.
    """
    n = len(col)
    fast, digits, e = _shortest_digits(col)
    if not fast.any():  # zeros, say: no layout to build
        return _json_dumps(col)
    groups = np.empty((5, n), dtype=np.int64)  # the lead digit, then 4 digits at a time
    for g in range(4, 0, -1):
        groups[g - 1] = digits // 10 ** 4
        groups[g] = digits - groups[g - 1] * 10 ** 4
        digits = groups[g - 1]
    place = np.zeros((18, n), dtype=np.uint8)  # the 17 digits and a NUL
    place[0] = groups[0] + ord("0")
    quads = _D4[groups[1:]].view(np.uint8).reshape(4, n, 4)  # 4 texts of 4 digits each
    place[1:17].reshape(4, 4, n)[:] = quads.transpose(0, 2, 1)
    count = ((place[:17] > ord("0")) * _AT[:17]).max(axis=0) + 1  # up to the last nonzero digit
    positional = (e >= -4) & (e < 16)
    point = np.where(positional, np.where(e < 0, 18, e + 1), 1).astype(np.uint8)  # 18: none
    text = place * (_AT < point)
    text[1:] += place[:-1] * (_AT[1:] > point)
    text += (_AT == point) * np.uint8(ord("."))
    keep = count + (count > point)
    keep = np.where(positional & (e >= 0), np.maximum(keep, point + 2), keep)  # x.0
    text *= _AT < keep
    text = np.ascontiguousarray(text.T).view("S18").ravel()
    sign = _FLOAT_SIGN[5 * np.signbit(col) + np.where(positional & (e < 0), -e, 0)]
    text = np.strings.add(np.strings.add(sign, text), _FLOAT_EXP[e - _E_LO])
    slow = np.flatnonzero(~fast)
    if len(slow):
        spelled = _json_dumps(col[slow])
        text = text.astype(np.result_type(text, spelled))
        text[slow] = spelled
    return text


def _json_dumps(col: np.ndarray) -> np.ndarray:
    """``json.dumps(x)`` of each entry x of a non-empty float64 column, as an
    'S' array (json.dumps([]) would split into one empty text)."""
    return np.array(json.dumps(col.tolist())[1:-1].split(", "), dtype="S")


def _spell_texts(col: list, spell: Callable) -> np.ndarray:
    """``spell(s)`` of each entry s of ``col`` in UTF-8, as an 'S' array; each
    distinct entry is spelled once.  'S' padding would eat a trailing NUL, so
    the CSV's texts end in their separator, and json.dumps escapes NUL."""
    index = {s: i for i, s in enumerate(dict.fromkeys(col))}
    spelled = np.array([spell(s).encode("utf-8") for s in index])
    return spelled[np.fromiter(map(index.__getitem__, col), np.intp, len(col))]


def _block_rows(c: dict, fields, end: bytes) -> list:
    """The text of each row of the block ``c``, as bytes: for each field
    ``(before, key, spell)`` in turn, the literal ``before`` and the text of
    the row's entry of column ``c[key]``, then ``end``.  Both writers build
    their rows here.

    ``spell`` maps a column, or a part of one, to the 'S' array of its
    entries' texts; a text that could end in NUL, which 'S' padding would
    eat, carries the separator after it.  Three rules decide which entries
    are spelled:

    * a column constant over the block (an array: every entry with the
      first one's bits, so -0.0 is not 0.0 and NaN is NaN only with the same
      payload; a list: ==) is spelled once, into the literal text between
      the fields that vary;
    * an array column bitwise equal to an earlier one reuses its text;
    * each run of bitwise-equal neighbours in an array column is spelled
      once, at its head, and the text repeated over the run.

    The run heads of all arrays with one speller and dtype go through one
    call of it.  A field's text takes the literal before it while it is
    still one entry per run, and np.strings.add then adds the fields of
    every row at once, left to right.  A float column on the grids thus
    spells 2048 entries, 8 (``alpha_m`` on theorem2) or 1 (``alpha_m`` of
    0.0 on the other two), and ``deviation`` none where it is ``value``.
    The runs rule and the grouping by speller are kept because they pay:
    without the runs rule, export alone took 1.41x as long on report_grid
    and 1.05x on growth_index, and without the grouping 1.27x on
    audit_grunsky (medians of 50 interleaved in-process pairs, fastest of
    3 exports a side; 2-core VM, Python 3.11.7, numpy 2.4.6).
    """
    size = len(c[fields[0][1]])
    found, heads, groups = [], {}, {}
    for _, key, spell in fields:
        col = c[key]
        if isinstance(col, list):
            found.append(col[:1] if col.count(col[0]) == size else col)
            continue
        bits = (spell, col.dtype.kind, col.tobytes())
        if bits not in heads:
            word = col.view(f"u{col.itemsize}")
            heads[bits] = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
            groups.setdefault(bits[:2], {})[bits] = col[heads[bits]]
        found.append(bits)
    texts = {}
    for (spell, _), group in groups.items():
        cut = np.cumsum([len(part) for part in group.values()])[:-1]
        texts.update(zip(group, np.split(spell(np.concatenate(list(group.values()))), cut)))
    pieces, literal = [], b""
    for (before, _, spell), col in zip(fields, found):
        text, at = (spell(col), None) if isinstance(col, list) else (texts[col], heads[col])
        literal += before
        if len(text) == 1:
            literal += text[0]
            continue
        text = np.strings.add(literal, text)  # on the run heads, before they repeat
        pieces.append(text if at is None or len(at) == size
                      else np.repeat(text, np.diff(at, append=size)))
        literal = b""
    pieces.append(literal + end)
    rows = functools.reduce(np.strings.add, pieces)
    return [rows] * size if isinstance(rows, bytes) else rows.tolist()


def _write_csv(rep: ScenarioReport, fh):
    fh.write(CSV_HEADER.encode() + b"\n")
    fields = [(("%s," % (rep.scenario,)).encode(), "m", _spell), (b",", "n", _spell),
              *((b",", k, _spell) for k in ("value", "alpha_m", "deviation")),
              (b",", "flag", functools.partial(_spell_texts, spell="{}\n".format))]
    for c in _row_blocks(rep.rows):
        # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
        c.update((k, c[k] + 0.0) for k in ("value", "alpha_m", "deviation"))
        fh.write(b"".join(_block_rows(c, fields, b"")))


# each report column with the text before its value in a row of the report JSON,
# keys sorted and indented as json.dumps(indent=2) writes them, and its speller
_JSON_FIELDS = [(b'%s\n      "%s": ' % (b"," if i else b"{", k.encode()), k,
                 {"m": _spell, "n": _spell}.get(k, _json_float) if k not in ("flag", "check")
                 else functools.partial(_spell_texts, spell=json.dumps))
                for i, k in enumerate(sorted(COLUMNS))]


def _write_json(rep: ScenarioReport, fh):
    """Write ``json.dumps(report, sort_keys=True, indent=2) + "\\n"`` in UTF-8,
    where ``report`` is the dict of ``rep``'s scenario, summary and
    provenance with ``rows`` as a list of one dict per row (keys COLUMNS).

    The top-level keys come in sorted order into the binary file ``fh``:
    ``rows`` one block at a time, built by _block_rows over _JSON_FIELDS,
    and the provenance, the scenario and the summary each by json.dumps.
    """
    def part(value) -> bytes:
        # a value one level deep moves its inner lines two spaces right; JSON
        # strings escape newlines, so every "\n" is layout
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ").encode()

    fh.write(b'{\n  "provenance": ' + part(rep.provenance) + b',\n  "rows": [')
    sep = b"\n    "
    for c in _row_blocks(rep.rows):
        fh.write(sep)
        fh.write(b",\n    ".join(_block_rows(c, _JSON_FIELDS, b"\n    }")))
        sep = b",\n    "
    fh.write((b"\n  ]" if len(rep.rows["m"]) else b"]") + b',\n  "scenario": '
             + part(rep.scenario) + b',\n  "summary": ' + part(rep.summary) + b"\n}\n")


def export_report(rep: ScenarioReport, fmt: str = "both",
                  out_dir: Optional[str] = None):
    """Write the report as CSV and/or JSON; returns the written paths.

    Output is byte-identical for identical config: CSV uses fixed
    8-decimal floats, JSON uses sorted keys and full precision.  Each file
    is opened once, in binary, and its rows written BLOCK_ROWS at a time,
    so the memory held does not grow with the report.  Both spell each
    block's numbers as whole columns in numpy, the CSV with the bytes of
    ``'%.8f'`` and ``'%d'`` (see _spell), the JSON with those of
    ``json.dumps`` (see _json_float), and both by the column rules of
    _block_rows: a column constant over a block is spelled once, a column
    bitwise equal to an earlier one not again, and a run of bitwise-equal
    entries once, the run heads of all columns with one speller in one call
    (the two rules kept for the time they save, see _block_rows); the
    fields of each row are then joined left to right.
    The JSON's provenance, scenario and summary go through json.dumps
    itself.  A ``rep`` that is not a ScenarioReport raises
    :class:`InvalidParameter`.  Every file goes under a temporary name in the output
    directory, and the files are moved onto their report names
    (``<scenario>.csv`` and ``.json``) only once all are complete: an error
    mid-write removes the temporaries and leaves every earlier report there
    as it was.  A ``fmt`` other than "csv", "json" and "both", or an
    ``out_dir`` that is neither a string nor a path, raises
    :class:`ConfigError` before any directory or file is made.
    """
    require_instance(rep, ScenarioReport, "export_report")
    if not isinstance(fmt, str) or fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown export format {fmt!r}")
    if out_dir is not None and not isinstance(out_dir, (str, os.PathLike)):
        raise ConfigError(f"out_dir must be a string or a path, got {out_dir!r}")
    out = Path(out_dir if out_dir is not None else rep.provenance["config"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    writers = {out / f"{rep.scenario}.{ext}": write
               for ext, write in (("csv", _write_csv), ("json", _write_json))
               if fmt in (ext, "both")}
    tmps = {path: path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in writers}
    try:
        for path, write in writers.items():
            with open(tmps[path], "wb") as fh:
                write(rep, fh)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)  # a no-op once replaced
    return list(writers)
