"""The benchmark's workloads: which scenario configs one pass runs, drawn from a seed.

A pass runs its scenarios in the order listed, each as
``ScenarioConfig.from_dict`` -> ``lab.run_scenario`` -> ``lab.export_report``,
the same order ``schlicht-lab run`` uses.  The seed only moves each grid's
``m`` window inside ``[0, MAX_OFFSET)`` (or, for ``audit_grunsky``, the order
of its two scenarios), so the work per pass stays constant.
"""

from __future__ import annotations

import random

NAMES = ("report_grid", "growth_index", "audit_grunsky")

# Every offset in this range keeps all flags of the three grid scenarios true,
# so the only false flag of the benchmark is the known one in the audit.
MAX_OFFSET = 8

# Output formats: report_grid and audit_grunsky write CSV and JSON, growth_index
# CSV only, so the export path is used two ways.
FORMATS = {"report_grid": "both", "growth_index": "csv", "audit_grunsky": "both"}


def _grid(scenario, m_lo, m_count, n_hi, order, offset):
    return {"scenario": scenario, "m_range": [m_lo + offset, m_lo + offset + m_count - 1],
            "n_range": [1, n_hi], "series_order": order}


def scenario_configs(workload: str, seed: int, tiny: bool = False) -> list:
    """The scenario config dicts of one pass, without ``out_dir``.

    ``tiny`` keeps every scenario but shrinks its orders, for the smoke test.
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report_grid":
        # export and row bookkeeping dominate; log_data ledgers and the Tauber
        # harness; no hayman, no grunsky.  The m windows are kept short so a
        # run holds enough passes for a tail with ten samples beyond it.
        n, order = (32, 32) if tiny else (256, 256)
        return [
            _grid("counterexample", 2, 4 if tiny else 16, n, order, rng.randrange(MAX_OFFSET)),
            _grid("theorem1", 2, 8 if tiny else 32, n, order, rng.randrange(MAX_OFFSET)),
        ]
    if workload == "growth_index":
        # compute dominates: koebe_transform builds (series / and *) and
        # hayman_index; CSV-only export; no grunsky, no Tauber harness
        n, order = (32, 32) if tiny else (256, 256)
        return [_grid("theorem2", 1, 8 if tiny else 64, n, order, rng.randrange(MAX_OFFSET))]
    # audit_grunsky: grunsky_matrix and the norm dominate; the corpus is fixed,
    # so the seed only sets the order of the two scenarios
    scenarios = [
        {"scenario": "inequality_audit", "m_range": [1, 1], "n_range": [1, 1],
         "series_order": 34 if tiny else 258, "grunsky_order": 16 if tiny else 128},
        {"scenario": "zalcman_scan", "m_range": [1, 5], "n_range": [2, 16 if tiny else 128],
         "series_order": 32 if tiny else 256},
    ]
    rng.shuffle(scenarios)
    return scenarios
