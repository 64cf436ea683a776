"""schlichtlab: numerical laboratory for coefficient growth of schlicht functions.

Layers, bottom up:

* :mod:`~schlichtlab.series`   -- truncated complex power-series arithmetic
* :mod:`~schlichtlab.families` -- the normalized univalent test corpus and
  exterior inversions
* :mod:`~schlichtlab.hayman`   -- growth-index (Hayman index) estimation
* :mod:`~schlichtlab.logmilin` -- logarithmic-coefficient ledger and the
  classical inequality checks
* :mod:`~schlichtlab.grunsky`  -- Grunsky sections, operator norm, fullness
* :mod:`~schlichtlab.tauber`   -- summability means and the double-indexed
  convergence harness
* :mod:`~schlichtlab.lab`      -- scenario runner and report export
"""

# defined before the submodule imports, because lab reads it at import time
__version__ = "0.1.0"

from . import errors
from .families import (
    SchlichtFunction,
    SigmaFunction,
    dilated,
    eval_certified,
    deriv_certified,
    invert_to_sigma,
    make_schlicht,
    max_modulus,
    rotated,
    standard_corpus,
)
from .grunsky import (
    GrunskyTable,
    bazilevich_equality_residual,
    full_mapping_defect,
    fullness_defect,
    grunsky_matrix,
    grunsky_matrix_direct,
    strong_grunsky_norm,
)
from .hayman import (
    HaymanEstimate,
    default_schedule,
    growth_direction,
    growth_profile,
    hayman_index,
)
from .lab import (
    ScenarioConfig,
    ScenarioReport,
    export_report,
    run_scenario,
)
from .logmilin import (
    LogData,
    bazilevich_gap,
    coefficient_functionals,
    lebedev_milin_check,
    log_data,
    milin_check,
    prawitz_check,
)
from .series import ComplexSeries, compose
from .tauber import (
    DoubleFamily,
    TauberHarnessReport,
    cesaro_mean,
    euler_bracket,
    simultaneous_tauber_harness,
    tauber_decomposition_check,
    weighted_mean,
)

__all__ = [
    "ComplexSeries", "compose",
    "SchlichtFunction", "SigmaFunction", "make_schlicht", "rotated", "dilated",
    "invert_to_sigma", "eval_certified", "deriv_certified", "max_modulus",
    "standard_corpus",
    "HaymanEstimate", "growth_profile", "hayman_index",
    "growth_direction", "default_schedule",
    "LogData", "log_data", "milin_check", "bazilevich_gap",
    "lebedev_milin_check", "prawitz_check", "coefficient_functionals",
    "GrunskyTable", "grunsky_matrix", "grunsky_matrix_direct",
    "strong_grunsky_norm", "fullness_defect", "full_mapping_defect",
    "bazilevich_equality_residual",
    "DoubleFamily", "TauberHarnessReport",
    "cesaro_mean", "weighted_mean",
    "simultaneous_tauber_harness", "tauber_decomposition_check",
    "euler_bracket",
    "ScenarioConfig", "ScenarioReport", "run_scenario", "export_report",
    "errors",
]
