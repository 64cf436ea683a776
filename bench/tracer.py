"""In-memory spans around the public functions of schlichtlab's modules.

The benchmark installs the wrappers for a traced pass and restores the
originals afterwards; no program file is edited.  A function is wrapped at
every name the program looks it up through: ``hayman.max_modulus`` and
``logmilin.max_modulus`` are separate bindings of ``families.max_modulus``,
and ``ComplexSeries.__rmul__`` is the same function as ``__mul__``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time
from collections import defaultdict

# layer name -> (module, attribute path inside it)
LAYERS = {
    "series.div": ("series", "ComplexSeries.__truediv__"),
    "series.mul": ("series", "ComplexSeries.__mul__"),
    "series.log": ("series", "ComplexSeries.log"),
    "series.sqrt": ("series", "ComplexSeries.sqrt"),
    **{f"families.{fn}": ("families", fn) for fn in (
        "make_schlicht", "dilated", "rotated", "invert_to_sigma", "max_modulus",
        "standard_corpus")},
    **{f"hayman.{fn}": ("hayman", fn) for fn in (
        "hayman_index", "growth_profile", "growth_direction")},
    **{f"logmilin.{fn}": ("logmilin", fn) for fn in (
        "log_data", "milin_check", "lebedev_milin_check", "prawitz_check",
        "bazilevich_gap", "coefficient_functionals")},
    **{f"grunsky.{fn}": ("grunsky", fn) for fn in (
        "grunsky_matrix", "strong_grunsky_norm", "grunsky_norm_dense",
        "full_mapping_defect", "bazilevich_equality_residual")},
    **{f"tauber.{fn}": ("tauber", fn) for fn in (
        "simultaneous_tauber_harness", "tail_supremum", "tauber_decomposition_check")},
    "lab.run_scenario": ("lab", "run_scenario"),
    "lab.export_report": ("lab", "export_report"),
}

# the span the benchmark itself opens around each call of schlichtlab.cli.main
CLI_LAYER = "cli.main"


class Tracer:
    """Spans kept in memory as tuples
    ``(span_id, parent_id, pass_id, name, start, end, error)``."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.pass_id, name, start, end, error))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer at all its bindings; restore them on exit."""
        holders = [m for n, m in list(sys.modules.items())
                   if n == "schlichtlab" or n.startswith("schlichtlab.")]
        saved = []
        try:
            for name, (module, path) in LAYERS.items():
                owner = sys.modules[f"schlichtlab.{module}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapped = self.wrap(name, original)
                for holder in holders + ([owner] if outer else []):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, value))
                            setattr(holder, key, wrapped)
            yield
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)

    def pass_stats(self, pass_id) -> dict:
        """Per layer name: calls, self time and errors raised within one pass.

        Self time is a span's duration minus the time its child spans cover.
        """
        spans = [s for s in self.spans if s[2] == pass_id]
        covered = defaultdict(float)
        for _sid, parent, _pid, _name, start, end, _err in spans:
            if parent is not None:
                covered[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": defaultdict(int)})
        for sid, _parent, _pid, name, start, end, err in spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[sid]
            if err is not None:
                entry["errors"][err] += 1
        return {name: dict(entry, errors=dict(entry["errors"])) for name, entry in stats.items()}

    def dump(self) -> list:
        keys = ("span_id", "parent_id", "pass_id", "name", "start", "end", "error")
        return [dict(zip(keys, s)) for s in self.spans]
