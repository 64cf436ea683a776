"""The names the benchmark's tracer and probes look up in the package.

``bench/tracer.py`` wraps every ``(module, attribute)`` in its ``LAYERS``
and ``bench/worker.py`` calls single layers by name, so a rename in the
package would break a traced benchmark run without failing any other test.
The benchmark files are read here, never changed.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from schlichtlab import families, grunsky

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_layers() -> dict:
    return _tracer().LAYERS


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"schlichtlab.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _probed_names() -> set:
    """``(module, attribute)`` of each ``module.attribute(`` call in worker.py's probes."""
    source = (BENCH / "worker.py").read_text(encoding="utf-8")
    probes = source[source.index("def probes("):source.index("def setup(")]
    return set(re.findall(r"\b(families|grunsky|hayman|logmilin)\.(\w+)\(", probes))


@pytest.mark.parametrize("layer, binding", sorted(_tracer_layers().items()))
def test_tracer_layer_resolves(layer, binding):
    assert callable(_resolve(*binding)), layer


def test_probed_names_resolve():
    names = _probed_names()
    assert ("grunsky", "grunsky_norm_dense") in names
    for module, attr in sorted(names):
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_tracer_records_one_span_per_norm_call():
    # a name bound to the very function another layer wraps is wrapped twice,
    # and one call of the norm would then record two nested spans
    f = families.make_schlicht("koebe", order=18)
    table = grunsky.grunsky_matrix(families.invert_to_sigma(f, 16), 8)
    tracer = _tracer().Tracer()
    with tracer.installed():
        grunsky.strong_grunsky_norm(table)
    assert [span[3] for span in tracer.spans] == ["grunsky.strong_grunsky_norm"]
