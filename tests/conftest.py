import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from schlichtlab import (
    hayman_index,
    invert_to_sigma,
    log_data,
    make_schlicht,
    standard_corpus,
)
from schlichtlab.lab import COLUMNS

TRANSFORM_W = 0.3 * cmath.exp(1j * math.pi / 4.0)


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    """Report a failing property test instead of ending the session.

    On failure hypothesis's plugin imports libcst while it makes the report,
    and libcst warns that mypy_extensions.TypedDict is deprecated; under
    filterwarnings = ["error"] or a test's filterwarnings("error") mark that
    warning became an INTERNALERROR that hid every later test.  Only that
    warning, and only while the report is made, is ignored.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        return (yield)


def report_dict(rep) -> dict:
    """The report JSON's shape: scenario, summary, provenance and one dict per row.

    The reference the JSON writer is checked against; ``json.dumps`` of this
    dict with ``sort_keys=True, indent=2`` is the report JSON.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c)
            for c in (rep.rows[k] for k in COLUMNS)]
    return {
        "scenario": rep.scenario,
        "rows": [dict(zip(COLUMNS, row)) for row in zip(*cols)],
        "summary": rep.summary,
        "provenance": rep.provenance,
    }


def transform_alpha(w: complex) -> float:
    """Closed-form growth index of the Koebe transform at w.

    Derived from the rational form of the composite: the double pole sits
    at z* = (1-w)/(1-conj(w)) and the residue calculus collapses to
    (1 - |w|^2)/|1 - w^2|.
    """
    return (1.0 - abs(w) ** 2) / abs(1.0 - w * w)


def transform_theta(w: complex) -> float:
    return cmath.phase((1.0 - w) / (1.0 - w.conjugate()))


@st.composite
def inverted_members(draw, max_order: int):
    """(label, exterior map of order 2N, N) over the corpus parameters.

    koebe_transform at |w| <= 0.6, rotation at any theta, dilation at any
    r in (0, 1); the map is inverted to exterior order 2N, which keeps the
    whole N x N Grunsky section faithful.
    """
    n_order = draw(st.integers(1, max_order))
    kind = draw(st.sampled_from(["koebe_transform", "rotation", "dilation"]))
    if kind == "koebe_transform":
        w = cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(-math.pi, math.pi)))
        params = {"w": w}
    elif kind == "rotation":
        params = {"theta": draw(st.floats(-math.pi, math.pi))}
    else:
        params = {"r": draw(st.floats(0.01, 0.99))}
    f = make_schlicht(kind, params, order=2 * n_order + 2)
    return f.label(), invert_to_sigma(f, 2 * n_order), n_order


@pytest.fixture(scope="session")
def corpus130():
    return standard_corpus(130)


@pytest.fixture(scope="session")
def ledgers130(corpus130):
    return {f.label(): log_data(f) for f in corpus130}


@pytest.fixture(scope="session")
def transform262():
    return make_schlicht("koebe_transform", {"w": TRANSFORM_W}, order=262)


@pytest.fixture(scope="session")
def transform_sigma260(transform262):
    return invert_to_sigma(transform262, 260)


@pytest.fixture(scope="session")
def transform_estimate(transform262):
    return hayman_index(transform262)
