"""The lockstep circle search of ``max_modulus`` against the scalar search.

``reference_max_modulus`` is the earlier one-radius search: a grid step,
then a golden-section refinement of one angle at a time in numpy-scalar
arithmetic.  The lockstep search runs every circle of a call in array
arithmetic, which rounds differently in the last bit, so the two agree to
rounding rather than bit for bit.  The angle of a smooth maximum is only
pinned to about the square root of that rounding (|f| is flat to second
order there): the reference's own angle moves by up to about 3e-7 when
|f| changes in its last bit, so angles are compared at 1e-6, and at 1e-9
only on the near-boundary circle that ``hayman_index`` probes.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab import deriv_certified, hayman_index, make_schlicht, max_modulus
from schlichtlab.hayman import default_schedule

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
EPS = np.finfo(float).eps


def _golden_max(fn, a, b, tol=1e-10):
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(c), fn(d)
    for _ in range(steps):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = fn(d)
    return 0.5 * (a + b)


def reference_max_modulus(f, r, grid=512):
    def g(theta):
        return np.abs(f.value(r * np.exp(1j * np.asarray(theta))))

    thetas = 2.0 * np.pi * np.arange(grid) / grid
    j = int(np.argmax(g(thetas)))
    h = 2.0 * np.pi / grid
    theta = _golden_max(lambda t: float(g(t)), thetas[j] - h, thetas[j] + h)
    theta = math.remainder(theta, 2.0 * math.pi)
    return float(g(theta)), theta


@st.composite
def members(draw):
    """koebe_transform at |w| <= 0.6, rotation, dilation, and a series-only map."""
    kind = draw(st.sampled_from(["koebe_transform", "rotation", "dilation", "custom"]))
    if kind == "rotation":
        return make_schlicht(kind, {"theta": draw(st.floats(-math.pi, math.pi))}, order=64)
    if kind == "dilation":
        return make_schlicht(kind, {"r": draw(st.floats(0.1, 0.99))}, order=64)
    w = cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(-math.pi, math.pi)))
    f = make_schlicht("koebe_transform", {"w": w}, order=64)
    if kind == "custom":
        f = make_schlicht("custom", {"coeffs": f.series.coeffs}, order=64)
    return f


radius_sets = st.lists(st.floats(0.1, 0.99), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(members(), radius_sets)
def test_lanes_equal_single_radius_calls(f, radii):
    peaks, angles = max_modulus(f, np.array(radii))
    for i, r in enumerate(radii):
        m1, t1 = max_modulus(f, r)
        assert (m1, t1) == (peaks[i], angles[i]), (f.label(), r)


@settings(max_examples=60, deadline=None)
@given(members(), radius_sets)
def test_agrees_with_scalar_search(f, radii):
    peaks, angles = max_modulus(f, np.array(radii))
    for i, r in enumerate(radii):
        m_ref, t_ref = reference_max_modulus(f, r)
        assert abs(peaks[i] - m_ref) <= 1e-12 * m_ref, (f.label(), r)
        assert abs(math.remainder(angles[i] - t_ref, 2.0 * math.pi)) <= 1e-6, (f.label(), r)


RADII = np.array([0.1, 0.5, 0.9, 0.99, 1.0 - 2.0 ** -14])


def _assert_closed_form(peaks, angles, exact, theta0):
    # |1 - r e^{it}| loses 1/(1-r) of relative accuracy near the boundary
    np.testing.assert_array_less(np.abs(peaks - exact) / exact, 8.0 * EPS / (1.0 - RADII))
    np.testing.assert_array_less(np.abs(angles - theta0), 1e-6)


def test_koebe_maxima_exact():
    peaks, angles = max_modulus(make_schlicht("koebe", order=16), RADII)
    _assert_closed_form(peaks, angles, RADII / (1.0 - RADII) ** 2, 0.0)


def test_rotation_maxima_exact():
    t = 1.0
    peaks, angles = max_modulus(make_schlicht("rotation", {"theta": t}, order=16), RADII)
    _assert_closed_form(peaks, angles, RADII / (1.0 - RADII) ** 2, -t)


def test_halfplane_maxima_exact():
    peaks, angles = max_modulus(make_schlicht("halfplane", order=16), RADII)
    _assert_closed_form(peaks, angles, RADII / (1.0 - RADII), 0.0)


def test_scalar_radius_returns_floats():
    m, theta = max_modulus(make_schlicht("koebe", order=16), 0.5)
    assert type(m) is float and type(theta) is float


@pytest.mark.parametrize("m", range(1, 65))
def test_hayman_index_matches_scalar_search(m):
    # the theorem2 members; the reference is the earlier pipeline: growth
    # profile and probe direction from the scalar search at the last radius
    f = make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, order=256)
    radii = default_schedule(f)
    r = radii[-1]
    m_ref, t_ref = reference_max_modulus(f, r)
    upper = (1.0 - r) ** 2 / r * m_ref
    alpha = (1.0 - r) ** 3 * abs(deriv_certified(f, r * np.exp(1j * t_ref))[0]) / (1.0 + r)
    est = hayman_index(f)
    assert abs(est.upper - upper) <= 1e-10 * upper
    assert abs(est.alpha - alpha) <= 1e-10 * alpha
    assert abs(est.theta - t_ref) <= 1e-9
