import inspect
import math

import numpy as np
import pytest

from schlichtlab.errors import AmbiguousDirection, InvalidParameter, NonMonotoneProfile
from schlichtlab.families import deriv_certified, make_schlicht
from schlichtlab.hayman import (
    SERIES_RADIUS_LIMIT,
    _derivative_rows,
    default_schedule,
    growth_direction,
    growth_profile,
    hayman_index,
)

from conftest import TRANSFORM_W, transform_alpha, transform_theta


def derivative_profile(f, radii, theta):
    """The derivative profile of one member along the ray ``theta``, as
    hayman_index computes it once it has found the growth direction."""
    return _derivative_rows([f], np.asarray(radii, dtype=float), [theta])[0]


def spiked(order):
    """z + N z^N at order N: |a_N| = N meets the coefficient bound, and the
    spike makes both profiles rise between r = 0.95 and 0.98 at N = 128."""
    coeffs = np.zeros(order + 1)
    coeffs[1], coeffs[order] = 1.0, order
    return make_schlicht("custom", {"coeffs": coeffs}, order=order)


class TestGrowthProfile:
    def test_koebe_profile_is_one(self):
        f = make_schlicht("koebe", order=16)
        prof = growth_profile(f, [0.5, 0.9, 0.99])
        np.testing.assert_allclose(prof, 1.0, atol=1e-10)

    def test_koebe_derivative_profile_is_one(self):
        # k'(r) = (1+r)/(1-r)^3 makes (1-r)^3 k'(r)/(1+r) identically 1
        f = make_schlicht("koebe", order=16)
        prof = derivative_profile(f, [0.5, 0.9], 0.0)
        np.testing.assert_allclose(prof, 1.0, atol=1e-12)

    def test_takes_only_f_and_radii(self):
        assert list(inspect.signature(growth_profile).parameters) == ["f", "radii"]

    @pytest.mark.parametrize("profile", ["growth", "derivative"])
    def test_rising_profile_is_refused(self, profile):
        f, radii = spiked(128), [0.95, 0.98]
        with pytest.raises(NonMonotoneProfile, match=f"{profile} profile of custom increased"):
            if profile == "growth":
                growth_profile(f, radii)
            else:
                derivative_profile(f, radii, 0.0)

    def test_dilated_koebe_vanishes_near_boundary(self):
        f = make_schlicht("dilation", {"r": 0.9}, order=64)
        prof = growth_profile(f, [1 - 2.0 ** -j for j in range(1, 15)])
        assert prof[-1] < 1e-5  # slow growth: the profile dies

    def test_profiles_non_increasing_corpus_wide(self, corpus130):
        radii = [1 - 2.0 ** -j for j in range(1, 15)]
        for f in corpus130:
            prof = growth_profile(f, radii)
            assert np.all(np.diff(prof) <= 1e-9), f.label()
            assert np.all(prof <= 1.0 + 1e-9), f.label()

    def test_series_only_refuses_deep_radii(self):
        f = make_schlicht("custom", {"coeffs": np.arange(65)}, order=64)
        with pytest.raises(NonMonotoneProfile):
            growth_profile(f, [0.5, 1 - 2.0 ** -12])

    def test_series_only_ok_inside_limit(self):
        f = make_schlicht("custom", {"coeffs": np.arange(257)}, order=256)
        prof = growth_profile(f, [0.5, 0.9, SERIES_RADIUS_LIMIT])
        assert np.all(np.diff(prof) <= 1e-6)

    @pytest.mark.parametrize("f", [
        make_schlicht("koebe_transform", {"w": TRANSFORM_W}, order=64),
        make_schlicht("dilation", {"r": 0.9}, order=64),
        make_schlicht("custom", {"coeffs": np.r_[0.0, 1.0, np.arange(2, 65) * 0.5 ** np.arange(2, 65)]},
                      order=64),
    ], ids=lambda f: f.kind)
    def test_derivative_profile_matches_pointwise_derivatives(self, f):
        # one array evaluation of f' along the ray, against one
        # deriv_certified call per radius
        radii = default_schedule(f)
        theta = 0.3
        prof = derivative_profile(f, radii, theta)
        ref = [(1.0 - r) ** 3 * abs(deriv_certified(f, r * np.exp(1j * theta))[0]) / (1.0 + r)
               for r in radii]
        np.testing.assert_allclose(prof, ref, rtol=1e-13, atol=0.0)

    def test_derivative_needs_theta(self):
        f = make_schlicht("koebe", order=16)
        with pytest.raises(InvalidParameter, match="growth-ray angle theta"):
            derivative_profile(f, [0.5], None)


class TestHaymanIndex:
    def test_koebe_index_one(self):
        est = hayman_index(make_schlicht("koebe", order=64))
        assert abs(est.alpha - 1.0) < 1e-12
        assert abs(est.upper - 1.0) < 1e-12

    def test_halfplane_index_zero(self):
        est = hayman_index(make_schlicht("halfplane", order=64))
        assert est.upper <= 1e-3  # closed-form profile is 1 - r
        assert est.alpha <= est.upper

    def test_rotation_index_one(self):
        est = hayman_index(make_schlicht("rotation", {"theta": math.pi / 3}, order=64))
        assert abs(est.alpha - 1.0) < 1e-10

    def test_transform_bracket(self, transform_estimate):
        est = transform_estimate
        alpha_true = transform_alpha(TRANSFORM_W)
        assert est.bracket_width <= 5e-3
        assert 0.0 < est.alpha <= est.upper <= 1.0 + 1e-9
        # both profile values are certified upper bounds for the true index
        assert est.upper >= alpha_true - 1e-12
        assert abs(est.alpha - alpha_true) <= 5e-3

    def test_estimate_ordering_invariant(self, corpus130):
        for f in corpus130:
            est = hayman_index(f)
            assert 0.0 <= est.alpha <= est.upper <= 1.0 + 1e-9, f.label()

    def test_regularity_spot_check(self):
        k = make_schlicht("koebe", order=64)
        n = np.arange(1, 65)
        np.testing.assert_allclose(np.abs(k.series.coeffs[1:]) / n, 1.0, atol=0)
        h = make_schlicht("halfplane", order=64)
        ratios = np.abs(h.series.coeffs[1:]) / n
        assert ratios[-1] < 0.02  # 1/n -> 0 matches index 0


class TestGrowthDirection:
    def test_koebe_axis(self):
        assert abs(growth_direction(make_schlicht("koebe", order=64), 0.99)) < 1e-6

    def test_rotation_direction(self):
        theta0 = math.pi / 3
        f = make_schlicht("rotation", {"theta": theta0}, order=64)
        assert abs(growth_direction(f, 0.99) + theta0) < 1e-6

    def test_halfplane_has_direction_despite_slow_growth(self):
        assert abs(growth_direction(make_schlicht("halfplane", order=64), 0.99)) < 1e-6

    def test_stable_under_probe_radius(self):
        f = make_schlicht("koebe_transform", {"w": TRANSFORM_W}, order=64)
        t1 = growth_direction(f, 0.99)
        t2 = growth_direction(f, 0.999)
        assert abs(t1 - t2) < 1e-3
        assert abs(t2 - transform_theta(TRANSFORM_W)) < 1e-3

    def test_symmetric_function_is_ambiguous(self):
        # z/(1-z^2): equal circle maxima on both half-axes
        coeffs = np.zeros(65)
        coeffs[1::2] = 1.0
        f = make_schlicht("custom", {"coeffs": coeffs}, order=64)
        with pytest.raises(AmbiguousDirection):
            growth_direction(f, 0.9)

    def test_probe_range_validation(self):
        f = make_schlicht("koebe", order=16)
        with pytest.raises(InvalidParameter):
            growth_direction(f, 0.5)


def test_default_schedule_depends_on_closed_form():
    closed = default_schedule(make_schlicht("koebe", order=16))
    series = default_schedule(make_schlicht("custom", {"coeffs": np.arange(17)}, order=16))
    assert closed[-1] == 1 - 2.0 ** -14
    assert series[-1] == 1 - 2.0 ** -8
