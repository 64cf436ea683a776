import cmath
import math
import warnings

import numpy as np
import pytest

from schlichtlab.errors import InvalidParameter, OutsideDisk
from schlichtlab.families import (
    dilated,
    eval_certified,
    deriv_certified,
    invert_to_sigma,
    make_schlicht,
    max_modulus,
    rotated,
)
from schlichtlab.hayman import growth_profile
from schlichtlab.logmilin import prawitz_check
from schlichtlab.series import ComplexSeries

from conftest import TRANSFORM_W


class TestConstruction:
    def test_koebe_coefficients(self):
        f = make_schlicht("koebe", order=5)
        np.testing.assert_array_equal(f.series.coeffs.real, [0, 1, 2, 3, 4, 5])

    def test_halfplane_coefficients(self):
        f = make_schlicht("halfplane", order=5)
        np.testing.assert_array_equal(f.series.coeffs.real, [0, 1, 1, 1, 1, 1])

    def test_dilation_of_koebe(self):
        f = make_schlicht("dilation", {"r": 0.5}, order=4)
        np.testing.assert_allclose(f.series.coeffs.real, [0, 1, 1, 0.75, 0.5],
                                   atol=1e-15)

    def test_rotation_coefficients(self):
        theta = 0.7
        f = make_schlicht("rotation", {"theta": theta}, order=6)
        n = np.arange(7)
        expect = n * np.exp(1j * (n - 1) * theta)
        expect[0] = 0
        np.testing.assert_allclose(f.series.coeffs, expect, atol=1e-14)

    def test_transform_with_real_w_is_koebe(self):
        t = make_schlicht("koebe_transform", {"w": 0.5}, order=32)
        k = make_schlicht("koebe", order=32)
        np.testing.assert_allclose(t.series.coeffs, k.series.coeffs, atol=1e-10)

    def test_transform_fixed_point_of_omitted_value(self):
        # the image of the slit tip is preserved: (-1/4 - k(w))/((1-w^2)k'(w)) = -1/4
        w = 0.5
        kw = w / (1 - w) ** 2
        kpw = (1 + w) / (1 - w) ** 3
        assert abs((-0.25 - kw) / ((1 - w * w) * kpw) - (-0.25)) < 1e-15

    def test_transform_against_rational_expansion(self):
        # independent oracle: the composite is rational with one double pole
        w = TRANSFORM_W
        n = 64
        f = make_schlicht("koebe_transform", {"w": w}, order=n)
        wc = w.conjugate()
        zs = (1 - w) / (1 - wc)
        j = np.arange(n + 1)
        pole = (j + 1) * zs ** (-2.0) * (1 / zs) ** j
        poly = np.zeros(n + 1, complex)
        poly[0], poly[1], poly[2] = w, 1 + abs(w) ** 2, wc
        kphi = np.convolve(poly, pole)[: n + 1] / (1 - wc) ** 2
        kw = w / (1 - w) ** 2
        scale = (1 - abs(w) ** 2) * (1 + w) / (1 - w) ** 3
        expect = (kphi - np.concatenate(([kw], np.zeros(n)))) / scale
        np.testing.assert_allclose(f.series.coeffs, expect, atol=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            make_schlicht("dilation", {"r": 1.0}, order=8)
        with pytest.raises(InvalidParameter):
            make_schlicht("koebe_transform", {"w": 1.0 + 0j}, order=8)
        with pytest.raises(InvalidParameter):
            make_schlicht("custom", {"coeffs": [0, 2, 0]}, order=2)  # a1 != 1

    def test_custom_rejects_coefficient_bound_violation(self):
        bad = np.zeros(9)
        bad[1] = 1.0
        bad[5] = 7.0  # |a_5| > 5
        with pytest.raises(InvalidParameter):
            make_schlicht("custom", {"coeffs": bad}, order=8)


class TestInversion:
    def test_inverted_koebe(self):
        g = invert_to_sigma(make_schlicht("koebe", order=70), 64)
        assert abs(g.b0 + 2.0) < 1e-14
        assert abs(g.tail[0] - 1.0) < 1e-14
        assert np.max(np.abs(g.tail[1:])) < 1e-14

    def test_inverted_halfplane(self):
        g = invert_to_sigma(make_schlicht("halfplane", order=70), 64)
        assert abs(g.b0 + 1.0) < 1e-14
        assert np.max(np.abs(g.tail)) < 1e-14

    def test_inverted_rotation(self):
        # symbolic inversion: f(u)/u = (1 - e^{it}u)^{-2}, so the reciprocal
        # is (1 - e^{it}u)^2 and b0 = -2 e^{it}, b1 = e^{2it}
        theta = math.pi / 5
        g = invert_to_sigma(make_schlicht("rotation", {"theta": theta}, order=70), 64)
        assert abs(g.b0 + 2.0 * cmath.exp(1j * theta)) < 1e-12
        assert abs(g.tail[0] - cmath.exp(2j * theta)) < 1e-12
        assert np.max(np.abs(g.tail[1:])) < 1e-12

    def test_double_inversion_returns_f(self, corpus130):
        # rebuild f from its exterior coefficients: f(z) = z / R(z) with
        # R(z) = 1 + b0 z + sum b_n z^{n+1}
        for f in corpus130:
            g = invert_to_sigma(f, 66)
            r = np.zeros(66, complex)
            r[0] = 1.0
            r[1] = g.b0
            r[2:] = g.tail[:64]
            back = ComplexSeries(np.concatenate(([0.0], (ComplexSeries.one(65) / ComplexSeries(r)).coeffs)))
            np.testing.assert_allclose(back.coeffs[:65], f.series.coeffs[:65],
                                       atol=1e-10, err_msg=f.label())

    def test_inversion_needs_order_margin(self):
        with pytest.raises(InvalidParameter):
            invert_to_sigma(make_schlicht("koebe", order=32), 32)


class TestCertifiedEval:
    def test_koebe_closed_form(self):
        f = make_schlicht("koebe", order=16)
        val, err = eval_certified(f, 0.9)
        assert err == 0.0
        assert abs(val - 90.0) < 1e-10

    def test_series_tail_bound(self):
        f = make_schlicht("custom", {"coeffs": np.arange(129)}, order=128)
        val, err = eval_certified(f, 0.5)
        assert err < 1e-36
        assert abs(val - 2.0) < 1e-12

    def test_outside_disk(self):
        f = make_schlicht("koebe", order=8)
        with pytest.raises(OutsideDisk):
            eval_certified(f, 1.0)

    def test_derivative_certified(self):
        f = make_schlicht("custom", {"coeffs": np.arange(129)}, order=128)
        val, err = deriv_certified(f, 0.5)
        # k'(0.5) = 1.5 / 0.125 = 12
        assert abs(val - 12.0) < 1e-10
        assert err < 1e-30
        g = make_schlicht("koebe", order=16)
        val2, err2 = deriv_certified(g, 0.5)
        assert err2 == 0.0 and abs(val2 - 12.0) < 1e-12


class TestMaxModulus:
    def test_koebe(self):
        m, theta = max_modulus(make_schlicht("koebe", order=16), 0.5)
        assert abs(m - 2.0) < 1e-10
        assert abs(theta) < 1e-6

    def test_rotation(self):
        f = make_schlicht("rotation", {"theta": math.pi / 3}, order=16)
        m, theta = max_modulus(f, 0.5)
        assert abs(m - 2.0) < 1e-10
        assert abs(theta + math.pi / 3) < 1e-6

    def test_halfplane(self):
        m, theta = max_modulus(make_schlicht("halfplane", order=16), 0.5)
        assert abs(m - 1.0) < 1e-12
        assert abs(theta) < 1e-6

    def test_grid_validation(self):
        f = make_schlicht("koebe", order=16)
        with pytest.raises(InvalidParameter):
            max_modulus(f, 0.5, grid=32)
        with pytest.raises(OutsideDisk):
            max_modulus(f, 1.2)

    @pytest.mark.parametrize("radii, error", [
        ([], InvalidParameter),
        ([[0.5, 0.6]], InvalidParameter),
        (np.array([[0.5]]), InvalidParameter),
        (0.5j, InvalidParameter),
        ("0.5", InvalidParameter),
        (math.nan, OutsideDisk),
        (math.inf, OutsideDisk),
        (-math.inf, OutsideDisk),
        (0.0, OutsideDisk),
        (1.0, OutsideDisk),
        ([0.5, math.nan], OutsideDisk),
        ([0.5, -math.inf], OutsideDisk),
        ([0.2, 1.0], OutsideDisk),
        (np.array([-0.1, 0.5]), OutsideDisk),
    ])
    def test_radius_validation(self, radii, error):
        f = make_schlicht("koebe", order=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                max_modulus(f, radii)


class TestRadiusGrid:
    """growth_profile and prawitz_check share one check of their radius grid."""

    CALLERS = {
        "growth": lambda f, radii: growth_profile(f, radii),
        "derivative": lambda f, radii: growth_profile(f, radii, estimator="derivative",
                                                      theta=0.0),
        "prawitz": lambda f, radii: prawitz_check(f, radii),
    }

    @pytest.mark.parametrize("radii", [
        [0.5, math.nan],
        [math.nan],
        [0.5, math.inf],
        [-math.inf, 0.5],
        [],
        0.5,
        [[0.3, 0.5]],
        [0.5, 0.5],
        [0.0, 0.5],
        [0.5, 1.0],
        [0.5j, 0.6],
    ], ids=repr)
    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_bad_radii_rejected(self, caller, radii):
        f = make_schlicht("koebe", order=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter):
                self.CALLERS[caller](f, radii)


class TestInvariants:
    def test_normalization_corpus_wide(self, corpus130):
        for f in corpus130:
            assert abs(f.series.coeffs[0]) <= 1e-12
            assert abs(f.series.coeffs[1] - 1.0) <= 1e-12

    def test_coefficient_bound_corpus_wide(self, corpus130):
        for f in corpus130:
            n = np.arange(f.order + 1)
            assert np.all(np.abs(f.series.coeffs) <= n + 1e-9), f.label()

    def test_rotation_preserves_moduli(self, corpus130):
        for f in corpus130:
            rot = rotated(f, 0.83)
            np.testing.assert_allclose(np.abs(rot.series.coeffs),
                                       np.abs(f.series.coeffs), atol=1e-12)

    def test_dilation_composition_law(self):
        f = make_schlicht("koebe", order=40)
        two_step = dilated(dilated(f, 0.8), 0.7)
        one_step = dilated(f, 0.56)
        np.testing.assert_allclose(two_step.series.coeffs, one_step.series.coeffs,
                                   atol=1e-12)

    def test_closed_forms_match_series(self, corpus130):
        z = 0.31 + 0.4j
        for f in corpus130:
            val, _ = eval_certified(f, z)
            assert abs(val - f.series(z)) < 1e-9, f.label()
