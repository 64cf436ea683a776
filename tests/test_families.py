import cmath
import copy
import inspect
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from schlichtlab import families
from schlichtlab.errors import InvalidParameter, OutsideDisk
from schlichtlab.families import (
    CIRCLE_GRID,
    KIND_PARAMETERS,
    MAX_ORDER,
    SchlichtFunction,
    SigmaFunction,
    dilated,
    eval_certified,
    deriv_certified,
    invert_to_sigma,
    make_schlicht,
    max_modulus,
    rotated,
)
from schlichtlab.hayman import (_derivative_rows, default_schedule, growth_direction,
                               growth_profile, hayman_index)
from schlichtlab.logmilin import PRAWITZ_NODES, prawitz_check
from schlichtlab.series import ComplexSeries, compose

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

    def test_kind_table(self):
        assert KIND_PARAMETERS == {"koebe": (), "halfplane": (), "rotation": ("theta",),
                                   "dilation": ("r",), "koebe_transform": ("w",),
                                   "custom": ("coeffs",)}

    # one key outside each kind's entry: a misspelling, another kind's key,
    # or the dilation base that kind no longer reads
    OUTSIDE_KEYS = {
        "koebe": {"r": 0.5},
        "halfplane": {"theta": 1.0},
        "rotation": {"thetaa": 1.0},
        "dilation": {"r": 0.5, "base": "halfplane"},
        "koebe_transform": {"W": 0.3j},
        "custom": {"coeffs": np.arange(9), "w": 0.3},
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", sorted(OUTSIDE_KEYS))
    def test_key_outside_the_kind_is_refused(self, kind):
        reads = re.escape(str(list(KIND_PARAMETERS[kind])))
        with pytest.raises(InvalidParameter, match=f"keys for {kind}: .*; it reads {reads}"):
            make_schlicht(kind, self.OUTSIDE_KEYS[kind], order=8)

    def test_own_keys_accepted_and_labelled(self):
        assert make_schlicht("koebe", {}, 8).label() == "koebe"
        assert make_schlicht("rotation", {"theta": 1.0}, 8).label() == "rotation(theta=1)"
        assert make_schlicht("dilation", {"r": 0.5}, 8).label() == "dilation(r=0.5)"
        assert make_schlicht("koebe_transform", {"w": 0.3j}, 8).label() == \
            "koebe_transform(w=0+0.3j)"

    @pytest.mark.parametrize("params", [5, "theta", [("theta", 1.0)]], ids=repr)
    def test_params_must_be_a_dict(self, params):
        with pytest.raises(InvalidParameter, match="params must be a dict"):
            make_schlicht("rotation", params, order=8)

    @pytest.mark.parametrize("kind", ["koebe2", "", None, ["koebe"]], ids=repr)
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(InvalidParameter, match="unknown family kind"):
            make_schlicht(kind, order=8)

    def test_custom_rejects_coefficient_bound_violation(self):
        bad = np.zeros(9)
        bad[1] = 1.0
        bad[5] = 7.0  # |a_5| > 5
        with pytest.raises(InvalidParameter):
            make_schlicht("custom", {"coeffs": bad}, order=8)


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda f: pickle.loads(pickle.dumps(f))}
COPIED = {
    "transform": make_schlicht("koebe_transform", {"w": TRANSFORM_W}, order=16),
    "rotated dilation": rotated(make_schlicht("dilation", {"r": 0.5}, order=16), 0.3),
    "custom": make_schlicht("custom", {"coeffs": [-1e-13, 1.0, 0.5]}, order=2),
}


class TestBuiltMembers:
    @pytest.mark.parametrize("copier", sorted(COPIERS))
    @pytest.mark.parametrize("name", sorted(COPIED))
    def test_a_copy_is_the_member(self, name, copier):
        # a copy or an unpickled member skips the constructor's gate: it is a builder's member
        f = COPIED[name]
        g = COPIERS[copier](f)
        assert type(g) is SchlichtFunction
        assert (g.kind, g.params, g.beta_rho) == (f.kind, f.params, f.beta_rho)
        np.testing.assert_array_equal(g.series.coeffs, f.series.coeffs)
        assert not g.series.coeffs.flags.writeable
        assert g.value(0.3) == f.value(0.3)

    def test_custom_keeps_its_a0_and_the_scalings_zero_it(self):
        f = COPIED["custom"]
        assert f.series.coeffs[0] == -1e-13
        for g in (rotated(f, 2.5), dilated(f, 0.5)):
            a0 = g.series.coeffs[0]
            assert a0 == 0.0 and not np.signbit(a0.real) and not np.signbit(a0.imag)


class TestEquality:
    def test_a_copy_equals_its_original(self):
        k = make_schlicht("koebe", order=8)
        assert copy.deepcopy(k) == k and copy.deepcopy(k.series) == k.series
        assert k == make_schlicht("koebe", order=8)
        assert k != make_schlicht("halfplane", order=8)
        assert k != dilated(k, 0.5) and k.series != 1.0

    def test_hash_names_the_class(self):
        k = make_schlicht("koebe", order=8)
        with pytest.raises(TypeError, match="'SchlichtFunction'"):
            hash(k)
        with pytest.raises(TypeError, match="'ComplexSeries'"):
            hash(k.series)

    def test_an_unpickled_window_member_owns_its_coefficients(self):
        block, members = families._transforms([0.3, 0.3j, -0.2], 16)
        for f in members:
            g = pickle.loads(pickle.dumps(f))
            assert g == f
            assert g.series.coeffs.flags.owndata and not g.series.coeffs.flags.writeable
            assert not np.shares_memory(g.series.coeffs, block)


class TestLabels:
    def test_dilated_records_where_it_came_from(self):
        # one map, two provenances: pairs (0.478+0.148i, 0) and (0.5, 0)
        k = make_schlicht("koebe", order=8)
        g = dilated(rotated(k, 0.3), 0.5)
        assert g.label() == "custom(dilated_from=custom,r=0.5)"
        assert make_schlicht("dilation", {"r": 0.5}, 8).label() == "dilation(r=0.5)"
        assert dilated(k, 0.5).params == {"dilated_from": "koebe", "r": 0.5}

    def test_windows_keep_the_dilation_label(self):
        _, members = families._dilations(make_schlicht("halfplane", order=8), [0.5, 0.75])
        assert [f.label() for f in members] == ["dilation(r=0.5)", "dilation(r=0.75)"]


def _bits(f):
    """A member's coefficients, pair and params, floats spelled exactly."""
    return f.series.coeffs.tobytes(), repr(f.beta_rho), f.kind, repr(f.params)


class TestWindows:
    # 1,200 rows of order 16 make blocks of 20,400 entries, past the 16,384
    # complex128 entries from which numpy reuses an operator's temporary in place
    ORDER = 16
    ELISION = 16384

    def test_a_transform_window_equals_its_members_built_one_by_one(self):
        ws = [0.3 * cmath.exp(1j / m) for m in range(1, 1201)] + [0.99j, -0.7 + 0.1j]
        block, members = families._transforms(ws, self.ORDER)
        assert block.size >= self.ELISION and len(members) == len(ws)
        for w, f in zip(ws, members):
            single = make_schlicht("koebe_transform", {"w": w}, self.ORDER)
            assert _bits(f) == _bits(single) and f == single

    @pytest.mark.parametrize("kind", ["koebe", "halfplane"])
    def test_a_dilation_window_equals_its_members_built_one_by_one(self, kind):
        base = make_schlicht(kind, order=self.ORDER)
        radii = [1.0 - 1.0 / m for m in range(2, 1202)] + [1e-300, 5e-324]
        block, members = families._dilations(base, radii)
        assert block.size >= self.ELISION
        for r, f in zip(radii, members):
            single = dilated(base, r)
            assert f.series.coeffs.tobytes() == single.series.coeffs.tobytes()
            assert (f.beta_rho, f.kind, f.params) == (single.beta_rho, "dilation", {"r": r})
        if kind == "koebe":
            assert members[5] == make_schlicht("dilation", {"r": radii[5]}, self.ORDER)

    def test_window_rows_are_read_only_views(self):
        block, members = families._transforms([0.3, 0.1j], 8)
        assert not block.flags.writeable
        for i, f in enumerate(members):
            assert f.series.coeffs.base is block and np.shares_memory(f.series.coeffs, block[i])
            with pytest.raises(ValueError, match="read-only"):
                f.series.coeffs[3] = 0.0
        with pytest.raises(InvalidParameter, match="by make_schlicht"):
            SchlichtFunction(members[0].series, "koebe_transform", {"w": 0.3}, members[0].beta_rho)

    def test_a_bad_window_names_its_row(self):
        with pytest.raises(InvalidParameter, match=r"needs \|w\| < 1"):
            families._transforms([0.3, 1.0], 8)
        with pytest.raises(InvalidParameter, match=r"needs r in \(0, 1\)"):
            families._dilations(make_schlicht("koebe", order=8), [0.5, 1.0])
        block = np.zeros((3, 6), dtype=np.complex128)
        block[:, 1] = 1.0
        block[1, 4] = 4.5
        with pytest.raises(InvalidParameter, match=r"x \(row 1 of its window\): \|a_4\| = 4.5"):
            families._check_class_s(block, "x")
        block[1, 4], block[2, 0] = np.nan, 1e-11
        with pytest.raises(InvalidParameter, match=r"row 1 .*: \|a_4\| = nan exceeds"):
            families._check_class_s(block, "x")
        block[1, 4] = 0.0
        with pytest.raises(InvalidParameter, match=r"row 2 .*: series is not normalized"):
            families._check_class_s(block, "x")


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [0.0, -0.0, 0j, 0])
    def test_series_tail_bounds_vanish_at_the_origin(self, z):
        # both closed-form tails give 0.0 at x = 0 with no guard of their own
        f = make_schlicht("custom", {"coeffs": np.arange(129)}, order=128)
        assert eval_certified(f, z) == (0.0, 0.0)
        assert deriv_certified(f, z) == (1.0, 0.0)


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


def _koebe16():
    return make_schlicht("koebe", order=16)


def _series_only16():
    return make_schlicht("custom", {"coeffs": np.arange(17)}, order=16)


class TestBadInputs:
    """Bad parameters and points raise a SchlichtLabError, never a warning or NaN."""

    CASES = {
        "rotation theta inf": (InvalidParameter,
                               lambda: make_schlicht("rotation", {"theta": math.inf}, 16)),
        "rotation theta nan": (InvalidParameter,
                               lambda: make_schlicht("rotation", {"theta": math.nan}, 16)),
        "rotation theta str": (InvalidParameter,
                               lambda: make_schlicht("rotation", {"theta": "x"}, 16)),
        "rotated phi inf": (InvalidParameter, lambda: rotated(_koebe16(), math.inf)),
        "rotated phi nan": (InvalidParameter, lambda: rotated(_series_only16(), math.nan)),
        "dilation r str": (InvalidParameter,
                           lambda: make_schlicht("dilation", {"r": "x"}, 16)),
        "dilation r missing": (InvalidParameter, lambda: make_schlicht("dilation", {}, 16)),
        "dilation r nan": (InvalidParameter,
                           lambda: make_schlicht("dilation", {"r": math.nan}, 16)),
        "dilated r None": (InvalidParameter, lambda: dilated(_koebe16(), None)),
        "transform w nan": (InvalidParameter,
                            lambda: make_schlicht("koebe_transform", {"w": complex(math.nan, 0)}, 16)),
        "transform w str": (InvalidParameter,
                            lambda: make_schlicht("koebe_transform", {"w": "x"}, 16)),
        "eval nan": (OutsideDisk, lambda: eval_certified(_koebe16(), math.nan)),
        "eval nan series-only": (OutsideDisk, lambda: eval_certified(_series_only16(), math.nan)),
        "eval complex inf": (OutsideDisk, lambda: eval_certified(_koebe16(), complex(0, math.inf))),
        "deriv nan": (OutsideDisk, lambda: deriv_certified(_koebe16(), math.nan)),
        "deriv nan series-only": (OutsideDisk,
                                  lambda: deriv_certified(_series_only16(), complex(math.nan, 0))),
        "eval point str": (InvalidParameter, lambda: eval_certified(_koebe16(), "x")),
        "eval point None": (InvalidParameter, lambda: eval_certified(_series_only16(), None)),
        "deriv point str": (InvalidParameter, lambda: deriv_certified(_koebe16(), "x")),
        "deriv point None": (InvalidParameter,
                             lambda: deriv_certified(_series_only16(), None)),
        "custom coeffs str": (InvalidParameter,
                              lambda: make_schlicht("custom", {"coeffs": "abc"}, 16)),
        "custom coeffs missing": (InvalidParameter, lambda: make_schlicht("custom", {}, 16)),
        "custom coeffs wrong length": (InvalidParameter, lambda: make_schlicht(
            "custom", {"coeffs": np.arange(16)}, 16)),
        "custom coeffs ragged": (InvalidParameter,
                                 lambda: make_schlicht("custom", {"coeffs": [[0, 1], [2]]}, 16)),
        "derivative profile theta nan": (InvalidParameter, lambda: _derivative_rows(
            [_koebe16()], np.array([0.5, 0.75]), [math.nan])),
        "sigma b0 str": (InvalidParameter,
                         lambda: SigmaFunction(b0="x", tail=np.zeros(2), order=2)),
        "sigma b0 None": (InvalidParameter,
                          lambda: SigmaFunction(b0=None, tail=np.zeros(2), order=2)),
        "sigma b0 inf": (InvalidParameter,
                         lambda: SigmaFunction(b0=complex(0, math.inf), tail=np.zeros(2), order=2)),
        "sigma tail str": (InvalidParameter, lambda: SigmaFunction(b0=0j, tail="x", order=2)),
        "sigma tail ragged": (InvalidParameter,
                              lambda: SigmaFunction(b0=0j, tail=[[0, 1], [2]], order=2)),
        "sigma tail wrong length": (InvalidParameter,
                                    lambda: SigmaFunction(b0=0j, tail=np.zeros(3), order=2)),
        "sigma tail nan": (InvalidParameter,
                           lambda: SigmaFunction(b0=0j, tail=[0.0, math.nan], order=2)),
        "series coeffs empty": (InvalidParameter, lambda: ComplexSeries([])),
        "compose inner int": (InvalidParameter, lambda: compose(_koebe16().series, 3)),
        "compose outer None": (InvalidParameter, lambda: compose(None, _koebe16().series)),
        "hayman index of an int": (InvalidParameter, lambda: hayman_index(3)),
        "series coeffs str": (InvalidParameter, lambda: ComplexSeries("x")),
        "series coeffs str log": (InvalidParameter, lambda: ComplexSeries("x").log()),
        "series coeffs ragged": (InvalidParameter, lambda: ComplexSeries([[0, 1], [2]])),
        "series one order 1e30": (InvalidParameter, lambda: ComplexSeries.one(10**30)),
        "series one order past the ceiling": (InvalidParameter,
                                              lambda: ComplexSeries.one(MAX_ORDER + 1)),
        "series times array": (InvalidParameter, lambda: _koebe16().series * np.array([1., 2.])),
        "series over array": (InvalidParameter, lambda: _koebe16().series / np.array([1., 2.])),
        "series plus empty list": (InvalidParameter, lambda: _koebe16().series + []),
        "array times series": (InvalidParameter, lambda: np.array([1., 2.]) * _koebe16().series),
        "array plus series": (InvalidParameter, lambda: np.array([1., 2.]) + _koebe16().series),
        "series times str": (InvalidParameter, lambda: _koebe16().series * "x"),
        "series plus str": (InvalidParameter, lambda: _koebe16().series + "x"),
        "series minus str": (InvalidParameter, lambda: _koebe16().series - "1"),
        "str over series": (InvalidParameter, lambda: "x" / _koebe16().series),
        "series times bool": (InvalidParameter, lambda: _koebe16().series * True),
        "series times int past double range": (InvalidParameter,
                                               lambda: _koebe16().series * 10**400),
        "series at None": (InvalidParameter, lambda: _koebe16().series(None)),
        "series at str": (InvalidParameter, lambda: _koebe16().series("x")),
        "series at bool array": (InvalidParameter,
                                 lambda: _koebe16().series(np.array([True, False]))),
        "value at str": (InvalidParameter, lambda: _koebe16().value("x")),
        "value at str series-only": (InvalidParameter, lambda: _series_only16().value("x")),
        "deriv at None": (InvalidParameter, lambda: _koebe16().deriv(None)),
        "deriv at None series-only": (InvalidParameter, lambda: _series_only16().deriv(None)),
        "rotated of a series": (InvalidParameter, lambda: rotated(_koebe16().series, 0.5)),
        "dilated of None": (InvalidParameter, lambda: dilated(None, 0.5)),
        "invert_to_sigma of a float": (InvalidParameter, lambda: invert_to_sigma(0.5, 4)),
        "eval_certified of a series": (InvalidParameter,
                                       lambda: eval_certified(_koebe16().series, 0.5)),
        "deriv_certified of a str": (InvalidParameter, lambda: deriv_certified("koebe", 0.5)),
        "default_schedule of None": (InvalidParameter, lambda: default_schedule(None)),
        "eval point int past double range": (InvalidParameter,
                                             lambda: eval_certified(_koebe16(), 10**400)),
        "value at int past double range": (InvalidParameter, lambda: _koebe16().value(10**400)),
        "series at int past double range": (InvalidParameter,
                                            lambda: _koebe16().series(-10**400)),
        "series coeffs int past double range": (InvalidParameter,
                                                lambda: ComplexSeries([0, 1, 10**400])),
        "sigma order past double range": (InvalidParameter,
                                          lambda: SigmaFunction(0.0, np.zeros(2), 10**400)),
        "sigma order empty array": (InvalidParameter,
                                    lambda: SigmaFunction(0.0, np.zeros(2), np.array([]))),
        "sigma tail int past double range": (InvalidParameter,
                                             lambda: SigmaFunction(0.0, [0, 10**400], 2)),
        "max_modulus radii ragged": (InvalidParameter,
                                     lambda: max_modulus(_koebe16(), [[0.5, 0.6], [0.7]])),
        "growth_profile radii ragged": (InvalidParameter,
                                        lambda: growth_profile(_koebe16(), [[0.5], [0.6, 0.7]])),
        # one definition of a number: a numeric string, a bool or a complex
        # for a real parameter is not a number
        "dilated r numeric str": (InvalidParameter, lambda: dilated(_koebe16(), "0.5")),
        "rotated phi bool": (InvalidParameter, lambda: rotated(_koebe16(), True)),
        "rotated phi numpy complex": (InvalidParameter,
                                      lambda: rotated(_koebe16(), np.complex64(0.5 + 3j))),
        "rotated phi timedelta": (InvalidParameter,
                                  lambda: rotated(_koebe16(), np.timedelta64(1))),
        "rotation theta numeric str": (InvalidParameter,
                                       lambda: make_schlicht("rotation", {"theta": "1e-1"})),
        "transform w numeric str": (InvalidParameter,
                                    lambda: make_schlicht("koebe_transform", {"w": "0.3"})),
        "sigma b0 numeric str": (InvalidParameter, lambda: SigmaFunction("1", [], 0)),
        "series coeffs numeric strs": (InvalidParameter, lambda: ComplexSeries(["0", "1"])),
        "series coeffs bools": (InvalidParameter, lambda: ComplexSeries([True, False])),
        "custom coeffs numeric strs": (InvalidParameter, lambda: make_schlicht(
            "custom", {"coeffs": ["0", "1", "0"]}, 2)),
        "sigma tail numeric strs": (InvalidParameter,
                                    lambda: SigmaFunction(0.0, ["1", "2"], 2)),
        "custom coeffs int past double range": (InvalidParameter, lambda: make_schlicht(
            "custom", {"coeffs": [0, 1, 10**400]}, 2)),
        "series coeffs long double past double range": (InvalidParameter, lambda: ComplexSeries(
            np.array([0, 1, np.longdouble("1e4000")], dtype=np.clongdouble))),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_lab_error(self, case):
        error, call = self.CASES[case]
        with pytest.raises(error):
            call()

    @pytest.mark.filterwarnings("error")
    def test_a_nan_point_gives_nan_without_a_warning(self):
        z = np.array([math.nan, 0.5, 1.0])  # 1 is the Koebe map's pole
        for out in (_koebe16().value(z), _koebe16().deriv(z)):
            assert np.isnan(out[0]) and np.isfinite(out[1]) and not np.isfinite(out[2])

    @pytest.mark.filterwarnings("error")
    def test_numbers_and_numeric_arrays_still_accepted(self):
        # a number operand gives the bits it gave before the type test
        s = rotated(_koebe16(), 2.0).series
        for x in (2, 2.5, 0.5 - 1j, np.float64(2.5), np.complex128(0.5 - 1j), np.int64(3)):
            assert (s * x).coeffs.tobytes() == (s.coeffs * x).tobytes()
            assert (s / x).coeffs.tobytes() == (s.coeffs / x).tobytes()
            assert (s + x).coeffs[0] == complex(x) and (s - x).coeffs[0] == -complex(x)
            assert (x * s).coeffs.tobytes() == (s * x).coeffs.tobytes()
        z = np.array([0.1, -0.2])
        for point in (0.25, 0, 0.1j, np.float32(0.25), np.int64(0), z, z.astype(np.float32),
                      np.array([0, 0]), z + 0.1j):
            for f in (_koebe16(), _series_only16()):
                for out in (f.value(point), f.deriv(point), f.series(point)):
                    assert np.shape(out) == np.shape(point) and np.all(np.isfinite(out))

    # numbers that once escaped as a bare TypeError or with a message naming
    # another parameter; each now goes through the shared checks
    PARAMETER_CASES = {
        "invert_to_sigma order str": ("exterior order must be an integer",
                                      lambda: invert_to_sigma(_koebe16(), "4")),
        "invert_to_sigma order fractional": ("exterior order must be an integer",
                                             lambda: invert_to_sigma(_koebe16(), 2.5)),
        "invert_to_sigma order negative": ("exterior order must be at least 0",
                                           lambda: invert_to_sigma(_koebe16(), -1)),
        "growth_direction r_probe str": ("r_probe must be a number",
                                         lambda: growth_direction(_koebe16(), "x")),
        # once passed its own check, then failed in max_modulus naming the radii
        "growth_direction r_probe numeric str": ("r_probe must be a number",
                                                 lambda: growth_direction(_koebe16(), "0.95")),
        "series one order nan": ("order must be an integer",
                                 lambda: ComplexSeries.one(math.nan)),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(PARAMETER_CASES))
    def test_number_checks_name_the_parameter(self, case):
        message, call = self.PARAMETER_CASES[case]
        with pytest.raises(InvalidParameter, match=message):
            call()


class TestIntegerParameters:
    """Series orders share one integer check."""

    CASES = {
        "order fractional": lambda: make_schlicht("koebe", order=8.5),
        "order str": lambda: make_schlicht("koebe", order="8"),
        "order true": lambda: make_schlicht("koebe", order=True),
        "order false": lambda: make_schlicht("halfplane", order=False),
        "order nan": lambda: make_schlicht("koebe_transform", {"w": 0.3}, order=math.nan),
        "order past the ceiling": lambda: make_schlicht("koebe", order=MAX_ORDER + 1),
        "order 1e30": lambda: make_schlicht("rotation", {"theta": 0.5}, order=10**30),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_invalid_parameter(self, case):
        with pytest.raises(InvalidParameter):
            self.CASES[case]()

    @pytest.mark.filterwarnings("error")
    def test_order_ceiling_is_inclusive(self):
        assert make_schlicht("halfplane", order=MAX_ORDER).order == MAX_ORDER
        with pytest.raises(InvalidParameter, match=f"order must be at most {MAX_ORDER}"):
            make_schlicht("halfplane", order=MAX_ORDER + 1)

    def test_numpy_integers_accepted(self):
        f = make_schlicht("koebe", order=np.int64(16))
        assert f.order == 16
        np.testing.assert_array_equal(
            make_schlicht("dilation", {"r": 0.5}, order=np.int32(8)).series.coeffs,
            make_schlicht("dilation", {"r": 0.5}, order=8).series.coeffs)


def test_circle_rules_are_constants():
    # the circle search's grid and the Prawitz rule are fixed, not parameters
    for fn in (max_modulus, hayman_index, growth_profile, growth_direction, prawitz_check):
        assert not {"grid", "quad_points"} & set(inspect.signature(fn).parameters), fn
    assert (CIRCLE_GRID, PRAWITZ_NODES) == (512, 1024)


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

    def test_dilated_takes_only_f_and_r(self):
        assert list(inspect.signature(dilated).parameters) == ["f", "r"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [5e-324, 1e-320, 1e-200, 1e-30])
    def test_tiny_dilation_keeps_its_bits_without_a_warning(self, r):
        # r^{n-1} for n >= 1 only: r^{-1} would overflow, and a_0 is 0 anyway
        f = make_schlicht("dilation", {"r": r}, order=64)
        with np.errstate(all="ignore"):
            n = np.arange(65)
            expect = np.arange(65, dtype=np.complex128) * r ** (n - 1.0)
        assert f.series.coeffs[0] == 0
        assert f.series.coeffs[1:].tobytes() == expect[1:].tobytes()
        assert f.beta_rho == (r, 0.0)

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
