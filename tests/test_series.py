import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab.errors import (
    DivisionByZeroConstantTerm,
    InnerConstantTermNonzero,
    InvalidParameter,
    SchlichtLabError,
    UnnormalizedConstantTerm,
)
from schlichtlab.series import ComplexSeries, compose


def geometric_ones(order):
    return ComplexSeries(np.ones(order + 1))


class TestArith:
    def test_mul_geometric_times_one_minus_z(self):
        out = geometric_ones(4) * ComplexSeries([1, -1, 0, 0, 0])
        np.testing.assert_allclose(out.coeffs, [1, 0, 0, 0, 0], atol=0)

    def test_add_zero_identity(self):
        s = ComplexSeries([0, 1, 2, 3])
        out = s + ComplexSeries(np.zeros(4))
        np.testing.assert_array_equal(out.coeffs, s.coeffs)

    def test_truncation_is_min_order(self):
        out = ComplexSeries([1, 1, 1, 1, 1, 1]) * ComplexSeries([1, 1])
        assert out.order == 1

    def test_div_by_zero_constant_term(self):
        koebe = ComplexSeries([0, 1, 2, 3, 4])
        with pytest.raises(DivisionByZeroConstantTerm):
            koebe / ComplexSeries([0, 1, 0, 0, 0])

    def test_div_inverts_mul(self):
        a = ComplexSeries([1.0, 0.3, -0.2, 0.1, 0.05])
        b = ComplexSeries([2.0, -1.0, 0.5, 0.25, -0.125])
        np.testing.assert_allclose(((a * b) / b).coeffs, a.coeffs, atol=1e-14)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                     lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_series_copies_and_pickles(copier):
    s = ComplexSeries([0, 1, 2])
    t = copier(s)
    assert type(t) is ComplexSeries
    np.testing.assert_array_equal(t.coeffs, s.coeffs)
    assert not t.coeffs.flags.writeable


class TestTranscend:
    def test_log_of_geometric(self):
        out = geometric_ones(4).log()
        np.testing.assert_allclose(out.coeffs, [0, 1, 1 / 2, 1 / 3, 1 / 4], atol=1e-15)

    def test_exp_log_round_trip_koebe(self):
        p = ComplexSeries(np.arange(1, 66))  # k(z)/z at order 64
        out = p.log().exp()
        np.testing.assert_allclose(out.coeffs, p.coeffs, atol=1e-12)

    def test_sqrt_of_koebe_over_z(self):
        p = ComplexSeries(np.arange(1, 66))
        np.testing.assert_allclose(p.sqrt().coeffs, np.ones(65), atol=1e-12)

    def test_log_requires_normalized_constant(self):
        with pytest.raises(UnnormalizedConstantTerm):
            ComplexSeries([2.0, 1.0]).log()
        with pytest.raises(UnnormalizedConstantTerm):
            ComplexSeries([0.5, 1.0]).sqrt()

    def test_exp_allows_any_constant(self):
        out = ComplexSeries([2.0, 1.0]).exp()
        assert abs(out.coeffs[0] - math.exp(2.0)) < 1e-12


class TestCompose:
    def test_scaling_substitution(self):
        k = ComplexSeries([0, 1, 2, 3, 4])
        rz = ComplexSeries([0, 0.5, 0, 0, 0])
        out = compose(k, rz)
        np.testing.assert_allclose(out.coeffs, [0, 0.5, 0.5, 0.375, 0.25], atol=0)

    def test_scaling_is_exact_power_law(self):
        rng = np.random.default_rng(7)
        s = ComplexSeries(rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        r = 0.37
        out = compose(s, ComplexSeries([0, r] + [0] * 18))
        expect = s.coeffs * r ** np.arange(20)
        np.testing.assert_allclose(out.coeffs, expect, atol=1e-14)

    def test_identity_inner(self):
        s = ComplexSeries([0.5, 1, -2, 3])
        out = compose(s, ComplexSeries([0, 1, 0, 0]))
        np.testing.assert_allclose(out.coeffs, s.coeffs, atol=0)

    def test_exp_compose_log_geometric(self):
        # oracle: 1/(1-z) by direct reciprocal convolution
        n = 12
        recip = np.zeros(n + 1)
        recip[0] = 1.0
        for k in range(1, n + 1):
            recip[k] = recip[k - 1]  # geometric: 1/(1-z) has all-ones coefficients
        exp_ser = ComplexSeries([1 / math.factorial(j) for j in range(n + 1)])
        log_ser = ComplexSeries([0] + [1 / j for j in range(1, n + 1)])
        out = compose(exp_ser, log_ser)
        np.testing.assert_allclose(out.coeffs, recip, atol=1e-12)

    def test_inner_constant_term_must_vanish(self):
        with pytest.raises(InnerConstantTermNonzero):
            compose(ComplexSeries([1, 1, 1]), ComplexSeries([0.5, 1, 0]))


class TestEval:
    def test_koebe_partial_sum_at_half(self):
        k = ComplexSeries(np.arange(65))
        assert abs(k(0.5) - 2.0) < 1e-12  # closed form 0.5/0.25

    def test_eval_at_zero_returns_constant(self):
        s = ComplexSeries([3.5, 1, 2])
        assert s(0.0) == 3.5

    def test_log_series_partial_near_boundary(self):
        n = 128
        s = ComplexSeries([0] + [1 / j for j in range(1, n + 1)])
        val = s(0.9)
        # geometric tail of sum z^n/n beyond order 128 at z=0.9
        tail = 0.9 ** (n + 1) / ((n + 1) * 0.1)
        assert abs(val - (-math.log(0.1))) <= tail + 1e-12
        assert abs(val - (-math.log(0.1))) < 1e-4


# -- randomized algebra laws ------------------------------------------------

finite_complex = st.complex_numbers(max_magnitude=0.5, allow_nan=False,
                                    allow_infinity=False)


@st.composite
def series_triples(draw, max_order=12):
    n = draw(st.integers(min_value=1, max_value=max_order))
    def one():
        return ComplexSeries(draw(st.lists(finite_complex, min_size=n + 1,
                                           max_size=n + 1)))
    return one(), one(), one()


@given(series_triples())
@settings(max_examples=60, deadline=None)
def test_ring_laws(triple):
    a, b, c = triple
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-12)
    np.testing.assert_allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs,
                               atol=1e-12)
    np.testing.assert_allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs,
                               atol=1e-12)


@st.composite
def normalized_series(draw, max_order=16):
    n = draw(st.integers(min_value=1, max_value=max_order))
    tail = draw(st.lists(st.complex_numbers(max_magnitude=0.4, allow_nan=False,
                                            allow_infinity=False),
                         min_size=n, max_size=n))
    return ComplexSeries([1.0] + tail)


@given(normalized_series())
@settings(max_examples=60, deadline=None)
def test_exp_log_round_trip(s):
    np.testing.assert_allclose(s.log().exp().coeffs, s.coeffs, atol=1e-12)


@given(normalized_series())
@settings(max_examples=60, deadline=None)
def test_sqrt_squares_back(s):
    r = s.sqrt()
    np.testing.assert_allclose((r * r).coeffs, s.coeffs, atol=1e-12)


# -- arithmetic beyond double range: an error, never a warning ---------------

OVERFLOWING = {
    "log": lambda: ComplexSeries([1, 1e200, 1e200]).log(),
    "divide by a tiny constant term": lambda: ComplexSeries([1, 1]) / ComplexSeries([1e-320, 1]),
    "exp": lambda: ComplexSeries([800, 1]).exp(),
    "times inf": lambda: ComplexSeries([1, 1]) * float("inf"),
    "divide by 0.0": lambda: ComplexSeries([1, 1]) / 0.0,
    "evaluate": lambda: ComplexSeries([1, 1e300])(1e10),
    "sqrt": lambda: ComplexSeries([1, 1e200, 1e200]).sqrt(),
    "deriv": lambda: ComplexSeries([0, 1, 1.5e308]).deriv(),
    "add": lambda: ComplexSeries([1e308, 1]) + ComplexSeries([1e308, 1]),
    "compose": lambda: compose(ComplexSeries([0, 1, 1]), ComplexSeries([0, 1e200, 1])),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflow_raises_without_a_warning(case):
    with pytest.raises(InvalidParameter):
        OVERFLOWING[case]()


# magnitudes from the subnormal 1e-320 to 1e300, either sign, or zero
wide_floats = st.one_of(st.just(0.0),
                        st.floats(min_value=1e-320, max_value=1e300),
                        st.floats(min_value=-1e300, max_value=-1e-320))
wide_complex = st.builds(complex, wide_floats, wide_floats)


@st.composite
def wide_pairs(draw, max_order=6):
    n = draw(st.integers(min_value=0, max_value=max_order))
    a = draw(st.lists(wide_complex, min_size=n + 1, max_size=n + 1))
    b = draw(st.lists(wide_complex, min_size=n + 1, max_size=n + 1))
    return a, b


OPERATIONS = {
    "mul": lambda a, b, z: ComplexSeries(a) * ComplexSeries(b),
    "mul scalar": lambda a, b, z: ComplexSeries(a) * z,
    "div": lambda a, b, z: ComplexSeries(a) / ComplexSeries(b),
    "div scalar": lambda a, b, z: ComplexSeries(a) / z,
    "log": lambda a, b, z: ComplexSeries([1.0] + a[1:]).log(),
    "exp": lambda a, b, z: ComplexSeries(a).exp(),
    "sqrt": lambda a, b, z: ComplexSeries([1.0] + a[1:]).sqrt(),
    "evaluate": lambda a, b, z: ComplexSeries(a)(z),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", sorted(OPERATIONS))
@given(pair=wide_pairs(), z=wide_complex)
@settings(max_examples=60, deadline=None)
def test_wide_coefficients_give_a_finite_result_or_a_lab_error(op, pair, z):
    try:
        out = OPERATIONS[op](*pair, z)
    except SchlichtLabError:
        return
    values = out.coeffs if isinstance(out, ComplexSeries) else out
    assert np.all(np.isfinite(values))
