import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlichtlab.errors import (
    ComplexCoefficients,
    IndexOutOfRange,
    InvalidParameter,
)
from schlichtlab.families import _powers, dilated, make_schlicht
from schlichtlab.logmilin import boundary_mean_coeffs, log_data
from schlichtlab.tauber import (
    T_GRID,
    DoubleFamily,
    cesaro_mean,
    euler_bracket,
    simultaneous_tauber_harness,
    tail_cutoffs,
    tail_supremum,
    tauber_decomposition_check,
    weighted_mean,
)


class TestMeans:
    def test_single_leading_coefficient(self):
        coeffs = np.zeros(12)
        coeffs[0] = 1.0
        for n in range(12):
            assert weighted_mean(coeffs, n) == 1.0

    def test_all_ones(self):
        coeffs = np.ones(10)
        # partial sums are 1, 2, ..., 10; their mean at n=9 is 5.5
        assert abs(cesaro_mean(coeffs, 9) - 5.5) < 1e-15
        assert abs(weighted_mean(coeffs, 9) - 5.5) < 1e-15

    def test_koebe_lambda_rows_vanish(self):
        ld = log_data(make_schlicht("koebe", order=66))
        rows = 2.0 * (ld.gamma[1:].real - 1.0 / np.arange(1, 66))
        assert abs(weighted_mean(rows, 60)) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            cesaro_mean(np.ones(4), 4)

    def test_weighted_mean_of_lambda_rows_vs_direct_summation(self):
        # the weighted mean of 2(Re g_k - 1/k) recomputed by a plain loop
        ld = log_data(make_schlicht("halfplane", order=130))
        rows = ld.lam.real
        for n in (5, 20, 64):
            direct = sum((n + 1 - k) * rows[k] for k in range(n + 1)) / (n + 1)
            assert abs(weighted_mean(rows, n) - direct) <= 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=257),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_weighted_equals_cesaro(self, coeffs, data):
        n = data.draw(st.integers(0, len(coeffs) - 1))
        arr = np.asarray(coeffs)
        assert abs(weighted_mean(arr, n) - cesaro_mean(arr, n)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(arr))) * (n + 1))


class TestHarness:
    def test_koebe_lambda_rows_all_zero(self):
        ld = log_data(make_schlicht("koebe", order=66))
        row = 2.0 * (ld.gamma[1:].real - 1.0 / np.arange(1, 66))
        fam = DoubleFamily(m_values=np.arange(1, 6),
                           coeff_rows=np.tile(row, (5, 1)),
                           alpha=np.zeros(5))
        rep = simultaneous_tauber_harness(fam)
        assert np.max(rep.deviation) < 1e-12
        assert np.max(rep.tail_sup) < 1e-12
        assert rep.iii_bounded

    def test_dilated_halfplane_deviations_match_closed_form(self):
        # boundary-mean rows of h(r_m z)/r_m: the weighted mean at n equals
        # a_{n+1}/(n+1) = r_m^n/(n+1)
        base = make_schlicht("halfplane", order=130)
        ms = np.arange(2, 12)
        rows, alphas = [], []
        for m in ms:
            ld = log_data(dilated(base, 1.0 - 1.0 / m))
            rows.append(ld.f_coeffs.real)
            alphas.append(0.0)
        fam = DoubleFamily(m_values=ms, coeff_rows=np.array(rows),
                           alpha=np.array(alphas))
        rep = simultaneous_tauber_harness(fam)
        for i, m in enumerate(ms):
            r_m = 1.0 - 1.0 / m
            n = np.arange(rep.deviation.shape[1])
            expect = r_m ** n / (n + 1)
            np.testing.assert_allclose(rep.deviation[i], expect, atol=1e-12)
        assert np.all(np.diff(rep.tail_sup) <= 0.0)
        assert rep.tail_sup[-1] < rep.tail_sup[0]
        assert rep.iii_bounded

    def test_designed_violation_of_partial_sum_bound(self):
        rows = np.ones((3, 64))
        fam = DoubleFamily(m_values=np.array([1, 2, 3]), coeff_rows=rows,
                           alpha=np.zeros(3))
        rep = simultaneous_tauber_harness(fam)
        assert rep.l_observed == 64.0  # grows with the truncation
        assert not rep.iii_bounded

    def test_complex_rows_rejected(self):
        rows = np.ones((2, 8), complex)
        rows[0, 3] = 1.0 + 1e-6j
        fam = DoubleFamily(m_values=np.array([1, 2]), coeff_rows=rows,
                           alpha=np.zeros(2))
        with pytest.raises(ComplexCoefficients):
            simultaneous_tauber_harness(fam)

    @pytest.mark.filterwarnings("error")
    def test_complex_held_rows_give_the_real_rows_bits(self):
        # theorem1's boundary-mean rows (m 2..33, order 256), as float rows and
        # as complex rows with zero imaginary parts: the strided real view once
        # took another BLAS path and moved uniform_gap in its last digits
        base = make_schlicht("halfplane", order=256)
        ms = np.arange(2, 34)
        rows = np.array([boundary_mean_coeffs(dilated(base, 1.0 - 1.0 / m)) for m in ms])
        assert not rows.imag.any()
        real, held = (simultaneous_tauber_harness(DoubleFamily(ms, r, np.zeros(len(ms))))
                      for r in (rows.real.copy(), rows))
        assert real.uniform_gap == held.uniform_gap
        assert real.l_observed == held.l_observed
        assert real.deviation.tobytes() == held.deviation.tobytes()
        assert real.tail_sup.tobytes() == held.tail_sup.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_uniform_gap_reads_the_last_two_rows_alone(self):
        # a theorem1-sized window: the gap of the whole family is that of its
        # last two rows, bit for bit, and that of the Abel sums of every row
        rng = np.random.default_rng(5)
        rows, alpha, ms = rng.normal(size=(63, 256)), rng.normal(size=63), np.arange(2, 65)
        whole = simultaneous_tauber_harness(DoubleFamily(ms, rows, alpha))
        last_two = simultaneous_tauber_harness(DoubleFamily(ms[-2:], rows[-2:], alpha[-2:]))
        assert whole.uniform_gap == last_two.uniform_gap
        sums = np.column_stack((np.sum(rows[:, None] * _powers(np.array(T_GRID[:-1]), 256),
                                       axis=2), alpha))
        assert whole.uniform_gap == float(np.max(np.abs(sums[-1] - sums[-2])))
        one = simultaneous_tauber_harness(DoubleFamily(ms[:1], rows[:1], alpha[:1]))
        assert one.uniform_gap == 0.0

    def test_tail_supremum_clamps_and_decreases(self):
        rng = np.random.default_rng(3)
        d = np.abs(rng.normal(size=(6, 40)))
        n_grid, sup = tail_supremum(d, np.arange(5, 11))
        assert len(n_grid) == 39  # 0 .. max(max_m, max_n) - 1
        assert np.all(np.diff(sup) <= 0.0)


def tail_supremum_loop(d, m_values):
    """The cutoff-by-cutoff loop tail_supremum replaced, kept as its reference."""
    m_values = np.asarray(m_values, dtype=int)
    max_m = int(m_values[-1])
    max_n = d.shape[1] - 1
    suffix = np.maximum.accumulate(d[:, ::-1], axis=1)[:, ::-1]
    n_grid = np.arange(max(max_m, max_n))
    sup = np.empty(len(n_grid))
    for i, n_cut in enumerate(n_grid):
        rows = m_values > min(n_cut, max_m - 1)
        sup[i] = float(np.max(suffix[rows, min(n_cut, max_n - 1) + 1]))
    return n_grid, sup


@st.composite
def surfaces(draw):
    """Non-negative surfaces with ties, over m windows that need not start at 1."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 40))
    # a few distinct levels make ties common; free floats cover the rest
    level = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0)
    d = np.array(draw(st.lists(level, min_size=rows * cols, max_size=rows * cols)))
    first = draw(st.integers(-3, 50))
    steps = draw(st.lists(st.integers(1, 4), min_size=rows - 1, max_size=rows - 1))
    return d.reshape(rows, cols), first + np.cumsum([0] + steps)


class TestTailSupremum:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(surface=surfaces())
    @example(surface=(np.array([[3.0, 1.0, 1.0, 0.0]]), np.array([7])))  # one row
    @example(surface=(np.array([[2.0], [2.0], [0.5]]), np.array([2, 3, 9])))  # one column
    def test_matches_cutoff_loop_bitwise(self, surface):
        d, m_values = surface
        n_grid, sup = tail_supremum(d, m_values)
        ref_grid, ref_sup = tail_supremum_loop(d, m_values)
        assert np.array_equal(n_grid, ref_grid)
        assert sup.dtype == ref_sup.dtype
        assert sup.tobytes() == ref_sup.tobytes()

    @pytest.mark.parametrize("shape, m_values, count", [
        ((3, 4), [5, 6, 7], 7),  # the last m sets the grid
        ((2, 40), [1, 2], 39),  # the n count does
        ((1, 1), [1], 1),
    ])
    def test_grid_has_tail_cutoffs_entries(self, shape, m_values, count):
        assert tail_cutoffs(m_values[-1], shape[1]) == count
        n_grid, _ = tail_supremum(np.ones(shape), m_values)
        assert np.array_equal(n_grid, np.arange(count))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d, m_values", [
        (np.zeros((0, 5)), []),
        (np.zeros((2, 0)), [1, 2]),
        (np.zeros(5), [1]),
        (np.ones((3, 4)), [1, 2]),
        (np.ones((3, 4)), [1, 2, 3, 4]),
        (np.ones((3, 4)), [1, 3, 3]),
        (np.ones((3, 4)), [4, 2, 1]),
    ], ids=["no rows", "no columns", "1-D", "short m", "long m", "repeated m",
            "decreasing m"])
    def test_rejects_bad_input(self, d, m_values):
        with pytest.raises(InvalidParameter):
            tail_supremum(d, m_values)


class TestDecomposition:
    def test_koebe_residual_zero(self, ledgers130):
        for n in (2, 8, 32):
            assert tauber_decomposition_check(ledgers130["koebe"], n, 1 - 1 / 8) <= 1e-15

    def test_halfplane_against_direct_summation(self):
        ld = log_data(make_schlicht("halfplane", order=200))
        n, r = 8, 1.0 - 1.0 / 8.0
        residual = tauber_decomposition_check(ld, n, r)
        assert residual <= 1e-10
        # independent recomputation with plain python loops
        k_top = ld.top_index
        b = ld.f_coeffs
        delta = ld.delta
        lhs = sum(b[k] * r ** k for k in range(k_top + 1)) - ld.sigma[n]
        rhs = (1 - r) * sum(delta[k] * r ** k for k in range(1, k_top + 1))
        rhs += sum(delta[k] / k * r ** k for k in range(n, k_top + 1))
        rhs += sum(delta[k] / k * (r ** k - 1) for k in range(1, n))
        rhs -= delta[n] / n
        rhs += delta[k_top] * r ** (k_top + 1)
        assert abs(abs(lhs - rhs) - residual) < 1e-14

    def test_dilated_koebe(self):
        ld = log_data(make_schlicht("dilation", {"r": 0.9}, order=258))
        assert tauber_decomposition_check(ld, 16, 1 - 1 / 16) <= 1e-10

    def test_corpus_small_orders(self, ledgers130):
        for label, ld in ledgers130.items():
            for n in (2, 16, 64):
                res = tauber_decomposition_check(ld, n, 1.0 - 1.0 / max(n, 4))
                assert res <= 1e-10, (label, n)

    def test_index_validation(self, ledgers130):
        ld = ledgers130["koebe"]
        with pytest.raises(IndexOutOfRange):
            tauber_decomposition_check(ld, 1, 0.5)
        with pytest.raises(InvalidParameter):
            tauber_decomposition_check(ld, 4, 1.0)


class TestEulerBracket:
    def test_n_equals_one(self):
        lower, upper, ok = euler_bracket(1)
        assert (lower, upper) == (0.25, 0.5)
        assert ok

    def test_n_ten_values(self):
        lower, upper, ok = euler_bracket(10)
        assert abs(lower - 0.350494) < 1e-6
        assert abs(upper - 0.385543) < 1e-6
        assert ok

    def test_large_n_narrow(self):
        lower, upper, ok = euler_bracket(1000)
        assert ok
        assert upper - lower < 4e-4

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            euler_bracket(0)


class TestBadInputs:
    """Bad indexes, radii and coefficients raise a SchlichtLabError, never a bare error."""

    CASES = {
        "cesaro index fractional": (InvalidParameter, lambda ld: cesaro_mean(np.ones(4), 2.5)),
        "cesaro index str": (InvalidParameter, lambda ld: cesaro_mean(np.ones(4), "2")),
        "weighted index fractional": (InvalidParameter,
                                      lambda ld: weighted_mean(np.ones(4), 2.5)),
        "weighted index nan": (InvalidParameter, lambda ld: weighted_mean(np.ones(4), np.nan)),
        "decomposition n fractional": (InvalidParameter,
                                       lambda ld: tauber_decomposition_check(ld, 2.5, 0.5)),
        "decomposition n str": (InvalidParameter,
                                lambda ld: tauber_decomposition_check(ld, "4", 0.5)),
        "decomposition r str": (InvalidParameter,
                                lambda ld: tauber_decomposition_check(ld, 4, "x")),
        "decomposition r nan": (InvalidParameter,
                                lambda ld: tauber_decomposition_check(ld, 4, np.nan)),
        "euler n nan": (InvalidParameter, lambda ld: euler_bracket(np.nan)),
        "euler n str": (InvalidParameter, lambda ld: euler_bracket("3")),
        "euler n fractional": (InvalidParameter, lambda ld: euler_bracket(2.5)),
        "euler n beyond double range": (InvalidParameter, lambda ld: euler_bracket(10**400)),
        "weighted coefficients str": (InvalidParameter, lambda ld: weighted_mean(["x"], 0)),
        "cesaro coefficients str": (InvalidParameter, lambda ld: cesaro_mean(["x", "y"], 1)),
        "family m_values str": (InvalidParameter,
                                lambda ld: DoubleFamily(["a"], [[1.0]], [0.0])),
        "family lengths mismatched": (InvalidParameter,
                                      lambda ld: DoubleFamily([1, 2], [[1.0]], [0.0])),
        "family without rows": (InvalidParameter, lambda ld: DoubleFamily(
            np.array([], dtype=int), np.zeros((0, 3)), np.zeros(0))),
        "family m_values not increasing": (InvalidParameter, lambda ld: DoubleFamily(
            [2, 2], [[1.0], [1.0]], [0.0, 0.0])),
        "family rows nan": (InvalidParameter,
                            lambda ld: DoubleFamily([1], [[np.nan]], [0.0])),
        "harness of a list": (InvalidParameter, lambda ld: simultaneous_tauber_harness([])),
        "decomposition of a member": (InvalidParameter, lambda ld: tauber_decomposition_check(
            make_schlicht("koebe", order=16), 4, 0.5)),
        "family m_values a number": (InvalidParameter,
                                     lambda ld: DoubleFamily(1, [[1.0]], [0.0])),
        "family alpha a number": (InvalidParameter, lambda ld: DoubleFamily([1], [[1.0]], 0.0)),
        "family rows ragged": (InvalidParameter,
                               lambda ld: DoubleFamily([1, 2], [[1.0, 2.0], [1.0]], [0.0, 0.0])),
        "cesaro coefficients ragged": (InvalidParameter,
                                       lambda ld: cesaro_mean([[1.0, 2.0], [1.0]], 0)),
        "decomposition r numeric str": (InvalidParameter,
                                        lambda ld: tauber_decomposition_check(ld, 4, "0.5")),
        "tail surface ragged": (InvalidParameter,
                                lambda ld: tail_supremum([[1.0, 2.0], [1.0]], [1, 2])),
        "tail surface str": (InvalidParameter,
                             lambda ld: tail_supremum(np.array([["a", "b"]]), [1])),
        "tail m_values fractional": (InvalidParameter,
                                     lambda ld: tail_supremum(np.ones((2, 3)), [1.5, 2.7])),
        "tail cutoffs of None": (InvalidParameter, lambda ld: tail_cutoffs(None, 3)),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_lab_error(self, case, ledgers130):
        error, call = self.CASES[case]
        with pytest.raises(error):
            call(ledgers130["koebe"])
