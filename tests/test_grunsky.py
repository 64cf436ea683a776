import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab import grunsky
from schlichtlab.errors import InvalidAlpha, InvalidParameter, OutsideDisk
from schlichtlab.families import (
    SigmaFunction,
    closed_form_log_deriv,
    dilated,
    invert_to_sigma,
    make_schlicht,
    rotated,
    standard_corpus,
)
from schlichtlab.grunsky import (
    NEGLIGIBLE_B,
    bazilevich_equality_residual,
    full_mapping_defect,
    fullness_defect,
    grunsky_matrix,
    grunsky_matrix_direct,
    strong_grunsky_norm,
)
from schlichtlab.logmilin import bazilevich_gap, log_data

from conftest import TRANSFORM_W, inverted_members

MINUS_LOG_3_4 = -math.log(0.75)  # 0.2876820724517809


@pytest.fixture(scope="module")
def koebe_table64():
    f = make_schlicht("koebe", order=140)
    return f, invert_to_sigma(f, 130)


class TestMatrix:
    def test_inverted_koebe_is_diagonal(self, koebe_table64):
        _, g = koebe_table64
        t = grunsky_matrix(g, 64)
        expect = np.zeros((65, 65), complex)
        for n in range(1, 65):
            expect[n, n] = 1.0 / n
        np.testing.assert_allclose(t.gamma_nk, expect, atol=1e-12)

    def test_inverted_halfplane_vanishes(self):
        # bounded image, so no exterior mass: the whole table is zero
        g = invert_to_sigma(make_schlicht("halfplane", order=140), 130)
        t = grunsky_matrix(g, 64)
        assert np.max(np.abs(t.gamma_nk)) < 1e-14

    def test_inverted_rotation_diagonal_phases(self):
        # g(z) - g(w) = (z - w)(1 - e^{2 i t}/(zw)) gives the closed form
        # gamma_nk = delta_nk e^{2 i n t} / n
        theta = math.pi / 5
        g = invert_to_sigma(make_schlicht("rotation", {"theta": theta}, order=70), 64)
        t = grunsky_matrix(g, 16)
        oracle = grunsky_matrix_direct(g, 16)
        np.testing.assert_allclose(t.gamma_nk, oracle.gamma_nk, atol=1e-12)
        n = np.arange(1, 17)
        np.testing.assert_allclose(np.diag(t.gamma_nk)[1:],
                                   np.exp(2j * n * theta) / n, atol=1e-12)

    def test_faber_matches_bivariate_oracle_synthetic(self):
        tail = np.zeros(20, complex)
        tail[0], tail[1], tail[2] = 0.1, 0.05 + 0.02j, -0.02
        g = SigmaFunction(b0=0.3, tail=tail, order=20)
        t = grunsky_matrix(g, 8)
        oracle = grunsky_matrix_direct(g, 8)
        np.testing.assert_allclose(t.gamma_nk, oracle.gamma_nk, atol=1e-13)

    def test_faber_matches_bivariate_oracle_transform(self, transform_sigma260):
        t = grunsky_matrix(transform_sigma260, 8)
        oracle = grunsky_matrix_direct(transform_sigma260, 8)
        np.testing.assert_allclose(t.gamma_nk, oracle.gamma_nk, atol=1e-12)

    def test_symmetry_corpus_wide(self, corpus130):
        for f in corpus130:
            g = invert_to_sigma(f, 128)
            t = grunsky_matrix(g, 64)
            assert np.max(np.abs(t.gamma_nk - t.gamma_nk.T)) <= 1e-10, f.label()

    def test_order_validation(self, koebe_table64):
        _, g = koebe_table64
        with pytest.raises(InvalidParameter):
            grunsky_matrix(g, 131)

    @pytest.mark.parametrize("n_order", [0, -3])
    def test_direct_rejects_nonpositive_order(self, koebe_table64, n_order):
        _, g = koebe_table64
        with pytest.raises(InvalidParameter, match="table order must be positive"):
            grunsky_matrix_direct(g, n_order)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(member=inverted_members(max_order=8))
    def test_faber_matches_bivariate_oracle_property(self, member):
        label, g, n_order = member
        t = grunsky_matrix(g, n_order)
        oracle = grunsky_matrix_direct(g, n_order)
        np.testing.assert_allclose(t.gamma_nk, oracle.gamma_nk, rtol=0, atol=1e-12,
                                   err_msg=label)


class TestNorm:
    def test_inverted_koebe_norm_one(self, koebe_table64):
        _, g = koebe_table64
        norm = strong_grunsky_norm(grunsky_matrix(g, 64))
        assert 1 - 1e-6 <= norm <= 1 + 1e-9

    def test_inverted_halfplane_norm_zero(self):
        g = invert_to_sigma(make_schlicht("halfplane", order=140), 130)
        assert strong_grunsky_norm(grunsky_matrix(g, 64)) == 0.0

    def test_univalence_bound_small_sections(self, corpus130):
        # the largest singular value by SVD is the independent oracle
        for f in corpus130:
            g = invert_to_sigma(f, 128)
            t = grunsky_matrix(g, 16)
            norm = strong_grunsky_norm(t)
            oracle = np.linalg.svd(t.weighted(), compute_uv=False)[0]
            assert norm <= 1 + 1e-9, f.label()
            assert abs(norm - oracle) <= 1e-13 * max(1.0, oracle), f.label()

    def test_univalence_bound_larger_sections(self, transform_sigma260):
        t = grunsky_matrix(transform_sigma260, 64)
        assert strong_grunsky_norm(t) <= 1 + 1e-9

    def test_dense_name_is_the_one_routine(self, corpus130):
        # the earlier name forwards to the one norm routine, bit for bit
        for f in corpus130:
            t = grunsky_matrix(invert_to_sigma(f, 128), 16)
            assert grunsky.grunsky_norm_dense(t).hex() == strong_grunsky_norm(t).hex(), f.label()

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(member=inverted_members(max_order=24))
    def test_dense_norm_univalence_bound_property(self, member):
        label, g, n_order = member
        t = grunsky_matrix(g, n_order)
        norm = strong_grunsky_norm(t)
        oracle = np.linalg.svd(t.weighted(), compute_uv=False)[0]
        assert abs(norm - oracle) <= 1e-13 * max(1.0, oracle), label
        assert norm <= 1 + 1e-9, label


class TestSection:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=30, deadline=None)
    @given(member=inverted_members(max_order=24), data=st.data())
    def test_section_equals_smaller_table_property(self, member, data):
        label, g, n_order = member
        n = data.draw(st.integers(1, n_order))
        section = grunsky_matrix(g, n_order).section(n)
        direct = grunsky_matrix(g, n)
        assert section.order == n
        scale = max(1.0, float(np.max(np.abs(direct.gamma_nk))))
        np.testing.assert_allclose(section.gamma_nk, direct.gamma_nk,
                                   rtol=0, atol=1e-13 * scale, err_msg=label)

    def test_transform_section_of_order_128(self, transform_sigma260):
        big = grunsky_matrix(transform_sigma260, 128)
        for n in (8, 64):
            direct = grunsky_matrix(transform_sigma260, n).gamma_nk
            scale = float(np.max(np.abs(direct)))
            np.testing.assert_allclose(big.section(n).gamma_nk, direct,
                                       rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n", [0, -1, 17])
    def test_rejects_order_outside_table(self, koebe_table64, n):
        _, g = koebe_table64
        with pytest.raises(InvalidParameter, match="section order"):
            grunsky_matrix(g, 16).section(n)


class TestDefect:
    def test_inverted_koebe_full(self, koebe_table64):
        f, g = koebe_table64
        t = grunsky_matrix(g, 64)
        defect, identity = full_mapping_defect(t, log_data(f), f, 0.5)
        assert defect <= 1e-10
        assert identity <= 1e-12

    def test_inverted_halfplane_defect_is_log_three_quarters(self):
        f = make_schlicht("halfplane", order=140)
        g = invert_to_sigma(f, 130)
        t = grunsky_matrix(g, 64)
        defect, identity = full_mapping_defect(t, log_data(f), f, 0.5)
        assert abs(defect - MINUS_LOG_3_4) <= 1e-10
        assert identity <= 1e-12

    def test_transform_defect_small(self, transform262, transform_sigma260):
        t = grunsky_matrix(transform_sigma260, 128)
        defect, identity = full_mapping_defect(t, log_data(transform262),
                                               transform262, 0.5)
        assert defect <= 1e-4
        assert identity <= 1e-8

    def test_defect_decreases_with_section_order(self, transform262, transform_sigma260):
        ld = log_data(transform262)
        defects = []
        for n in (16, 32, 64, 128):
            t = grunsky_matrix(transform_sigma260, n)
            defects.append(full_mapping_defect(t, ld, transform262, 0.5)[0])
        assert all(b <= a + 1e-9 for a, b in zip(defects, defects[1:]))

    def test_identity_residual_corpus_wide(self, corpus130, ledgers130):
        for f in corpus130:
            g = invert_to_sigma(f, 128)
            t = grunsky_matrix(g, 64)
            ld = ledgers130[f.label()]
            for z in (0.5, 0.25 + 0.35j, -0.4j):
                _, identity = full_mapping_defect(t, ld, f, z)
                assert identity <= 1e-8, (f.label(), z)

    @pytest.mark.filterwarnings("error")
    def test_fullness_defect_is_the_defect_of_full_mapping_defect(self, corpus130,
                                                                  ledgers130):
        for f in corpus130:
            g = invert_to_sigma(f, 128)
            for n in (8, 32, 64):
                t = grunsky_matrix(g, n)
                for z in (0.5, 0.25 + 0.35j, -0.4j, 0.0):
                    full = full_mapping_defect(t, ledgers130[f.label()], f, z)
                    assert fullness_defect(t, z) == full[0], (f.label(), n, z)

    @pytest.mark.filterwarnings("error")
    def test_row_polynomials_evaluated_once(self, corpus130, ledgers130, monkeypatch):
        # the defect and the identity sum share one evaluation of A_n(z), and
        # both numbers equal the earlier two-evaluation route bit for bit
        def two_evaluations(t, ld, f, z):
            defect = fullness_defect(t, z)
            lhs = np.sum(grunsky.row_polynomials(t, z) * z ** np.arange(t.order + 1))
            m = min(ld.top_index, f.order - 1)
            log_fz = 2.0 * np.dot(ld.gamma[: m + 1], z ** np.arange(m + 1))
            if f.has_closed_form:
                log_fp = closed_form_log_deriv(z, *f.beta_rho)
            else:
                log_fp = f.series.deriv().log()(z)
            return defect, float(abs(lhs - (2.0 * log_fz - log_fp)))

        custom = make_schlicht("custom", {"coeffs": corpus130[4].series.coeffs}, 130)
        cases = [(f, ledgers130[f.label()]) for f in corpus130] + [(custom, log_data(custom))]
        calls = []
        row_polynomials = grunsky.row_polynomials
        for f, ld in cases:
            t = grunsky_matrix(invert_to_sigma(f, 128), 32)
            for z in (0.5, 0.25 + 0.35j, -0.4j, 0.0):
                expected = two_evaluations(t, ld, f, z)
                monkeypatch.setattr(grunsky, "row_polynomials",
                                    lambda *a: calls.append(1) or row_polynomials(*a))
                got = full_mapping_defect(t, ld, f, z)
                monkeypatch.setattr(grunsky, "row_polynomials", row_polynomials)
                assert [x.hex() for x in got] == [x.hex() for x in expected], (f.label(), z)
        assert len(calls) == 4 * len(cases)

    def test_outside_disk(self, koebe_table64):
        f, g = koebe_table64
        t = grunsky_matrix(g, 16)
        with pytest.raises(OutsideDisk):
            full_mapping_defect(t, log_data(f), f, 1.0 + 0j)
        with pytest.raises(OutsideDisk):
            fullness_defect(t, 0.6 + 0.8j)


class TestEqualityResidual:
    def test_koebe_zero(self, ledgers130):
        assert bazilevich_equality_residual(ledgers130["koebe"], 1.0, 0.0, 128) <= 1e-12

    def test_rotation_zero(self):
        theta0 = math.pi / 3
        ld = log_data(make_schlicht("rotation", {"theta": theta0}, order=130))
        assert bazilevich_equality_residual(ld, 1.0, -theta0, 128) <= 1e-12

    def test_transform_small_with_estimated_index(self, transform262, transform_estimate):
        ld = log_data(transform262)
        est = transform_estimate
        res = bazilevich_equality_residual(ld, est.alpha, est.theta, 128)
        assert res <= 5e-3
        assert est.bracket_width <= 5e-3

    def test_non_full_member_stays_positive(self, ledgers130):
        # the half-plane map omits a disk, so the equality fails strictly;
        # feed the direction 0 with a hypothetical positive index
        res = bazilevich_equality_residual(ledgers130["halfplane"], 0.25, 0.0, 128)
        assert res > 0.05

    def test_invalid_alpha(self, ledgers130):
        with pytest.raises(InvalidAlpha):
            bazilevich_equality_residual(ledgers130["koebe"], 0.0, 0.0, 8)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), alpha=st.floats(0.0, 1.0, exclude_min=True),
           theta=st.floats(-1e6, 1e6), n_terms=st.integers(1, 128))
    def test_is_the_modulus_of_the_bazilevich_gap(self, ledgers130, data, alpha, theta,
                                                    n_terms):
        # one direction-weighted sum: the residual is |gap|, bit for bit (theta
        # stays where k * theta cannot overflow)
        ld = ledgers130[data.draw(st.sampled_from(sorted(ledgers130)))]
        residual = bazilevich_equality_residual(ld, alpha, theta, n_terms)
        assert residual.hex() == abs(bazilevich_gap(ld, alpha, theta, n_terms)[2]).hex()


def parent_grunsky_matrix(g: SigmaFunction, n_order: int) -> np.ndarray:
    """The recurrence convolved and summed over the full width 2N, zeros included.

    The reference for the builder, which runs the same recurrence over b's
    nonzero span only.
    """
    width = 2 * n_order
    b = np.zeros(width, dtype=np.complex128)
    avail = min(g.order, width - 1)
    b[1 : avail + 1] = g.tail[:avail]
    gam = np.zeros((n_order + 1, width), dtype=np.complex128)
    gam[1, 1:] = b[1:]
    for n in range(1, n_order):
        top = width - n
        weights = np.arange(1, n) * b[n - 1 : 0 : -1]
        gam[n + 1, 1:top] = (
            b[n + 1 : width]
            + n * gam[n, 2 : top + 1]
            + n * np.convolve(b[:top], gam[n, :top])[1:top]
            - weights @ gam[1:n, 1:top]
        ) / (n + 1)
    return gam[:, : n_order + 1]


@st.composite
def exterior_maps(draw, max_order: int):
    """(label, exterior map of order 2N, N): an inverted pair, or a random tail.

    Pairs are the corpus kinds, optionally rotated or dilated; a random
    tail has a span s in 0..2N, with either b_s alone nonzero or every
    b_m, m <= s, drawn with |b_m| <= 1/m.
    """
    n_order = draw(st.integers(1, max_order))
    order = 2 * n_order
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["koebe", "halfplane", "rotation", "dilation",
                                     "koebe_transform"]))
        params = None
        if kind == "rotation":
            params = {"theta": draw(st.floats(-math.pi, math.pi))}
        elif kind == "dilation":
            params = {"r": draw(st.floats(0.01, 0.99))}
        elif kind == "koebe_transform":
            params = {"w": cmath.rect(draw(st.floats(0.0, 0.8)), draw(st.floats(-math.pi, math.pi)))}
        f = make_schlicht(kind, params, order + 2)
        if draw(st.booleans()):
            f = rotated(f, draw(st.floats(-math.pi, math.pi)))
        if draw(st.booleans()):
            f = dilated(f, draw(st.floats(0.05, 0.99)))
        return f.label(), invert_to_sigma(f, order), n_order
    span = draw(st.integers(0, order))
    real = draw(st.booleans())

    def coefficient(m):
        x = draw(st.floats(-1.0, 1.0)) / m
        return complex(x, 0.0 if real else draw(st.floats(-1.0, 1.0)) / m)

    tail = np.zeros(order, dtype=np.complex128)
    if span:
        lone = draw(st.booleans())
        for m in ([span] if lone else range(1, span + 1)):
            tail[m - 1] = coefficient(m)
        tail[span - 1] = tail[span - 1] or 1.0 / span
    return f"tail span {span}", SigmaFunction(b0=0.0, tail=tail, order=order), n_order


EPS = float(np.finfo(float).eps)
# allowance for underflow: the running product b_1^k of a b_1 of modulus
# below 1 loses at most a few subnormal units in all
TINY = 2.0 ** -1070


def assert_exact_diagonal(table: np.ndarray, b1: complex, label: str):
    """``table`` is the diagonal of gamma_kk = b1^k / k, b1 the double read
    after the NEGLIGIBLE_B cut: zero off the diagonal (row and column 0
    included), and each gamma_kk within 2 k eps |b1^k / k| + TINY of the
    exact value, taken in rationals.  The builder's running product costs at
    most sqrt(5)/2 eps per complex product and half an eps for the division
    (:func:`grunsky.grunsky_matrix`), under 2 k eps."""
    assert not np.any(table - np.diag(np.diag(table))), label
    assert table[0, 0] == 0, label
    if abs(b1) <= NEGLIGIBLE_B:
        b1 = 0j
    re, im = Fraction(b1.real), Fraction(b1.imag)
    power_re, power_im = Fraction(1), Fraction(0)
    for k in range(1, table.shape[0]):
        power_re, power_im = power_re * re - power_im * im, power_re * im + power_im * re
        exact_re, exact_im = power_re / k, power_im / k
        got = table[k, k]
        err_sq = (Fraction(got.real) - exact_re) ** 2 + (Fraction(got.imag) - exact_im) ** 2
        allowed_sq = (Fraction(2 * k) * Fraction(EPS)) ** 2 * (exact_re ** 2 + exact_im ** 2)
        assert err_sq <= allowed_sq + Fraction(TINY) ** 2, (label, k, got)


class TestNonzeroSpan:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(member=exterior_maps(max_order=24))
    def test_matches_full_width_loop(self, member):
        label, g, n_order = member
        ref = parent_grunsky_matrix(g, n_order)
        table = grunsky_matrix(g, n_order).gamma_nk
        read = g.tail[: 2 * n_order - 1]  # the b_m the section reads
        where = np.flatnonzero(read)
        nonzero = read[where]
        lone = len(nonzero) == 1 and abs(nonzero[0]) > NEGLIGIBLE_B
        if lone and where[0] == 0:
            # b_1 alone: the diagonal table, against the exact one; the
            # full-width loop leaves rounding noise off the diagonal
            assert_exact_diagonal(table, complex(nonzero[0]), label)
        elif lone and nonzero[0].imag == 0.0:
            # one real b_m, m >= 2, the builder keeps: every product the two
            # loops differ by is a zero
            np.testing.assert_array_equal(table, ref, err_msg=label)
        else:
            scale = max(1.0, float(np.max(np.abs(ref))))
            np.testing.assert_allclose(table, ref, rtol=1e-13, atol=1e-13 * scale,
                                       err_msg=label)
        if not len(nonzero):
            assert not np.any(table) and table.shape == (n_order + 1, n_order + 1)

    @pytest.mark.filterwarnings("error")
    def test_corpus_at_the_audit_orders(self):
        # the rho = 0 members (Koebe, the rotation and the dilation) and the
        # half-plane's zero tail have span <= 1: the exact diagonal table; the
        # transform's dense table matches the full-width loop to rounding
        for order, n_order in ((34, 16), (130, 64), (258, 128)):
            for f in standard_corpus(order):
                g = invert_to_sigma(f, order - 2)
                table = grunsky_matrix(g, n_order).gamma_nk
                if f.beta_rho[1] == 0 or f.kind == "halfplane":
                    assert_exact_diagonal(table, complex(g.tail[0]), f"{order} {f.label()}")
                else:
                    np.testing.assert_allclose(table, parent_grunsky_matrix(g, n_order),
                                               rtol=1e-13, atol=1e-15, err_msg=f.label())

    @staticmethod
    def _diagonal_members():
        return [make_schlicht("halfplane", order=66), make_schlicht("koebe", order=66),
                make_schlicht("rotation", {"theta": 2.5}, order=66),
                make_schlicht("dilation", {"r": 0.7}, order=66)]

    def test_zero_tail_skips_the_recurrence(self, monkeypatch):
        # span <= 1: the diagonal is filled with no row of the recurrence
        monkeypatch.setattr(np, "convolve", None)  # any row built would fail
        for f in self._diagonal_members():
            t = grunsky_matrix(invert_to_sigma(f, 64), 32)
            assert t.order == 32 and t.gamma_nk.shape == (33, 33), f.label()
            gam = t.gamma_nk
            assert not np.any(gam - np.diag(np.diag(gam))), f.label()
            assert np.any(gam) == (f.kind != "halfplane"), f.label()

    def test_diagonal_tables_skip_the_eigen_solve(self, monkeypatch):
        # a diagonal table's norm is its largest |k gamma_kk|, with no Gram matrix
        tables = [grunsky_matrix(invert_to_sigma(f, 64), 32) for f in self._diagonal_members()]
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # the dense route would fail
        norms = [strong_grunsky_norm(t) for t in tables]
        assert norms[:2] == [0.0, 1.0]
        assert abs(norms[2] - 1.0) <= 4 * 32 * EPS
        assert abs(norms[3] - 0.49) <= 2 * math.ulp(0.49)


@st.composite
def rho_zero_members(draw, max_order: int):
    """(member, its kind and parameters before nesting, nested ops, N):
    Koebe, a rotation at any finite theta or a dilation at any r in (0, 1),
    then up to three nested rotations and dilations, each with rho = 0; the
    member reaches order 2N + 2."""
    n_order = draw(st.integers(1, max_order))
    kind = draw(st.sampled_from(["koebe", "rotation", "dilation"]))
    angle = st.floats(allow_nan=False, allow_infinity=False)
    radius = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    params = {"koebe": {}, "rotation": {"theta": draw(angle)},
              "dilation": {"r": draw(radius)}}[kind]
    f = make_schlicht(kind, params, 2 * n_order + 2)
    ops = draw(st.lists(st.sampled_from(["rotated", "dilated"]), max_size=3))
    for op in ops:
        f = rotated(f, draw(angle)) if op == "rotated" else dilated(f, draw(radius))
    return f, kind, params, ops, n_order


class TestRhoZeroNorm:
    """The rho = 0 facts: the weighted norm of the diagonal table is
    |b_1| = |beta|^2 (1 for Koebe and rotations, r^2 for a dilation)."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(member=rho_zero_members(max_order=24))
    def test_norm_is_the_exact_diagonal_norm(self, member):
        f, kind, params, ops, n_order = member
        label = f"{f.label()} {kind} {params} {ops}"
        g = invert_to_sigma(f, 2 * n_order)
        t = grunsky_matrix(g, n_order)
        norm = strong_grunsky_norm(t)
        oracle = float(np.linalg.svd(t.weighted(), compute_uv=False)[0])
        assert abs(norm - oracle) <= n_order * EPS * max(1.0, oracle), label
        # the exact norm of the table of the double b_1 is max(|b_1|, |b_1|^N);
        # the diagonal loses under 2 N eps, the weighting and the modulus one
        # rounding each
        b1 = complex(g.tail[0]) if abs(g.tail[0]) > NEGLIGIBLE_B else 0j
        size_sq = Fraction(b1.real) ** 2 + Fraction(b1.imag) ** 2
        exact_sq = max(size_sq, size_sq ** n_order)
        slack = Fraction(2 * n_order + 2) * Fraction(EPS)
        assert (1 - slack) ** 2 * exact_sq <= Fraction(norm) ** 2 <= (1 + slack) ** 2 * exact_sq, \
            label
        if ops:
            return
        if kind == "koebe":
            assert norm == 1.0, label
        elif kind == "dilation":
            # b_1 = fl(r^2), read as zero at or below NEGLIGIBLE_B
            r = params["r"]
            expect = Fraction(r) ** 2 if r * r > NEGLIGIBLE_B else Fraction(0)
            assert abs(Fraction(norm) - expect) <= 2 * Fraction(math.ulp(float(expect))), label
        else:
            # |b_1| = |e^{i theta}|^2 is 1 to a few eps, and its N-th power
            # drifts by at most about N of them more
            assert abs(norm - 1.0) <= 4 * n_order * EPS, label


def _gaussian_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def exact_pair_table(beta: complex, rho: complex, n_order: int) -> np.ndarray:
    """The exact Grunsky section of the pair (beta, rho) of doubles, each
    entry rounded once to a double, from

        gamma_nk = sum_{j <= min(n, k)} (c^j / j) C(n-1, j-1) C(k-1, j-1) rho^{n+k-2j},

    c = (beta - rho)^2 (g(zeta) = (zeta - beta)^2 / (zeta - rho)).  The sum
    runs in Gaussian integers: beta and rho times 2^e are integers, every
    term of gamma_nk then carries the one denominator 2^{e (n+k)}, and
    lcm(1..N) clears the 1/j, so the only rounding is the last division."""
    parts = [Fraction(x) for x in (beta.real, beta.imag, rho.real, rho.imag)]
    e = max(p.denominator for p in parts).bit_length() - 1
    br, bi, rr, ri = (int(p * (1 << e)) for p in parts)
    diff = (br - rr, bi - ri)
    rho_pow, c_pow = [(1, 0)], [(1, 0)]
    for _ in range(2 * n_order - 2):
        rho_pow.append(_gaussian_mul(rho_pow[-1], (rr, ri)))
    for _ in range(n_order):
        c_pow.append(_gaussian_mul(c_pow[-1], _gaussian_mul(diff, diff)))
    ell = math.lcm(*range(1, n_order + 1))
    table = np.zeros((n_order + 1, n_order + 1), dtype=np.complex128)
    for n in range(1, n_order + 1):
        for k in range(n, n_order + 1):
            re = im = 0
            for j in range(1, n + 1):
                weight = ell // j * math.comb(n - 1, j - 1) * math.comb(k - 1, j - 1)
                term = _gaussian_mul(c_pow[j], rho_pow[n + k - 2 * j])
                re, im = re + weight * term[0], im + weight * term[1]
            den = ell << (e * (n + k))
            table[n, k] = table[k, n] = complex(re / den, im / den)
    return table


@st.composite
def transform_members(draw, max_order: int):
    """(member, label, N): a Koebe transform with |w| <= 0.95, then up to
    three nested rotations by any finite angle and dilations by any r in
    (0, 1); the member reaches order 2N + 2, N <= max_order."""
    n_order = draw(st.integers(1, max_order))
    w = cmath.rect(draw(st.floats(0.0, 0.95)), draw(st.floats(-math.pi, math.pi)))
    f = make_schlicht("koebe_transform", {"w": w}, 2 * n_order + 2)
    angle = st.floats(allow_nan=False, allow_infinity=False)
    radius = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ops = draw(st.lists(st.sampled_from(["rotated", "dilated"]), max_size=3))
    for op in ops:
        f = rotated(f, draw(angle)) if op == "rotated" else dilated(f, draw(radius))
    return f, f"w={w!r} {ops} beta_rho={f.beta_rho}", n_order


class TestPairOracle:
    """grunsky_matrix and strong_grunsky_norm against the exact section of
    the pair for rho != 0, N <= 24.

    Error budget, measured against this oracle over 23,000 random
    transforms (|w| <= 0.95, up to three nested rotations and dilations,
    N = 1..24): every weighted entry sqrt(nk) |gamma_nk - exact| within
    1.12 N eps, and the norm within 1.5 N eps of the exact section's top
    singular value.  The tests allow 2 N eps and (2 N + 2) eps.  Both
    include the rounding of the b_m that invert_to_sigma forms in doubles.
    """

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=80, deadline=None)
    @given(member=transform_members(max_order=24))
    def test_table_and_norm_match_the_exact_section(self, member):
        f, label, n_order = member
        beta, rho = (complex(x) for x in f.beta_rho)
        t = grunsky_matrix(invert_to_sigma(f, 2 * n_order), n_order)
        exact = exact_pair_table(beta, rho, n_order)
        k = np.arange(1, n_order + 1)
        weights = np.sqrt(np.outer(k, k))
        err = np.max(weights * np.abs(t.gamma_nk[1:, 1:] - exact[1:, 1:]))
        assert err <= 2 * n_order * EPS, (label, err)
        top = np.linalg.svd(weights * exact[1:, 1:], compute_uv=False)[0]
        assert abs(strong_grunsky_norm(t) - top) <= (2 * n_order + 2) * EPS, label

    def test_oracle_matches_the_bivariate_oracle(self):
        # the sum against the independent bivariate logarithm, every corpus pair
        for f in standard_corpus(20):
            direct = grunsky_matrix_direct(invert_to_sigma(f, 16), 8).gamma_nk
            exact = exact_pair_table(*(complex(x) for x in f.beta_rho), 8)
            np.testing.assert_allclose(exact, direct, rtol=0, atol=1e-14, err_msg=f.label())


@st.composite
def negligible_tails(draw):
    """(label, exterior map of order 2N, N), N in 2..8: a Koebe transform with
    Im w = 10^-e, so rho ~ 2 * 10^-e, whose b_m fall below NEGLIGIBLE_B
    before b_{2N-1}, optionally dilated."""
    n_order = draw(st.integers(2, 8))
    e = draw(st.floats(200.0 / (2 * n_order - 2) + 1.0, 199.0))
    w = complex(draw(st.floats(-0.6, 0.6)), draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -e)
    f = make_schlicht("koebe_transform", {"w": w}, 2 * n_order + 2)
    if draw(st.booleans()):
        f = dilated(f, draw(st.floats(0.05, 0.99)))
    return f.label(), invert_to_sigma(f, 2 * n_order), n_order


class TestNegligibleCut:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(member=negligible_tails())
    def test_cut_table_matches_bivariate_oracle(self, member):
        label, g, n_order = member
        assert abs(g.tail[2 * n_order - 2]) <= NEGLIGIBLE_B, label  # the cut is inside
        oracle = grunsky_matrix_direct(g, n_order)
        # as in test_faber_matches_bivariate_oracle_property: the recurrence
        # is faithful to rounding of its entries of size 1, not relative to
        # each tiny entry, and the cut moves no entry by more than 20 eps N^3
        np.testing.assert_allclose(grunsky_matrix(g, n_order).gamma_nk, oracle.gamma_nk,
                                   rtol=0, atol=1e-12, err_msg=label)

    def test_cut_table_at_order_512_is_within_the_bound_of_the_uncut(self, monkeypatch):
        # b_m = rho^{m-1} (rho - beta)^2 falls below 1e-200 near m = 500 and
        # underflows past m ~ 750; the section reads b_1 .. b_1023
        n = 512
        f = make_schlicht("koebe_transform", {"w": 0.2 + 0.2j}, 2 * n + 2)
        g = invert_to_sigma(f, 2 * n)
        read = np.abs(g.tail[: 2 * n - 1])
        assert np.sum(read > NEGLIGIBLE_B) < np.sum(read > 0)  # the cut drops some b_m
        cut = grunsky_matrix(g, n)
        monkeypatch.setattr(grunsky, "NEGLIGIBLE_B", 0.0)
        uncut = grunsky_matrix(g, n)
        # the docstring's 20 eps N^3 for the cut, and rounding: the shorter
        # span sums the same products in another order
        bound = 20 * NEGLIGIBLE_B * n ** 3 + 1e-13
        assert np.max(np.abs(cut.gamma_nk - uncut.gamma_nk)) <= bound
        assert abs(strong_grunsky_norm(cut) - strong_grunsky_norm(uncut)) <= 1e-12
        assert abs(fullness_defect(cut, 0.5) - fullness_defect(uncut, 0.5)) <= 1e-12


class TestPairLogDerivative:
    @staticmethod
    def _members(order):
        return standard_corpus(order) + [
            rotated(make_schlicht("koebe", order=order), 2.5),
            dilated(rotated(make_schlicht("koebe_transform", {"w": -0.5 + 0.3j}, order),
                            -1.0), 0.97)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [0.5, 0.95 * cmath.exp(1.2j)])
    def test_equals_order_2048_series_log(self, z):
        for f in self._members(2049):
            series = f.series.deriv().log()(z)
            pair = closed_form_log_deriv(z, *f.beta_rho)
            assert abs(pair - series) <= 1e-10 * max(1.0, abs(series)), (f.label(), pair, series)

    def test_principal_log_of_f_prime_leaves_the_branch(self):
        f = make_schlicht("koebe", order=16)
        z = 0.95 * cmath.exp(1.2j)
        jump = cmath.log(f.deriv(z)) - closed_form_log_deriv(z, *f.beta_rho)
        assert abs(abs(jump) - 2.0 * math.pi) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_series_only_map_keeps_the_series_log(self, corpus130, ledgers130):
        # a custom map with a pair's coefficients has no pair, so the defect
        # takes the series log; the identity residual stays at rounding level
        for f in corpus130:
            custom = make_schlicht("custom", {"coeffs": f.series.coeffs}, 130)
            t = grunsky_matrix(invert_to_sigma(custom, 128), 64)
            _, identity = full_mapping_defect(t, ledgers130[f.label()], custom, 0.5)
            _, pair_identity = full_mapping_defect(t, ledgers130[f.label()], f, 0.5)
            assert identity <= 1e-8 and pair_identity <= 1e-8, f.label()
            assert abs(identity - pair_identity) <= 1e-13, f.label()


@pytest.fixture(scope="module")
def koebe_table16():
    f = make_schlicht("koebe", order=34)
    return f, invert_to_sigma(f, 32), log_data(f)


class TestBadInputs:
    """Bad points and orders raise a SchlichtLabError, never a bare error or NaN."""

    CASES = {
        "fullness point nan": (OutsideDisk, lambda f, g, ld: fullness_defect(
            grunsky_matrix(g, 16), math.nan)),
        "fullness point str": (InvalidParameter, lambda f, g, ld: fullness_defect(
            grunsky_matrix(g, 16), "x")),
        "full mapping point nan": (OutsideDisk, lambda f, g, ld: full_mapping_defect(
            grunsky_matrix(g, 16), ld, f, math.nan)),
        "full mapping point complex nan": (OutsideDisk, lambda f, g, ld: full_mapping_defect(
            grunsky_matrix(g, 16), ld, f, complex(0.0, math.nan))),
        "full mapping point str": (InvalidParameter, lambda f, g, ld: full_mapping_defect(
            grunsky_matrix(g, 16), ld, f, "x")),
        "section fractional": (InvalidParameter,
                               lambda f, g, ld: grunsky_matrix(g, 16).section(1.5)),
        "section str": (InvalidParameter, lambda f, g, ld: grunsky_matrix(g, 16).section("3")),
        "matrix order fractional": (InvalidParameter, lambda f, g, ld: grunsky_matrix(g, 2.5)),
        "matrix order str": (InvalidParameter, lambda f, g, ld: grunsky_matrix(g, "3")),
        "direct order fractional": (InvalidParameter,
                                    lambda f, g, ld: grunsky_matrix_direct(g, 2.5)),
        "direct order str": (InvalidParameter, lambda f, g, ld: grunsky_matrix_direct(g, "3")),
        "matrix of a member": (InvalidParameter, lambda f, g, ld: grunsky_matrix(f, 4)),
        "direct of None": (InvalidParameter, lambda f, g, ld: grunsky_matrix_direct(None, 4)),
        "norm of a sigma": (InvalidParameter, lambda f, g, ld: strong_grunsky_norm(g)),
        "fullness of a ledger": (InvalidParameter, lambda f, g, ld: fullness_defect(ld, 0.3)),
        "fullness point int past double range": (InvalidParameter, lambda f, g, ld: (
            fullness_defect(grunsky_matrix(g, 16), 10**400))),
        "full mapping table None": (InvalidParameter,
                                    lambda f, g, ld: full_mapping_defect(None, ld, f, 0.3)),
        "full mapping ledger a member": (InvalidParameter, lambda f, g, ld: full_mapping_defect(
            grunsky_matrix(g, 16), f, f, 0.3)),
        "full mapping member a sigma": (InvalidParameter, lambda f, g, ld: full_mapping_defect(
            grunsky_matrix(g, 16), ld, g, 0.3)),
        "equality residual of a member": (InvalidParameter, lambda f, g, ld: (
            bazilevich_equality_residual(f, 0.5, 0.0, 8))),
        "row polynomials of None": (InvalidParameter,
                                    lambda f, g, ld: grunsky.row_polynomials(None, 0.3)),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_lab_error(self, case, koebe_table16):
        error, call = self.CASES[case]
        with pytest.raises(error):
            call(*koebe_table16)
