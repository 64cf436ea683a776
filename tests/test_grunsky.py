import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab import grunsky
from schlichtlab.errors import InvalidAlpha, InvalidParameter, OutsideDisk
from schlichtlab.families import SigmaFunction, invert_to_sigma, make_schlicht
from schlichtlab.grunsky import (
    bazilevich_equality_residual,
    full_mapping_defect,
    fullness_defect,
    grunsky_matrix,
    grunsky_matrix_direct,
    strong_grunsky_norm,
)
from schlichtlab.logmilin import log_data

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
