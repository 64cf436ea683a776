import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab.errors import InvalidAlpha, QuadratureUnconverged, SchlichtLabError
from schlichtlab import families, logmilin
from schlichtlab.families import (
    dilated,
    make_schlicht,
    rotated,
    standard_corpus,
)
from schlichtlab.grunsky import bazilevich_equality_residual
from schlichtlab.hayman import hayman_index
from schlichtlab.logmilin import (
    MILIN_CONSTANT_BOUND,
    PRAWITZ_NODES,
    bazilevich_gap,
    boundary_mean_coeffs,
    coefficient_functionals,
    direction_weighted_sum,
    f_coeffs_recurrence_unweighted,
    f_coeffs_via_exp_recurrence,
    gamma_recurrence_unweighted,
    gamma_via_derivative_recurrence,
    lebedev_milin_check,
    log_data,
    milin_check,
    prawitz_check,
)
from schlichtlab.series import ComplexSeries


def _circle_moduli(f, r: float, nodes: int) -> np.ndarray:
    """|f| at the ``nodes`` equispaced points of the circle of radius r."""
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    return np.abs(f.value(r * np.exp(1j * t)))


def circle_mean(f, r: float, nodes: int) -> float:
    """(1/2pi) integral of |f(r e^{it})| dt by the periodic trapezoid rule.

    The reference for prawitz_check's means, which take the rule from one
    evaluation of each circle at twice the nodes.
    """
    return float(np.mean(_circle_moduli(f, r, nodes)))


def sqrt_coeffs(f) -> np.ndarray:
    """The full root sqrt(f(z)/z), the reference for lebedev_milin_check's prefix."""
    return ComplexSeries(f.series.coeffs[1:]).sqrt().coeffs


class TestLedger:
    def test_koebe_ledger(self):
        f = make_schlicht("koebe", order=130)
        ld = log_data(f)
        n = np.arange(1, 129)
        np.testing.assert_allclose(ld.gamma[1:129], 1.0 / n, atol=1e-12)
        np.testing.assert_allclose(sqrt_coeffs(f), 1.0, atol=1e-12)
        np.testing.assert_allclose(ld.lam, 0.0, atol=1e-12)
        assert abs(ld.f_coeffs[0] - 1.0) < 1e-14
        assert np.max(np.abs(ld.f_coeffs[1:])) < 1e-14
        np.testing.assert_allclose(ld.s, 1.0, atol=1e-14)
        np.testing.assert_allclose(ld.sigma, 1.0, atol=1e-14)
        np.testing.assert_allclose(ld.delta, 0.0, atol=1e-14)

    def test_halfplane_gamma(self):
        ld = log_data(make_schlicht("halfplane", order=130))
        n = np.arange(1, 129)
        np.testing.assert_allclose(ld.gamma[1:129], 1.0 / (2 * n), atol=1e-12)

    def test_dilated_koebe_gamma(self):
        # log(f(z)/z) = -2 log(1 - 0.9 z), so gamma_n = 0.9^n / n
        ld = log_data(make_schlicht("dilation", {"r": 0.9}, order=80))
        n = np.arange(1, 80)
        np.testing.assert_allclose(ld.gamma[1:80], 0.9 ** n / n, atol=1e-12)

    def test_exponential_consistency(self, corpus130, ledgers130):
        for f in corpus130:
            ld = ledgers130[f.label()]
            from schlichtlab.series import ComplexSeries
            back = ComplexSeries(2.0 * ld.gamma).exp()
            np.testing.assert_allclose(back.coeffs, f.series.coeffs[1:],
                                       atol=1e-12, err_msg=f.label())

    def test_sqrt_consistency(self, corpus130):
        for f in corpus130:
            root = sqrt_coeffs(f)
            sq = np.convolve(root, root)[: len(root)]
            np.testing.assert_allclose(sq, f.series.coeffs[1:], atol=1e-12,
                                       err_msg=f.label())

    def test_difference_chain(self, corpus130, ledgers130):
        for f in corpus130:
            ld = ledgers130[f.label()]
            a = f.series.coeffs
            np.testing.assert_allclose(ld.s, a[1:] - a[:-1], atol=0)
            np.testing.assert_allclose(ld.sigma, a[1:] / np.arange(1, len(a)),
                                       atol=0)
            np.testing.assert_allclose(ld.delta, ld.s - ld.sigma, atol=0)

    def test_f_coeffs_is_independent_second_difference(self, corpus130, ledgers130):
        # (1-z)^2 f(z)/z has coefficients a_{n+1} - 2 a_n + a_{n-1}
        for f in corpus130:
            ld = ledgers130[f.label()]
            a = f.series.coeffs
            pad = np.concatenate((a, [0.0]))
            expect = np.array([pad[k + 1] - 2 * pad[k] + pad[k - 1]
                               for k in range(1, len(a) - 1)])
            np.testing.assert_allclose(ld.f_coeffs[1:], expect[: len(ld.f_coeffs) - 1],
                                       atol=1e-12, err_msg=f.label())

    def test_partial_sums_of_f_coeffs_telescope(self, ledgers130):
        for label, ld in ledgers130.items():
            np.testing.assert_allclose(np.cumsum(ld.f_coeffs), ld.s, atol=1e-12,
                                       err_msg=label)


@st.composite
def ledger_members(draw):
    """Closed-form and series-only members, optionally dilated or rotated."""
    order = draw(st.integers(8, 64))
    kind = draw(st.sampled_from(["koebe", "halfplane", "rotation", "koebe_transform",
                                 "custom"]))
    if kind == "rotation":
        f = make_schlicht(kind, {"theta": draw(st.floats(-math.pi, math.pi))}, order)
    elif kind == "koebe_transform":
        w = cmath.rect(draw(st.floats(0.0, 0.9)), draw(st.floats(-math.pi, math.pi)))
        f = make_schlicht(kind, {"w": w}, order)
    elif kind == "custom":
        # z + c z^2 + d z^3 with small c, d: f(z)/z has no zero near the disc
        coeffs = np.zeros(order + 1, dtype=complex)
        coeffs[1] = 1.0
        coeffs[2] = cmath.rect(draw(st.floats(0.0, 0.25)), draw(st.floats(-3.0, 3.0)))
        coeffs[3] = cmath.rect(draw(st.floats(0.0, 0.05)), draw(st.floats(-3.0, 3.0)))
        f = make_schlicht(kind, {"coeffs": coeffs}, order)
    else:
        f = make_schlicht(kind, order=order)
    if draw(st.booleans()):
        f = dilated(f, draw(st.floats(0.01, 0.99)))
    if draw(st.booleans()):
        f = rotated(f, draw(st.floats(-math.pi, math.pi)))
    return f


class TestBoundaryMeanCoeffs:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(f=ledger_members())
    def test_matches_ledger_and_exp_recurrence(self, f):
        fast = boundary_mean_coeffs(f)
        ld = log_data(f)
        assert fast.dtype == ld.f_coeffs.dtype
        assert fast.tobytes() == ld.f_coeffs.tobytes()
        scale = max(1.0, float(np.max(np.abs(f.series.coeffs))))
        np.testing.assert_allclose(f_coeffs_via_exp_recurrence(ld), fast, rtol=0,
                                   atol=1e-10 * scale, err_msg=f.label())

    @staticmethod
    def _exact(p: np.ndarray, k: int, part: str):
        """The exact p_k - 2 p_{k-1} + p_{k-2} of one part of the stored
        doubles, and the bound 2u (|x_k| + 2 |x_{k-1}| + |x_{k-2}|)."""
        x = [Fraction(getattr(complex(p[j]), part)) if j >= 0 else Fraction(0)
             for j in (k, k - 1, k - 2)]
        bound = Fraction(2, 2 ** 53) * (abs(x[0]) + 2 * abs(x[1]) + abs(x[2]))
        return x[0] - 2 * x[1] + x[2], bound

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(f=ledger_members())
    def test_within_the_docstring_bound_of_the_exact_product(self, f):
        p = f.series.coeffs[1:]
        rows = boundary_mean_coeffs(f)
        for k in range(len(p)):
            for part in ("real", "imag"):
                exact, bound = self._exact(p, k, part)
                assert abs(Fraction(getattr(complex(rows[k]), part)) - exact) <= bound, (
                    f.label(), k, part)

    def test_theorem1_windows_are_exact_but_at_k_1(self):
        # r_m = 1 - 1/m >= 1/2: by Sterbenz's lemma both differences are exact
        order = 256
        base = make_schlicht("halfplane", order=order)
        block, _ = families._dilations(base, [1.0 - 1.0 / m for m in range(2, 72)])
        rows = logmilin._times_square(block[:, 1:])
        assert rows.shape == (70, order)
        for p, row in zip(block[:, 1:], rows):
            for k in (0, *range(2, order)):
                for part in ("real", "imag"):
                    exact, _ = self._exact(p, k, part)
                    assert Fraction(getattr(complex(row[k]), part)) == exact, (p[1], k, part)

    @pytest.mark.parametrize("kind", ["koebe", "halfplane"])
    def test_a_window_takes_the_rows_of_its_members_bit_for_bit(self, kind):
        radii = [1.0 - 1.0 / m for m in range(2, 1202)]
        block, members = families._dilations(make_schlicht(kind, order=24), radii)
        rows = logmilin._times_square(block[:, 1:])
        assert rows.dtype == np.complex128 and rows.shape == (1200, 24)
        for f, row in zip(members, rows):
            assert row.tobytes() == boundary_mean_coeffs(f).tobytes()


class TestRecurrenceAdjudication:
    def test_unweighted_gamma_recurrence_fails_on_koebe(self):
        f = make_schlicht("koebe", order=16)
        ld = log_data(f)
        wrong = gamma_recurrence_unweighted(f, ld, 2)
        assert abs(wrong) < 1e-14          # the mis-stated form yields 0
        assert abs(ld.gamma[2] - 0.5) < 1e-14  # the true value is 1/2

    def test_derivative_recurrence_matches_series_log(self, corpus130, ledgers130):
        for f in corpus130:
            ld = ledgers130[f.label()]
            gd = gamma_via_derivative_recurrence(f, 128)
            np.testing.assert_allclose(gd[1:], ld.gamma[1:129], atol=1e-12,
                                       err_msg=f.label())

    def test_unweighted_f_recurrence_fails_on_halfplane(self):
        ld = log_data(make_schlicht("halfplane", order=16))
        wrong = f_coeffs_recurrence_unweighted(ld)
        assert abs(wrong[2] - 0.25) < 1e-12   # mis-stated form gives 1/4
        assert abs(ld.f_coeffs[2]) < 1e-14    # truth: (1-z)^2/(1-z) = 1 - z

    def test_exp_recurrence_matches_product(self, corpus130, ledgers130):
        for f in corpus130:
            ld = ledgers130[f.label()]
            via_exp = f_coeffs_via_exp_recurrence(ld)
            np.testing.assert_allclose(via_exp, ld.f_coeffs, atol=1e-10,
                                       err_msg=f.label())


EPS = float(np.finfo(float).eps)
# allowance for underflow: the running products of a beta or rho of small
# modulus lose at most a few subnormal units in all
TINY = 2.0 ** -1070


def exact_pair_gammas(beta: complex, rho: complex, top: int):
    """(2 beta^k - rho^k) / (2k), k = 1..top, exact in rationals from the
    doubles beta and rho, as (real, imaginary) pairs of Fractions."""
    br, bi, rr, ri = (Fraction(x) for x in (beta.real, beta.imag, rho.real, rho.imag))
    pr, pi, qr, qi = Fraction(1), Fraction(0), Fraction(1), Fraction(0)
    out = []
    for k in range(1, top + 1):
        pr, pi = pr * br - pi * bi, pr * bi + pi * br
        qr, qi = qr * rr - qi * ri, qr * ri + qi * rr
        out.append(((2 * pr - qr) / (2 * k), (2 * pi - qi) / (2 * k)))
    return out


def gamma_errors(ld, beta: complex, rho: complex, top: int) -> np.ndarray:
    """|gamma_k - exact| for k = 1..top, as doubles."""
    return np.array([math.sqrt((Fraction(g.real) - re) ** 2 + (Fraction(g.imag) - im) ** 2)
                     for g, (re, im) in zip(ld.gamma[1:], exact_pair_gammas(beta, rho, top))])


@st.composite
def pair_members(draw):
    """(member, label): Koebe, the half-plane, a rotation at any finite
    theta, a dilation at any r in (0, 1) or a Koebe transform with
    |w| <= 0.95, then up to three nested rotations and dilations; order
    2..65, so the ledger reaches gamma_64."""
    order = draw(st.integers(2, 65))
    kind = draw(st.sampled_from(["koebe", "halfplane", "rotation", "dilation",
                                 "koebe_transform"]))
    angle = st.floats(allow_nan=False, allow_infinity=False)
    radius = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if kind == "rotation":
        params = {"theta": draw(angle)}
    elif kind == "dilation":
        params = {"r": draw(radius)}
    elif kind == "koebe_transform":
        params = {"w": cmath.rect(draw(st.floats(0.0, 0.95)), draw(st.floats(-math.pi, math.pi)))}
    else:
        params = {}
    f = make_schlicht(kind, params, order)
    ops = draw(st.lists(st.sampled_from(["rotated", "dilated"]), max_size=3))
    for op in ops:
        f = rotated(f, draw(angle)) if op == "rotated" else dilated(f, draw(radius))
    return f, f"{kind} {params} {ops} beta_rho={f.beta_rho}"


class TestPairLedger:
    """A member with a pair takes gamma_k = (beta^k - rho^k / 2) / k from it."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(member=pair_members())
    def test_gamma_within_the_bound_of_the_exact_value(self, member):
        f, label = member
        beta, rho = (complex(x) for x in f.beta_rho)
        ld = log_data(f)
        top = ld.top_index
        assert top == f.order - 1 and ld.gamma[0] == 0, label
        k = np.arange(1, top + 1)
        # log_data's bound: (1.2 (k-1) + 1) eps (|beta|^k + |rho|^k / 2) / k
        bound = (1.2 * (k - 1) + 1) * EPS * (abs(beta) ** k + abs(rho) ** k / 2) / k
        err = gamma_errors(ld, beta, rho, top)
        assert np.all(err <= bound + TINY), (label, int(np.argmax(err - bound)) + 1)

    def test_koebe_and_halfplane_correctly_rounded(self):
        k = np.arange(1, 258)
        assert log_data(make_schlicht("koebe", order=258)).gamma[1:].tobytes() == \
            (1.0 / k).astype(complex).tobytes()
        assert log_data(make_schlicht("halfplane", order=258)).gamma[1:].tobytes() == \
            (1.0 / (2 * k)).astype(complex).tobytes()

    def test_corpus_at_order_258(self):
        # the series logarithm was off by 1.9e-9 / k on the rotation and
        # 8.4e-10 / k on the transform, the gap between series and pair
        for f in standard_corpus(258):
            beta, rho = (complex(x) for x in f.beta_rho)
            err = gamma_errors(log_data(f), beta, rho, 257)
            assert np.max(np.arange(1, 258) * err) <= 1e-14, f.label()

    def test_pair_members_take_no_series_log(self, monkeypatch):
        def refused(self):
            raise AssertionError("series logarithm taken")

        coeffs = make_schlicht("halfplane", order=34).series.coeffs
        custom = make_schlicht("custom", {"coeffs": coeffs}, 34)
        transform = make_schlicht("koebe_transform", {"w": 0.5j}, 34)
        monkeypatch.setattr(ComplexSeries, "log", refused)
        for f in standard_corpus(34) + [rotated(dilated(transform, 0.8), 2.0)]:
            assert log_data(f).top_index == 33, f.label()
        with pytest.raises(AssertionError, match="series logarithm taken"):
            log_data(custom)
        with pytest.raises(AssertionError, match="series logarithm taken"):
            log_data(rotated(custom, 1.0))


class TestMilin:
    def test_koebe_partial_sums_vanish(self, ledgers130):
        partial, max_partial, passes = milin_check(ledgers130["koebe"])
        np.testing.assert_allclose(partial, 0.0, atol=1e-12)
        assert passes

    def test_threshold_constant(self):
        assert MILIN_CONSTANT_BOUND == 0.312

    def test_halfplane_matches_negative_harmonic(self, ledgers130):
        partial, max_partial, passes = milin_check(ledgers130["halfplane"])
        harmonic = np.cumsum(1.0 / np.arange(1, len(partial) + 1))
        np.testing.assert_allclose(partial, -harmonic, atol=1e-12)
        assert passes

    def test_partial_sum_identity(self, corpus130, ledgers130):
        # sum 2(Re g_k - 1/k) = sum (k|g_k|^2 - 1/k) - sum k|g_k - 1/k|^2
        for f in corpus130:
            ld = ledgers130[f.label()]
            k = np.arange(1, ld.top_index + 1)
            g = ld.gamma[1:]
            lhs = np.cumsum(2 * (g.real - 1 / k))
            rhs = np.cumsum(k * np.abs(g) ** 2 - 1 / k) - np.cumsum(
                k * np.abs(g - 1 / k) ** 2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10, err_msg=f.label())

    def test_bound_holds_corpus_wide(self, ledgers130):
        for label, ld in ledgers130.items():
            _, max_partial, passes = milin_check(ld)
            assert passes, (label, max_partial)


class TestBazilevich:
    def test_koebe_gap_zero(self, ledgers130):
        lhs, rhs, gap = bazilevich_gap(ledgers130["koebe"], 1.0, 0.0, 128)
        assert lhs <= 1e-12 and rhs == 0.0 and abs(gap) <= 1e-12

    def test_rotation_gap_zero(self):
        theta0 = math.pi / 3
        ld = log_data(make_schlicht("rotation", {"theta": theta0}, order=130))
        lhs, rhs, gap = bazilevich_gap(ld, 1.0, -theta0, 128)
        assert abs(gap) <= 1e-12

    def test_invalid_alpha(self, ledgers130):
        with pytest.raises(InvalidAlpha):
            bazilevich_gap(ledgers130["koebe"], 0.0, 0.0, 8)

    def test_partial_sums_monotone_and_bounded(self, corpus130, ledgers130):
        for f in corpus130:
            if not f.maximal_growth:
                continue
            ld = ledgers130[f.label()]
            est = hayman_index(f)
            sums = np.array([direction_weighted_sum(ld.gamma, est.theta, n)
                             for n in range(1, 129)])
            assert np.all(np.diff(sums) >= -1e-15), f.label()
            rhs = -0.5 * math.log(est.alpha)
            assert sums[-1] <= rhs + 5e-3, f.label()


class TestLebedevMilin:
    def test_koebe_equality(self):
        f = make_schlicht("koebe", order=130)
        a_abs, b_sum, rhs = lebedev_milin_check(f, log_data(f), 9)
        assert abs(a_abs - 10.0) < 1e-12
        assert abs(b_sum - 10.0) < 1e-12
        assert abs(rhs - 10.0) < 1e-9

    def test_halfplane_central_binomial(self):
        f = make_schlicht("halfplane", order=130)
        ld = log_data(f)
        # sqrt(z/(1-z)/z) = (1-z)^{-1/2}: b_k = C(2k, k) / 4^k
        expect = np.array([math.comb(2 * k, k) / 4.0 ** k for k in range(10)])
        np.testing.assert_allclose(sqrt_coeffs(f)[:10], expect, atol=1e-12)
        a_abs, b_sum, rhs = lebedev_milin_check(f, ld, 9)
        assert abs(a_abs - 1.0) < 1e-14
        assert abs(b_sum - np.sum(expect ** 2)) < 1e-12
        assert a_abs <= b_sum <= rhs + 1e-9 * rhs

    def test_chain_corpus_wide(self, corpus130, ledgers130):
        for f in corpus130:
            ld = ledgers130[f.label()]
            for n in (5, 17, 32):
                a_abs, b_sum, rhs = lebedev_milin_check(f, ld, n)
                scale = 1e-9 * max(1.0, rhs)
                assert a_abs <= b_sum + scale, (f.label(), n)
                assert b_sum <= rhs + scale, (f.label(), n)

    def test_dilated_koebe_strict_chain(self):
        f = make_schlicht("dilation", {"r": 0.9}, order=64)
        a_abs, b_sum, rhs = lebedev_milin_check(f, log_data(f), 9)
        assert a_abs < b_sum < rhs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [34, 130, 258])
    def test_root_prefix_equals_full_root(self, order):
        # the check roots only a_1 .. a_{n+1}; the recurrence's prefix property
        # makes that the first n + 1 terms of the full root, bit for bit
        members = standard_corpus(order) + [rotated(dilated(
            make_schlicht("koebe_transform", {"w": 0.5 - 0.2j}, order), 0.7), 1.1)]
        for f in members:
            ld = log_data(f)
            full = sqrt_coeffs(f)
            k = np.arange(1, order, dtype=float)
            for n in sorted({0, 1, 5, 32, order // 2, order - 1}):
                a_abs, b_sum, rhs = lebedev_milin_check(f, ld, n)
                assert b_sum.hex() == float(np.sum(np.abs(full[: n + 1]) ** 2)).hex(), (
                    f.label(), n)
                assert a_abs == abs(f.series.coeffs[n + 1])
                weights = (n + 1) - k[:n]
                expo = np.sum(weights * (k[:n] * np.abs(ld.gamma[1 : n + 1]) ** 2 - 1.0 / k[:n]))
                assert rhs == (n + 1) * float(np.exp(expo / (n + 1)))


class TestPrawitz:
    def test_koebe_means_match_poisson_closed_form(self):
        # circle mean of |k(r e^{it})| = r/(1 - r^2)
        f = make_schlicht("koebe", order=64)
        means, violations = prawitz_check(f, (0.5, 0.8))
        np.testing.assert_allclose(means, [0.5 / 0.75, 0.8 / 0.36], atol=1e-9)
        assert violations == 0

    def test_high_resolution_oracle(self):
        f = make_schlicht("halfplane", order=64)
        means, violations = prawitz_check(f, (0.3, 0.6, 0.9))
        oracle = [circle_mean(f, r, 16384) for r in (0.3, 0.6, 0.9)]
        np.testing.assert_allclose(means, oracle, atol=1e-9)
        assert violations == 0

    def test_single_radius_vacuous(self):
        f = make_schlicht("koebe", order=64)
        _, violations = prawitz_check(f, (0.5,))
        assert violations == 0

    def test_corpus_wide_no_violations(self, corpus130):
        for f in corpus130:
            _, violations = prawitz_check(f, (0.3, 0.5, 0.7, 0.9))
            assert violations == 0, f.label()

    @pytest.mark.filterwarnings("error")
    def test_even_nodes_give_the_half_rule_bit_for_bit(self):
        # prawitz_check evaluates each circle once at 2q nodes and takes the
        # q-point rule from the even ones; that must be circle_mean(f, r, q),
        # at its own q = PRAWITZ_NODES and at the others around it
        radii = (0.05, 0.3, 0.5, 0.7, 0.9, 0.99)
        members = standard_corpus(258) + [make_schlicht(
            "custom", {"coeffs": np.r_[0.0, 1.0, 0.25j, np.zeros(256)]}, 258)]
        for f in members:
            for q in (256, 512, 1024, 2048):
                for r in radii:
                    values = _circle_moduli(f, r, 2 * q)
                    assert float(np.mean(values[::2])) == circle_mean(f, r, q), (
                        f.label(), q, r)
                    assert float(np.mean(values)) == circle_mean(f, r, 2 * q)

    @pytest.mark.filterwarnings("error")
    def test_means_are_the_doubled_rule(self):
        f = make_schlicht("koebe_transform", {"w": 0.3j}, order=64)
        radii = (0.3, 0.5, 0.7)
        means, _ = prawitz_check(f, radii)
        assert means.tolist() == [circle_mean(f, r, 2 * PRAWITZ_NODES) for r in radii]

    def test_unconverged_quadrature_detected(self):
        # 1024 points cannot resolve the koebe peak at r = 0.99: doubling
        # them moves the mean by about 3e-3
        f = make_schlicht("koebe", order=64)
        with pytest.raises(QuadratureUnconverged):
            prawitz_check(f, (0.99,))
        with pytest.raises(QuadratureUnconverged):
            prawitz_check([make_schlicht("halfplane", order=64), f], (0.5, 0.99))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radii", [(0.3, 0.5, 0.7, 0.9), (0.5,), (0.2, 0.95)])
    def test_batch_equals_per_member_calls(self, radii):
        # one lockstep search over every member's inner radii; its lanes are
        # independent, so each member's result is its own call's, bit for bit
        members = standard_corpus(130) + [
            rotated(dilated(make_schlicht("koebe_transform", {"w": 0.4j}, 130), 0.8), -2.0)]
        batched = prawitz_check(members, radii)
        assert isinstance(batched, list) and len(batched) == len(members)
        for f, (means, violations) in zip(members, batched):
            one_means, one_violations = prawitz_check(f, radii)
            assert means.tobytes() == one_means.tobytes(), f.label()
            assert violations == one_violations and type(violations) is int

    def test_batch_of_one_is_a_list(self):
        f = make_schlicht("custom", {"coeffs": np.r_[0.0, 1.0, 0.25j, np.zeros(30)]}, 32)
        [(means, violations)] = prawitz_check([f], (0.3, 0.6))
        one_means, one_violations = prawitz_check(f, (0.3, 0.6))
        assert means.tobytes() == one_means.tobytes() and violations == one_violations

    def test_violations_count_failing_pairs(self, monkeypatch):
        # a growth value of 0 makes every pair with a larger outer mean fail;
        # zero the first member's row only, and each member must read its own
        koebe, halfplane = (make_schlicht(k, order=64) for k in ("koebe", "halfplane"))
        radii = np.array([0.3, 0.5, 0.7])
        means, _ = prawitz_check(koebe, radii)
        expect = sum((1 - radii[j]) * means[j] > (1 - radii[j]) * means[i] + 1e-8
                     for i in range(2) for j in range(i + 1, 3))
        search = logmilin.max_modulus

        def first_row_zero(members, r):
            maxima = search(members, r)[0].copy()
            maxima[0] = 0.0
            return (maxima,)

        monkeypatch.setattr(logmilin, "max_modulus", first_row_zero)
        assert [v for _, v in prawitz_check([koebe, halfplane], radii)] == [expect, 0]
        assert expect == 3


class TestCoefficientFunctionals:
    def test_koebe(self):
        f = make_schlicht("koebe", order=16)
        ratio, zal, bound = coefficient_functionals(f, 5)
        assert ratio == 1.0
        assert zal == 16.0 == bound

    def test_halfplane(self):
        f = make_schlicht("halfplane", order=16)
        ratio, zal, _ = coefficient_functionals(f, 5)
        assert abs(ratio - 0.2) < 1e-15
        assert zal == 0.0

    def test_rotation_matches_rotation_law(self):
        theta0 = 0.9
        f = make_schlicht("rotation", {"theta": theta0}, order=16)
        ratio, zal, bound = coefficient_functionals(f, 5)
        # a_5^2 and a_9 pick up the same phase e^{8 i theta0}, so the modulus
        # matches the koebe value 16
        assert abs(zal - 16.0) < 1e-12
        assert abs(ratio - 1.0) < 1e-14


def test_increment_bound_on_growth_aligned_members(corpus130):
    # |a_{n+1} - a_n|^2 <= exp(2 * 0.312)/alpha once the growth direction
    # is rotated onto the positive axis
    for f in corpus130:
        if not f.maximal_growth:
            continue
        est = hayman_index(f)
        aligned = rotated(f, est.theta) if abs(est.theta) > 1e-12 else f
        ld = log_data(aligned)
        ceiling = math.exp(2 * MILIN_CONSTANT_BOUND) / est.alpha
        assert float(np.max(np.abs(ld.s) ** 2)) <= ceiling + 1e-9, f.label()


class TestBadInputs:
    """Indexes and angles that once wrapped, gave NaN or an IndexError."""

    @staticmethod
    def _koebe():
        f = make_schlicht("koebe", order=16)
        return f, log_data(f)

    CASES = {
        "functionals n negative": lambda f, ld: coefficient_functionals(f, -3),
        "functionals n zero": lambda f, ld: coefficient_functionals(f, 0),
        "functionals n fractional": lambda f, ld: coefficient_functionals(f, 1.5),
        "functionals n too large": lambda f, ld: coefficient_functionals(f, 9),
        "functionals n bool array": lambda f, ld: coefficient_functionals(f, np.array([True])),
        "functionals n float array": lambda f, ld: coefficient_functionals(f, np.array([2.0])),
        "functionals n 2-D array": lambda f, ld: coefficient_functionals(f, np.array([[2]])),
        "functionals n empty array": lambda f, ld: coefficient_functionals(
            f, np.array([], dtype=int)),
        "functionals n array entry zero": lambda f, ld: coefficient_functionals(
            f, np.array([2, 0])),
        "functionals n array entry too large": lambda f, ld: coefficient_functionals(
            f, np.array([2, 9])),
        "derivative recurrence n_max at the order": lambda f, ld: (
            gamma_via_derivative_recurrence(f, f.order)),
        "unweighted recurrence n zero": lambda f, ld: gamma_recurrence_unweighted(f, ld, 0),
        "direction sum n_terms past the ledger": lambda f, ld: direction_weighted_sum(
            ld.gamma, 0.0, len(ld.gamma)),
        "log_data of a float": lambda f, ld: log_data(0.5),
        "milin_check of None": lambda f, ld: milin_check(None),
        "lebedev n negative": lambda f, ld: lebedev_milin_check(f, ld, -1),
        "lebedev n fractional": lambda f, ld: lebedev_milin_check(f, ld, 2.5),
        "lebedev n too large": lambda f, ld: lebedev_milin_check(f, ld, 16),
        "bazilevich alpha nan": lambda f, ld: bazilevich_gap(ld, math.nan, 0.0, 8),
        "bazilevich alpha inf": lambda f, ld: bazilevich_gap(ld, math.inf, 0.0, 8),
        "bazilevich theta nan": lambda f, ld: bazilevich_gap(ld, 1.0, math.nan, 8),
        "bazilevich n_terms fractional": lambda f, ld: bazilevich_gap(ld, 1.0, 0.0, 2.5),
        "bazilevich k theta overflows": lambda f, ld: bazilevich_gap(ld, 0.5, 1e308, 8),
        "direction sum theta nan": lambda f, ld: direction_weighted_sum(ld.gamma, math.nan, 8),
        "direction sum theta inf": lambda f, ld: direction_weighted_sum(ld.gamma, math.inf, 8),
        "direction sum k theta overflows": lambda f, ld: direction_weighted_sum(
            ld.gamma, -sys.float_info.max / 4, 8),
        "equality residual alpha nan": lambda f, ld: bazilevich_equality_residual(
            ld, math.nan, 0.0, 8),
        "equality residual theta nan": lambda f, ld: bazilevich_equality_residual(
            ld, 1.0, math.nan, 8),
        "equality residual theta inf": lambda f, ld: bazilevich_equality_residual(
            ld, 1.0, -math.inf, 8),
        "bazilevich of a member": lambda f, ld: bazilevich_gap(f, 0.5, 0.0, 8),
        "lebedev member a ledger": lambda f, ld: lebedev_milin_check(ld, ld, 4),
        "lebedev ledger None": lambda f, ld: lebedev_milin_check(f, None, 4),
        "functionals of a series": lambda f, ld: coefficient_functionals(f.series, 3),
        "bazilevich alpha and theta numeric strs": lambda f, ld: bazilevich_gap(
            ld, "0.5", "0.1", 4),
        "derivative recurrence n_max fractional": lambda f, ld: (
            gamma_via_derivative_recurrence(f, 3.5)),
        "derivative recurrence n_max negative": lambda f, ld: (
            gamma_via_derivative_recurrence(f, -3)),
        "derivative recurrence of None": lambda f, ld: gamma_via_derivative_recurrence(None, 3),
        "unweighted recurrence n fractional": lambda f, ld: (
            gamma_recurrence_unweighted(f, ld, 2.5)),
        "unweighted recurrence ledger None": lambda f, ld: (
            gamma_recurrence_unweighted(f, None, 2)),
        "exp recurrence of None": lambda f, ld: f_coeffs_via_exp_recurrence(None),
        "unweighted exp recurrence of None": lambda f, ld: f_coeffs_recurrence_unweighted(None),
        "boundary means of None": lambda f, ld: boundary_mean_coeffs(None),
        "direction sum of None": lambda f, ld: direction_weighted_sum(None, 0.1, 3),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_lab_error(self, case):
        with pytest.raises(SchlichtLabError):
            self.CASES[case](*self._koebe())

    @pytest.mark.filterwarnings("error")
    def test_narrow_integer_arrays_of_n_do_not_wrap(self):
        # in uint8, 2n - 1 and (n-1)^2 would wrap for n = 200 and 255
        f = make_schlicht("koebe_transform", {"w": 0.3 + 0.2j}, 512)
        cols = coefficient_functionals(f, np.array([200, 255], dtype=np.uint8))
        assert [tuple(float(c[i]) for c in cols) for i in range(2)] == [
            coefficient_functionals(f, 200), coefficient_functionals(f, 255)]

    @pytest.mark.filterwarnings("error")
    def test_largest_theta_accepted(self):
        # n_terms * theta lands exactly on the largest float, so nothing overflows
        f, ld = self._koebe()
        lhs, rhs, gap = bazilevich_gap(ld, 0.5, sys.float_info.max / 8, 8)
        assert all(math.isfinite(x) for x in (lhs, rhs, gap))

    @pytest.mark.filterwarnings("error")
    def test_smallest_indexes_accepted(self):
        f, ld = self._koebe()
        assert coefficient_functionals(f, 1) == (1.0, 0.0, 0.0)
        assert coefficient_functionals(f, np.int64(5)) == coefficient_functionals(f, 5)
        # an array of n: the int's floats, entry by entry, for int and uint arrays
        for ns in (np.array([1, 5, 8]), np.array([8, 1], dtype=np.uint8)):
            cols = coefficient_functionals(f, ns)
            assert all(isinstance(c, np.ndarray) and c.shape == ns.shape for c in cols)
            assert [tuple(float(c[i]) for c in cols) for i in range(len(ns))] == [
                coefficient_functionals(f, int(n)) for n in ns]
        assert lebedev_milin_check(f, ld, 0) == (1.0, 1.0, 1.0)
