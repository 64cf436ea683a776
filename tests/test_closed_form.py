"""The two-parameter closed form z(1 - rho z)/(1 - beta z)^2 of the corpus.

The series-algebra construction of ``koebe_transform`` and the series
reciprocal of ``invert_to_sigma`` are kept here as references, together
with the coefficient formulas of koebe, halfplane and dilation, which the
closed-form route must reproduce bit for bit.  Every closed-form series is
also checked against its own pair's a_n, computed by repeated complex
products, at any finite angle and after nested rotations and dilations.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab.families import (
    deriv_certified,
    dilated,
    eval_certified,
    invert_to_sigma,
    make_schlicht,
    rotated,
    standard_corpus,
)
from schlichtlab.series import ComplexSeries

EPS = np.finfo(float).eps
#: |series a_n - pair a_n| <= PAIR_BOUND n^2 eps, for a member built by up to
#: three nested rotations and dilations: each step's rounding grows like
#: (n - 1) eps relative in an a_n of size n.  A fuzz of 100,000 such members
#: stayed below 6 n^2 eps.
PAIR_BOUND = 16.0
#: a pair whose beta and rho lie this far apart keeps beta != rho through
#: three rotations: each rounds beta u and rho u by at most sqrt(5) eps
#: relative, so it moves beta - rho by under 5 eps
GAP_MARGIN = 32.0 * EPS


def reference_koebe_transform(w, order):
    """(k(phi) - k(w)) / ((1-|w|^2) k'(w)) by truncated series algebra."""
    wc = w.conjugate()
    num = np.zeros(order + 1, dtype=np.complex128)
    num[0], num[1] = w, 1.0
    den = np.zeros(order + 1, dtype=np.complex128)
    den[0], den[1] = 1.0, wc
    phi = ComplexSeries(num) / ComplexSeries(den)
    inv = 1.0 / (1.0 - phi)
    kphi = phi * inv * inv
    kw = w / (1.0 - w) ** 2
    scale = (1.0 - abs(w) ** 2) * (1.0 + w) / (1.0 - w) ** 3
    coeffs = ((kphi - kw) / scale).coeffs.copy()
    coeffs[0], coeffs[1] = 0.0, 1.0
    return coeffs


def reference_inversion(coeffs, order):
    """(b0, b_1 .. b_order) of 1/f(1/z) by the series reciprocal of f(u)/u."""
    q = (1.0 / ComplexSeries(coeffs[1:])).coeffs
    return complex(q[1]), q[2 : order + 2]


def unit_powers(phi, count):
    """e^{ik phi} for k = 0 .. count-1, as repeated products of the unit e^{i phi}."""
    unit, powers = cmath.exp(1j * phi), [1 + 0j]
    while len(powers) < count:
        powers.append(powers[-1] * unit)
    return np.array(powers)


def reference_rotated(coeffs, phi):
    out = coeffs.astype(np.complex128)
    out[1:] *= unit_powers(phi, len(coeffs) - 1)
    out[0] = 0.0
    return out


def reference_dilated(coeffs, r):
    # a_n r^{n-1}, the powers by Python float products: r^0 = 1, r^k = r^{k-1} r
    powers = [1.0]
    for _ in range(len(coeffs) - 2):
        powers.append(powers[-1] * r)
    out = np.zeros_like(coeffs)
    out[1:] = coeffs[1:] * np.array(powers)
    return out


angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)
radii = st.floats(min_value=0.05, max_value=0.99)


@st.composite
def transform_points(draw):
    rad = draw(st.floats(min_value=0.0, max_value=0.6))
    return rad * cmath.exp(1j * draw(angles))


@st.composite
def members_with_references(draw, max_order=128):
    """A closed-form member, optionally rotated and dilated, with its
    reference coefficients and whether it went through a rotation."""
    order = draw(st.integers(min_value=2, max_value=max_order))
    kind = draw(st.sampled_from(["koebe_transform", "rotation", "dilation",
                                 "koebe", "halfplane"]))
    if kind == "koebe_transform":
        w = draw(transform_points())
        f = make_schlicht(kind, {"w": w}, order)
        ref = reference_koebe_transform(w, order)
    elif kind == "rotation":
        theta = draw(angles)
        f = make_schlicht(kind, {"theta": theta}, order)
        ref = reference_rotated(np.arange(order + 1), theta)
    elif kind == "dilation":
        r = draw(radii)
        f = make_schlicht(kind, {"r": r}, order)
        ref = reference_dilated(np.arange(order + 1, dtype=np.complex128), r)
    else:
        f = make_schlicht(kind, order=order)
        ref = f.series.coeffs.copy()
    was_rotated = kind == "rotation"
    if draw(st.booleans()):
        phi = draw(angles)
        f, ref, was_rotated = rotated(f, phi), reference_rotated(ref, phi), True
    if draw(st.booleans()):
        r = draw(radii)
        f, ref = dilated(f, r), reference_dilated(ref, r)
    return f, ref, was_rotated


@settings(max_examples=150, deadline=None)
@given(members_with_references())
def test_coefficients_match_the_series_algebra(member):
    # a rotation's reference takes the powers of e^{i phi} by repeated
    # products, the member by e^{i k phase(e^{i phi})}: each side's rounding
    # grows like k eps in a_n of size n, hence the n^2 eps term for a
    # rotated member only
    f, ref, was_rotated = member
    assert f.has_closed_form
    n = np.arange(f.order + 1)
    bound = 1e-13 * n + (PAIR_BOUND * n * n * EPS if was_rotated else 0.0)
    assert np.all(np.abs(f.series.coeffs - ref) <= bound), f.label()


# -- one member, one map: the series is its pair's series --------------------

CLOSED_FORM_KINDS = ["koebe", "halfplane", "rotation", "dilation", "koebe_transform"]
MAXIMAL_KINDS = {"koebe", "rotation", "koebe_transform"}

# any finite double, with the angles at which an (n - 1) theta product once
# drifted from the pair (by 3e-9 n, 3e-5 n, 0.03 n and 2 n at order 32) or overflowed
any_angle = st.one_of(
    st.sampled_from([1234567.99, 12345678901.234567, 12345678901234.567, 1.2345678912345e16,
                     1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))
unit_interval = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def disk_points(draw):
    w = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)) \
        * cmath.exp(1j * draw(angles))
    return w if abs(w) < 1.0 else 0j


@st.composite
def pair_members(draw):
    """A closed-form member of any kind and parameter, then up to three
    nested rotations by any finite angle and dilations by any r in (0, 1);
    and whether it must be maximal: a Koebe map, rotation or transform whose
    beta and rho lie GAP_MARGIN apart, taken through rotations only."""
    order = draw(st.integers(min_value=2, max_value=64))
    kind = draw(st.sampled_from(CLOSED_FORM_KINDS))
    params = {"rotation": {"theta": draw(any_angle)}, "dilation": {"r": draw(unit_interval)},
              "koebe_transform": {"w": draw(disk_points())}}.get(kind, {})
    f = make_schlicht(kind, params, order)
    beta, rho = f.beta_rho
    steps = draw(st.lists(st.booleans(), max_size=3))
    for rotate in steps:
        f = rotated(f, draw(any_angle)) if rotate else dilated(f, draw(unit_interval))
    maximal = kind in MAXIMAL_KINDS and abs(beta - rho) > GAP_MARGIN and all(steps)
    return f, maximal


def pair_coefficients(beta, rho, order):
    """a_0 = 0, a_1 = 1 and a_n = beta^{n-2} (n beta - (n-1) rho), the powers
    of beta by repeated Python complex products."""
    out, power = [0j, 1 + 0j], 1 + 0j
    for n in range(2, order + 1):
        out.append(power * (n * beta - (n - 1) * rho))
        power *= beta
    return np.array(out)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(pair_members())
def test_series_is_the_pairs_series(member):
    f, maximal = member
    n = np.arange(f.order + 1)
    gap = np.abs(f.series.coeffs - pair_coefficients(*f.beta_rho, f.order))
    assert np.all(gap <= PAIR_BOUND * n * n * EPS), (f.label(), f.beta_rho)
    assert f.maximal_growth or not maximal, (f.label(), f.beta_rho)


def exact_pair_errors(f):
    """For n = 2..N, |a_n - exact| of ``f``'s series, the exact a_n of its
    pair of doubles taken in Gaussian integers (beta and rho times 2^e are
    integers), with |exact a_n| and the cancellation scale
    |beta|^{n-2} (n |beta| + (n-1) |rho|); all three as floats."""
    beta, rho = f.beta_rho
    parts = [Fraction(x) for x in (beta.real, beta.imag, rho.real, rho.imag)]
    e = max(p.denominator for p in parts).bit_length() - 1
    br, bi, rr, ri = (int(p * (1 << e)) for p in parts)
    power, rows = (1, 0), []
    for n in range(2, f.order + 1):
        factor = (n * br - (n - 1) * rr, n * bi - (n - 1) * ri)
        den = 1 << (e * (n - 1))
        exact_re = Fraction(power[0] * factor[0] - power[1] * factor[1], den)
        exact_im = Fraction(power[0] * factor[1] + power[1] * factor[0], den)
        got = f.series.coeffs[n]
        err = math.hypot(float(Fraction(got.real) - exact_re), float(Fraction(got.imag) - exact_im))
        scale = abs(beta) ** (n - 2) * (n * abs(beta) + (n - 1) * abs(rho))
        rows.append((n, err, math.hypot(float(exact_re), float(exact_im)), scale))
        power = (power[0] * br - power[1] * bi, power[0] * bi + power[1] * br)
    return rows


@pytest.mark.parametrize("w", [0.99 * cmath.exp(0.3j), 0.3 * cmath.exp(1j), 0.9j, 0.99j,
                               0.999 * cmath.exp(1.5j), -0.95 * cmath.exp(2j), 0.5])
def test_pair_coefficients_within_the_documented_bound(w):
    # _pair_member's docstring: a_n within eps ((1.2 (n-2) + 4) |a_n| + scale / 2).
    # libm's cpow, behind the earlier beta ** (n - 2), left 27 coefficients of
    # w = 0.99 e^{0.3i} beyond this bound, the worst 430.6 eps from a_244
    f = make_schlicht("koebe_transform", {"w": w}, order=256)
    for n, err, size, scale in exact_pair_errors(f):
        assert err <= EPS * ((1.2 * (n - 2) + 4.0) * size + 0.5 * scale), (w, n, err / EPS)


# -- the growth class comes from the pair -------------------------------------


def test_growth_class_of_the_corpus():
    maximal = [f.kind for f in standard_corpus(64) if f.maximal_growth]
    assert maximal == ["koebe", "rotation", "koebe_transform"]


def test_every_theorem2_member_is_maximal():
    # the members lab._run_theorem2 builds for m = 1..64
    assert all(make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, 16).maximal_growth
               for m in range(1, 65))


def test_growth_class_of_dilations_and_series_only_maps():
    koebe, halfplane = make_schlicht("koebe", order=16), make_schlicht("halfplane", order=16)
    assert rotated(koebe, 0.5).maximal_growth
    assert not rotated(halfplane, 0.5).maximal_growth  # beta = rho
    assert not dilated(koebe, 0.9).maximal_growth
    # |beta| = 1 to 4 ulps: the dilations by r >= 1 - 4 eps are the Koebe map
    edge = 1.0 - 4.0 * EPS
    assert dilated(koebe, edge).maximal_growth
    assert dilated(koebe, math.nextafter(1.0, 0.0)).maximal_growth
    assert not dilated(koebe, math.nextafter(edge, 0.0)).maximal_growth
    assert not make_schlicht("custom", {"coeffs": np.arange(17)}, order=16).maximal_growth


@settings(max_examples=150, deadline=None)
@given(members_with_references(max_order=66))
def test_exterior_coefficients_match_the_series_reciprocal(member):
    # the reciprocal is a triangular solve whose rounding grows like N^2 eps
    f, _, _ = member
    order = f.order - 2
    g = invert_to_sigma(f, order)
    b0, tail = reference_inversion(f.series.coeffs, order)
    tol = 100.0 * EPS * max(order, 1) ** 2
    assert abs(g.b0 - b0) <= tol
    assert np.max(np.abs(g.tail - tail), initial=0.0) <= tol, f.label()


@pytest.mark.parametrize("order", [2, 17, 256])
def test_koebe_and_halfplane_coefficients_bit_identical(order):
    koebe = np.arange(order + 1, dtype=np.complex128)
    halfplane = np.ones(order + 1, dtype=np.complex128)
    halfplane[0] = 0.0
    assert make_schlicht("koebe", order=order).series.coeffs.tobytes() == koebe.tobytes()
    assert make_schlicht("halfplane", order=order).series.coeffs.tobytes() == halfplane.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["koebe", "halfplane"]), radii,
       st.integers(min_value=2, max_value=256))
def test_dilation_coefficients_bit_identical(base_kind, r, order):
    base = make_schlicht(base_kind, order=order)
    expect = reference_dilated(base.series.coeffs, r)
    assert dilated(base, r).series.coeffs.tobytes() == expect.tobytes()
    if base_kind == "koebe":
        f = make_schlicht("dilation", {"r": r}, order)
        assert f.series.coeffs.tobytes() == expect.tobytes()


@settings(max_examples=150, deadline=None)
@given(members_with_references(), st.floats(min_value=0.0, max_value=0.5), angles)
def test_value_and_derivative_match_partial_sums(member, rad, t):
    # a partial sum misses the tail beyond the order, which |a_n| <= n bounds
    # by sum_{n>N} n |z|^n (and n^2 |z|^{n-1} for f'); past 400 more terms
    # the bound is below 1e-100 at |z| <= 1/2
    f, _, _ = member
    z = rad * cmath.exp(1j * t)
    val, _ = eval_certified(f, z)
    der, _ = deriv_certified(f, z)
    val_tail = sum(n * rad ** n for n in range(f.order + 1, f.order + 400))
    der_tail = sum(n * n * rad ** (n - 1) for n in range(f.order + 1, f.order + 400))
    assert abs(val - f.series(z)) <= val_tail + 1e-13 * max(1.0, abs(val))
    assert abs(der - f.series.deriv()(z)) <= der_tail + 1e-13 * max(1.0, abs(der))


def test_pairs_of_the_corpus():
    w = 0.3 * cmath.exp(0.25j * math.pi)
    assert make_schlicht("koebe", order=8).beta_rho == (1.0, 0.0)
    assert make_schlicht("halfplane", order=8).beta_rho == (1.0, 1.0)
    assert make_schlicht("rotation", {"theta": 0.7}, order=8).beta_rho == (cmath.exp(0.7j), 0.0)
    beta, rho = make_schlicht("koebe_transform", {"w": w}, order=8).beta_rho
    assert beta == (1.0 - w.conjugate()) / (1.0 - w)
    assert rho == (w - w.conjugate()) / (1.0 - w * w)
    assert dilated(make_schlicht("halfplane", order=8), 0.5).beta_rho == (0.5, 0.5)
    assert rotated(make_schlicht("koebe", order=8), 0.3).beta_rho == (cmath.exp(0.3j), 0.0)
    series_only = make_schlicht("custom", {"coeffs": np.arange(9)}, order=8)
    assert series_only.beta_rho is None
    assert dilated(series_only, 0.5).beta_rho is None
    assert rotated(series_only, 0.5).beta_rho is None


def test_exterior_coefficients_exact_for_rotation():
    # g(z) = z - 2 e^{it} + e^{2it}/z: every b_m with m >= 2 is exactly zero
    f = make_schlicht("rotation", {"theta": math.pi / 3.0}, order=258)
    g = invert_to_sigma(f, 256)
    beta = cmath.exp(1j * math.pi / 3.0)
    assert g.b0 == -2.0 * beta
    assert g.tail[0] == beta * beta
    assert not np.any(g.tail[1:])


def test_series_only_dilation_stays_on_the_series_route():
    coeffs = np.zeros(41, dtype=np.complex128)
    coeffs[1], coeffs[2] = 1.0, 0.5
    f = dilated(make_schlicht("custom", {"coeffs": coeffs}, order=40), 0.8)
    g = invert_to_sigma(f, 38)
    b0, tail = reference_inversion(f.series.coeffs, 38)
    assert g.b0 == b0
    assert g.tail.tobytes() == tail.tobytes()
