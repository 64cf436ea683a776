"""One circle search for a whole batch of members.

``hayman_index`` and ``max_modulus`` take a sequence of members and search
all their circles in one lockstep golden-section pass.  A member's result
must not depend on its batch: every field equals the batch-of-one call bit
for bit.  ``parent_hayman_index`` keeps the earlier single-member pipeline
(a lockstep search over one member's radii with its scalar pair, the
direction check evaluating the last circle again, one derivative profile
per member) as the reference the theorem2 reports are pinned to, and
``parent_check_single_direction`` the per-circle direction check that
``families._ambiguities`` runs on a whole batch of circles at once.  The
reference check reads the whole last circle; ``max_modulus`` evaluates only
an arc of it, and its verdicts must be the same.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlichtlab import families, hayman, lab
from schlichtlab.errors import AmbiguousDirection, InvalidParameter
from schlichtlab.families import (CIRCLE_ANGLES, CIRCLE_GRID, dilated, make_schlicht,
                                  max_modulus, rotated)
from schlichtlab.hayman import HaymanEstimate, default_schedule, hayman_index

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def parent_max_modulus(f, radii, grid=512):
    """The single-member lockstep search: every radius of one member, its own pair."""
    def circle_abs(rad, theta):
        return np.abs(f.value(rad * np.exp(1j * theta)))

    thetas = 2.0 * np.pi * np.arange(grid) / grid
    j = np.argmax(circle_abs(radii[:, None], thetas), axis=1)
    h = 2.0 * np.pi / grid
    a, b = thetas[j] - h, thetas[j] + h
    steps = int(math.ceil(math.log(1e-10 / (2.0 * h)) / math.log(_INV_PHI)))
    width = b - a
    c, d = a + _INV_PHI2 * width, a + _INV_PHI * width
    yc, yd = circle_abs(radii, c), circle_abs(radii, d)
    for _ in range(steps):
        left = yc > yd
        kept, y_kept = np.where(left, c, d), np.where(left, yc, yd)
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = width * _INV_PHI
        t = a + np.where(left, _INV_PHI2, _INV_PHI) * width
        y = circle_abs(radii, t)
        c, yc = np.where(left, t, kept), np.where(left, y, y_kept)
        d, yd = np.where(left, kept, t), np.where(left, y_kept, y)
    theta = np.array([math.remainder(t, 2.0 * math.pi) for t in (0.5 * (a + b)).tolist()])
    return circle_abs(radii, theta), theta


def parent_check_single_direction(vals):
    """The per-circle direction check: AmbiguousDirection unless one maximum of
    ``vals``, |f| at the CIRCLE_ANGLES of one circle, dominates."""
    local = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(local)
    if len(peaks) > 1:
        order = peaks[np.argsort(vals[peaks])[::-1]]
        best, second = order[0], order[1]
        sep = abs(math.remainder(CIRCLE_ANGLES[best] - CIRCLE_ANGLES[second], 2.0 * math.pi))
        window = 4.0 * np.pi / CIRCLE_GRID
        if vals[best] - vals[second] <= 1e-6 and sep > window:
            raise AmbiguousDirection(
                f"circle maxima at angles {CIRCLE_ANGLES[best]:.4f} and "
                f"{CIRCLE_ANGLES[second]:.4f} agree in modulus; no single growth direction"
            )


def _parent_ambiguity(vals):
    try:
        parent_check_single_direction(vals)
    except AmbiguousDirection as exc:
        return str(exc)
    return None


def _whole_circle_verdict(f, r):
    """The reference verdict on the whole circle |z| = r."""
    return _parent_ambiguity(np.abs(f.value(r * np.exp(1j * CIRCLE_ANGLES))))


def parent_hayman_index(f, grid=512):
    radii = default_schedule(f)
    peaks, angles = parent_max_modulus(f, radii, grid)
    upper = float(((1.0 - radii) ** 2 / radii * peaks)[-1])
    # the direction check evaluates the last circle's grid a second time
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = np.abs(f.value(radii[-1] * np.exp(1j * thetas)))
    try:
        parent_check_single_direction(vals)
        theta = float(angles[-1])
    except AmbiguousDirection:
        return HaymanEstimate(alpha=upper, upper=upper, theta=None)
    ray = np.exp(1j * theta)
    alpha = float(((1.0 - radii) ** 3 * np.abs(f.deriv(radii * ray)) / (1.0 + radii))[-1])
    return HaymanEstimate(alpha=min(alpha, upper), upper=max(alpha, upper), theta=theta)


@st.composite
def closed_form_members(draw):
    """koebe_transform at |w| <= 0.6, rotation and dilation, each optionally
    rotated by theta and dilated by r, at mixed orders."""
    order = draw(st.sampled_from([16, 64, 130]))
    kind = draw(st.sampled_from(["koebe_transform", "rotation", "dilation"]))
    if kind == "koebe_transform":
        w = cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(-math.pi, math.pi)))
        f = make_schlicht(kind, {"w": w}, order=order)
    elif kind == "rotation":
        f = make_schlicht(kind, {"theta": draw(st.floats(-math.pi, math.pi))}, order=order)
    else:
        f = make_schlicht(kind, {"r": draw(st.floats(0.1, 0.99))}, order=order)
    if draw(st.booleans()):
        f = rotated(f, draw(st.floats(-math.pi, math.pi)))
    if draw(st.booleans()):
        f = dilated(f, draw(st.floats(0.5, 0.999)))
    return f


@st.composite
def window_members(draw):
    """One to three members of a transform window, each series a row of one
    block as theorem2 builds its window, or one to three Koebe dilations."""
    order = draw(st.sampled_from([16, 64, 130]))
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        ws = [cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(-math.pi, math.pi)))
              for _ in range(count)]
        return families._transforms(ws, order)[1]
    return [make_schlicht("dilation", {"r": draw(st.floats(0.1, 0.99))}, order)
            for _ in range(count)]


# single members and window rows, mixed in one batch
batches = st.lists(st.one_of(closed_form_members().map(lambda f: [f]), window_members()),
                   min_size=1, max_size=4).map(lambda groups: sum(groups, []))


def _bits(est):
    """An estimate's fields, floats spelled exactly (signed zeros included)."""
    return tuple(None if v is None else float(v).hex()
                 for v in (est.alpha, est.upper, est.theta))


@settings(max_examples=40, deadline=None)
@given(batches)
def test_batch_members_equal_batch_of_one(members):
    radii = default_schedule(members[0])
    peaks, angles, verdicts = max_modulus(members, radii)
    estimates = hayman_index(members)
    assert len(estimates) == len(members) == len(verdicts)
    for i, f in enumerate(members):
        m1, t1 = max_modulus(f, radii)
        assert m1.tobytes() == peaks[i].tobytes(), f.label()
        assert t1.tobytes() == angles[i].tobytes(), f.label()
        assert max_modulus([f], radii)[2] == [verdicts[i]], f.label()
        assert verdicts[i] == _whole_circle_verdict(f, radii[-1]), f.label()
        assert _bits(hayman_index(f)) == _bits(estimates[i]), f.label()


def test_a_batch_past_numpys_elision_size_equals_batch_of_one():
    # 1,200 members at 14 radii make 16,800 golden-section lanes; under an
    # operator numpy reuses a temporary of 16,384 complex128 entries or more in
    # place, and the in-place complex product rounds differently
    members = [make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, 8)
               for m in range(1, 1201)]
    estimates = hayman_index(members)
    assert len(members) * len(default_schedule(members[0])) >= 16384
    for f, est in zip(members, estimates):
        assert _bits(hayman_index(f)) == _bits(est), f.label()


@st.composite
def any_pair_members(draw):
    """Koebe maps, half-planes and transforms up to |w| = 0.99, each
    optionally rotated and dilated by r up to 1 - 1e-6."""
    order = draw(st.sampled_from([16, 64]))
    kind = draw(st.sampled_from(["koebe", "halfplane", "koebe_transform"]))
    w = cmath.rect(draw(st.floats(0.0, 0.99)), draw(st.floats(-math.pi, math.pi)))
    f = make_schlicht(kind, {"w": w} if kind == "koebe_transform" else {}, order=order)
    if draw(st.booleans()):
        f = rotated(f, draw(st.floats(-math.pi, math.pi)))
    if draw(st.booleans()):
        f = dilated(f, draw(st.floats(1e-3, 1.0 - 1e-6)))
    return f


# random radii, radii whose 1 - r|beta| falls below the 2^-20 guard, radii
# in growth_direction's range [0.9, 1), and the Prawitz radii
radius_grids = st.one_of(
    st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       st.floats(1.0 - 2.0 ** -19, 1.0 - 2.0 ** -40)),
             min_size=1, max_size=8, unique=True).map(sorted),
    st.lists(st.floats(0.9, 1.0, exclude_max=True), min_size=1, max_size=8,
             unique=True).map(sorted),
    st.just([0.3, 0.5, 0.7, 0.9]),
    st.just([0.3, 0.5, 0.7]))


@settings(max_examples=150, deadline=None)
@given(st.lists(any_pair_members(), min_size=1, max_size=4), radius_grids)
def test_arcs_pick_the_whole_grids_cells(members, radii):
    radii = np.array(radii)
    peaks, angles, verdicts = max_modulus(members, radii)
    for i, f in enumerate(members):
        m0, t0 = parent_max_modulus(f, radii)
        assert m0.tobytes() == peaks[i].tobytes(), (f.label(), f.beta_rho)
        assert t0.tobytes() == angles[i].tobytes(), (f.label(), f.beta_rho)
        assert verdicts[i] == _whole_circle_verdict(f, radii[-1]), (f.label(), f.beta_rho)


def test_theorem2_inner_circles_keep_arcs_only():
    # every circle of the theorem2 window, the last one included, keeps an arc
    members = [make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, order=256)
               for m in range(1, 65)]
    radii = default_schedule(members[0])
    first, count = families._arcs(members, radii, radii[:, None] * np.exp(1j * CIRCLE_ANGLES))
    assert count.shape == (64, 14)
    assert np.all(count < CIRCLE_GRID)
    assert np.all(count[:, 3:] < 16) and np.sum(count) < 0.02 * count.size * CIRCLE_GRID


@pytest.mark.parametrize("f, radii", [
    (make_schlicht("koebe", order=16), [0.5, 1.0 - 2.0 ** -21, 1.0 - 2.0 ** -30]),  # 1 - r|beta|
    # r |beta|: at a subnormal radius rounding can lift L past 1.01 r, and an
    # arc would drop the whole grid's best cell
    (rotated(make_schlicht("koebe", order=16), -3.0), [2.0 ** -21, 1e-300, 1e-322, 0.5]),
    (dilated(make_schlicht("koebe", order=16), 2.0 ** -22), [0.5, 0.9, 0.99]),
    (make_schlicht("custom", {"coeffs": np.arange(17)}, order=16), [0.5, 0.9, 0.99]),
], ids=["near_one", "tiny_radius", "tiny_beta", "series_only"])
def test_guarded_circles_are_searched_whole(f, radii):
    radii = np.sort(radii)
    _, count = families._arcs([f], radii, radii[:, None] * np.exp(1j * CIRCLE_ANGLES))
    small = radii * abs(f.beta_rho[0]) < 2.0 ** -20 if f.has_closed_form else True
    near = 1.0 - radii * abs(f.beta_rho[0]) < 2.0 ** -20 if f.has_closed_form else True
    assert np.all(count[0][small | near] == CIRCLE_GRID)
    m, t = max_modulus(f, radii)
    m0, t0 = parent_max_modulus(f, radii)
    assert (m.tobytes(), t.tobytes()) == (m0.tobytes(), t0.tobytes())
    assert max_modulus([f], radii)[2] == [_whole_circle_verdict(f, radii[-1])]


# a flat circle with a few bumps: one peak, equal or near-equal maxima at
# neighbouring or distant angles, plateaus
_BUMPS = st.lists(st.tuples(st.integers(0, CIRCLE_GRID - 1),
                            st.sampled_from([1.0, 1.0 + 5e-7, 1.0 + 2e-6, 2.0])), max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(_BUMPS, min_size=1, max_size=4))
def test_batched_direction_check_equals_per_circle_check(rows):
    circles = np.zeros((len(rows), CIRCLE_GRID))
    for circle, bumps in zip(circles, rows):
        for at, level in bumps:
            circle[at] = level
    assert families._ambiguities(circles) == [_parent_ambiguity(v) for v in circles]


def _circle(*bumps):
    """A flat circle of 0.5 with ``(at, level)`` bumps."""
    circle = np.full(CIRCLE_GRID, 0.5)
    for at, level in bumps:
        circle[at] = level
    return circle


_TWO = np.cos(2.0 * CIRCLE_ANGLES)  # two equal maxima, half a turn apart
_PLATEAU = np.minimum(np.cos(CIRCLE_ANGLES), 0.9)  # one plateau of about 70 cells


@pytest.mark.parametrize("circle", [
    np.full(CIRCLE_GRID, math.nan),  # no local maximum: NaN compares False
    np.cos(CIRCLE_ANGLES - 1.0),  # one
    _TWO,
    _TWO + 2e-7 * np.cos(CIRCLE_ANGLES),  # two within 1e-6
    _TWO + 1e-5 * np.cos(CIRCLE_ANGLES),  # two, one dominant
    np.cos(CIRCLE_ANGLES - 3.5 * 2.0 * np.pi / CIRCLE_GRID),  # two neighbours, one peak
    _circle((3, 2.0), (300, 2.0)),  # many: the flat cells count too
    _circle((7, 2.0)),
    _PLATEAU,
    np.maximum(_PLATEAU, 0.9 * np.cos(CIRCLE_ANGLES - 3.0)),  # a plateau and a far peak
    np.full(CIRCLE_GRID, 1.0),  # every cell a maximum
], ids=["none", "one", "two", "two_near_equal", "two_dominant", "two_neighbours",
        "bumps_on_flat", "bump_on_flat", "plateau", "plateau_and_peak", "flat"])
def test_direction_check_by_number_of_local_maxima(circle):
    # each circle alone and beside a circle with a single maximum, which the
    # batched check passes over
    one = np.cos(CIRCLE_ANGLES)
    circles = np.stack([one, circle, one])
    assert families._ambiguities(circles) == [_parent_ambiguity(v) for v in circles]
    assert families._ambiguities(circle[None]) == [_parent_ambiguity(circle)]


def test_batched_direction_check_on_theorem2_circles():
    members = [make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, order=256)
               for m in range(1, 17)]
    members.append(make_schlicht("koebe", order=256))  # a dominant maximum
    r = default_schedule(members[0])[-1]
    _, _, verdicts = max_modulus(members, r)
    assert verdicts == [_whole_circle_verdict(f, r) for f in members]


@pytest.mark.parametrize("m", [1, 7, 64])
def test_theorem2_member_matches_parent_pipeline(m):
    f = make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, order=256)
    assert _bits(hayman_index(f)) == _bits(parent_hayman_index(f))


def test_scalar_radius_batch_shapes():
    members = [make_schlicht("koebe", order=16), make_schlicht("halfplane", order=16)]
    peaks, angles, verdicts = max_modulus(members, 0.5)
    assert peaks.shape == angles.shape == (2,) and verdicts == [None, None]
    assert abs(peaks[0] - 2.0) < 1e-12 and abs(peaks[1] - 1.0) < 1e-12


def test_closed_form_batch_search_makes_no_member_call(monkeypatch):
    # every circle of a closed-form batch goes through the one flat evaluation;
    # a series-only member evaluates its partial sums through its own value
    calls = []
    value = families.SchlichtFunction.value

    def counted(self, z):
        calls.append(self.kind)
        return value(self, z)

    monkeypatch.setattr(families.SchlichtFunction, "value", counted)
    members = [make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j / m)}, order=64)
               for m in range(1, 9)]
    max_modulus(members, default_schedule(members[0]))
    assert calls == []
    series_only = make_schlicht("custom", {"coeffs": members[0].series.coeffs}, order=64)
    max_modulus([series_only], default_schedule(series_only))
    assert calls and set(calls) == {"custom"}


def test_series_only_member_is_a_batch_of_one():
    k = make_schlicht("koebe", order=64)
    series_only = make_schlicht("custom", {"coeffs": k.series.coeffs}, order=64)
    (est,) = hayman_index([series_only])
    assert est == hayman_index(series_only)
    with pytest.raises(InvalidParameter):
        hayman_index([k, series_only])
    with pytest.raises(InvalidParameter):
        max_modulus([series_only, series_only], 0.5)


@pytest.mark.parametrize("bad", [[], [None], ["koebe"]])
def test_malformed_batches_rejected(bad):
    with pytest.raises(InvalidParameter):
        max_modulus(bad, 0.5)


THEOREM2 = {"scenario": "theorem2", "m_range": [1, 16], "n_range": [1, 256],
            "series_order": 256}


def test_theorem2_reports_equal_per_member_reference(tmp_path, monkeypatch):
    cfg = lab.ScenarioConfig.from_dict(dict(THEOREM2, out_dir=str(tmp_path / "batch")))
    batched = lab.export_report(lab.run_scenario(cfg))
    monkeypatch.setattr(hayman, "hayman_index",
                        lambda members: [parent_hayman_index(f) for f in members])
    ref = lab.export_report(lab.run_scenario(cfg), out_dir=str(tmp_path / "ref"))
    assert [p.name for p in batched] == ["theorem2.csv", "theorem2.json"]
    for p, q in zip(batched, ref):
        assert p.read_bytes() == q.read_bytes(), p.name


def test_theorem2_makes_one_batched_search(monkeypatch):
    calls = {"max_modulus": 0, "hayman_index": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hayman, "max_modulus", counted("max_modulus", hayman.max_modulus))
    monkeypatch.setattr(hayman, "hayman_index", counted("hayman_index", hayman.hayman_index))
    rep = lab.run_scenario(lab.ScenarioConfig.from_dict(THEOREM2))
    assert len(rep.summary["alpha"]) == 16
    assert calls == {"max_modulus": 1, "hayman_index": 1}
