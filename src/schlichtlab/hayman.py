"""Growth-index estimation for normalized univalent maps.

The growth index (Hayman index) of a normalized univalent ``f`` is the
limit of ``(1-r)^2 M(r)`` as ``r`` tends to 1, where ``M(r)`` is the
circle maximum of |f|.  Two monotone quantities converge to it from
above and drive the estimators here:

* growth profile      ``(1-r)^2 M(r) / r``            (non-increasing),
* derivative profile  ``(1-r)^3 |f'(r e^{i t})|/(1+r)`` along the growth
  ray (strictly decreasing).

Both are certified upper bounds at every finite radius, so the reported
index is the profile value at the largest scheduled radius together with
that upper-bound status; no extrapolation is performed because no
convergence rate is available.  The lower end of the bracket is left
open (zero) unless a closed form pins it.

``hayman_index`` estimates a whole batch of members at once (see
:func:`~schlichtlab.families.batch`): one :func:`max_modulus` call searches
every member's circles, and one array evaluation gives every derivative
profile.  A single member is a batch of one, and a member's estimate does
not depend on the rest of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AmbiguousDirection, InvalidParameter, NonMonotoneProfile
from .families import (
    CIRCLE_ANGLES,
    CIRCLE_GRID,
    SchlichtFunction,
    batch,
    batch_evaluator,
    max_modulus,
    radius_grid,
)
from .series import finite_parameter, require_instance

#: beyond this radius pure-series evaluation is refused: at order 256 the
#: universal coefficient-bound tail already exceeds the profile tolerance.
SERIES_RADIUS_LIMIT = 1.0 - 2.0 ** -8

_MONOTONE_TOL = 1e-6


@dataclass(frozen=True)
class HaymanEstimate:
    """Bracketed growth index.

    ``alpha`` is the best (smallest) certified upper bound seen, ``upper``
    the growth-profile bound; ``upper - alpha`` is the bracket width from
    running both estimators.  ``theta`` is the direction of greatest
    growth when one was identified.  Both bounds are read at the last
    radius of the member's :func:`default_schedule`.
    """

    alpha: float
    upper: float
    theta: Optional[float]

    @property
    def bracket_width(self) -> float:
        return self.upper - self.alpha


def default_schedule(f: SchlichtFunction) -> np.ndarray:
    """Radii 1 - 2^{-j}; closed forms go to j = 14, pure series stop at 8."""
    require_instance(f, SchlichtFunction, "default_schedule")
    jmax = 14 if f.has_closed_form else 8
    return 1.0 - 2.0 ** -np.arange(1, jmax + 1)


def _check_series_reach(members, radii: np.ndarray) -> None:
    if radii[-1] > SERIES_RADIUS_LIMIT + 1e-15 and not all(g.has_closed_form for g in members):
        raise NonMonotoneProfile(
            f"series-only evaluation beyond r = {SERIES_RADIUS_LIMIT:.6f} has an "
            "uncontrolled truncation tail; supply a closed form"
        )


def _monotone(members, vals: np.ndarray, estimator: str) -> np.ndarray:
    """``vals``, one profile row per member, checked to be non-increasing."""
    if vals.shape[1] > 1:
        for g, worst in zip(members, np.max(np.diff(vals, axis=1), axis=1).tolist()):
            if worst > _MONOTONE_TOL:
                raise NonMonotoneProfile(
                    f"{estimator} profile of {g.label()} increased by {worst:.3g}; "
                    "insufficient truncation or grid density"
                )
    return vals


def _growth_rows(members, radii: np.ndarray):
    """Growth profiles of a batch from one :func:`max_modulus` call.

    Returns the ``(members, radii)`` profile values and angles, and the
    grid stage's |f| on each member's last circle.
    """
    peaks, angles, last = max_modulus(members, radii)
    return _monotone(members, (1.0 - radii) ** 2 / radii * peaks, "growth"), angles, last


def _derivative_rows(members, radii: np.ndarray, thetas) -> np.ndarray:
    """Derivative profiles of a batch along the rays ``thetas``, one array evaluation."""
    thetas = [finite_parameter(t, "growth-ray angle theta") for t in thetas]
    rays = np.exp(1j * np.array(thetas))[:, None]
    deriv = batch_evaluator(members, len(radii), derivative=True)
    slopes = np.abs(deriv((radii * rays).ravel())).reshape(len(members), -1)
    return _monotone(members, (1.0 - radii) ** 3 * slopes / (1.0 + radii), "derivative")


def growth_profile(f: SchlichtFunction, radii: Sequence[float]) -> np.ndarray:
    """The growth profile ``(1-r)^2 M(r) / r`` of ``f``, one value per radius of ``radii``.

    Every circle maximum comes from one lockstep :func:`max_modulus` call
    over the whole grid.  The derivative profile is read by
    :func:`hayman_index` only, along the growth direction it finds.

    Raises :class:`NonMonotoneProfile` if the values increase beyond 1e-6
    between consecutive radii (evaluation-error signal), or if a
    series-only function is pushed past ``SERIES_RADIUS_LIMIT`` where its
    truncation tail can no longer be kept inside the tolerance.
    """
    radii = radius_grid(radii)
    _check_series_reach([f], radii)
    return _growth_rows([f], radii)[0][0]


def _ambiguities(circles: np.ndarray) -> list:
    """For each row of ``circles``, |f| at the CIRCLE_ANGLES of one circle,
    None when one maximum dominates, else the :class:`AmbiguousDirection`
    message.  One np.roll pair marks the local maxima of every row; only a
    row with two or more of them (a plateau counts each of its cells) is
    compared in Python."""
    local = (circles >= np.roll(circles, 1, axis=1)) & (circles >= np.roll(circles, -1, axis=1))
    out, window = [None] * len(circles), 4.0 * np.pi / CIRCLE_GRID
    for i in np.flatnonzero(np.count_nonzero(local, axis=1) > 1).tolist():
        vals, peaks = circles[i], np.flatnonzero(local[i])
        order = peaks[np.argsort(vals[peaks])[::-1]]
        best, second = order[0], order[1]
        sep = abs(math.remainder(CIRCLE_ANGLES[best] - CIRCLE_ANGLES[second], 2.0 * math.pi))
        if vals[best] - vals[second] <= 1e-6 and sep > window:
            out[i] = (f"circle maxima at angles {CIRCLE_ANGLES[best]:.4f} and "
                      f"{CIRCLE_ANGLES[second]:.4f} agree in modulus; no single growth "
                      "direction")
    return out


def growth_direction(f: SchlichtFunction, r_probe: float) -> float:
    """Angle of the circle maximum of |f| near the boundary.

    Raises :class:`AmbiguousDirection` when two local grid maxima agree in
    modulus to 1e-6 but sit further apart than the refinement window:
    either the function is symmetric or it has no dominant direction.  The
    check reads the grid stage of the same :func:`max_modulus` call.
    """
    if not 0.9 <= finite_parameter(r_probe, "r_probe") < 1.0:
        raise InvalidParameter("r_probe must lie in [0.9, 1)")
    _, angles, last = max_modulus([f], r_probe)
    (ambiguity,) = _ambiguities(last)
    if ambiguity is not None:
        raise AmbiguousDirection(ambiguity)
    return float(angles[0])


def hayman_index(f):
    """Estimate the growth index from the monotone profiles.

    ``f`` is one member or a sequence of members (see
    :func:`~schlichtlab.families.batch`), which share the first member's
    :func:`default_schedule`.  Returns one
    :class:`HaymanEstimate`, or a list of them for a sequence; a member's
    estimate does not depend on the other members of its batch.

    The growth profile always runs; when the schedule's last circle shows
    one dominant maximum, its angle is the growth direction, and the
    derivative profile along that ray runs too and the pair forms the
    reported bracket.  Both final values are certified upper bounds for
    the true index.  All members' circles are searched in one
    :func:`max_modulus` call, whose grid stage on the last circle also
    feeds the direction check (one np.roll pair marks the local maxima of
    every member's circle), and all derivative profiles are one array
    evaluation.
    """
    members = batch(f)
    # no series-reach check: a batch holds closed forms only, or one
    # series-only member, whose schedule stops at SERIES_RADIUS_LIMIT
    radii = default_schedule(members[0])
    growth, angles, last = _growth_rows(members, radii)
    upper = growth[:, -1]

    # the direction is read on the last circle, of radius at least 1 - 2^-8:
    # the circle maximum drifts from the limiting direction by O(1-r), which
    # only stays harmless relative to the evaluation radius if both shrink
    # together
    thetas = [None if ambiguity is not None else float(theta)
              for ambiguity, theta in zip(_ambiguities(last), angles[:, -1])]

    alpha = upper.copy()
    found = [i for i, t in enumerate(thetas) if t is not None]
    if found:
        dvals = _derivative_rows([members[i] for i in found], radii,
                                 [thetas[i] for i in found])
        alpha[found] = dvals[:, -1]
    estimates = []
    for a, u, t in zip(alpha.tolist(), upper.tolist(), thetas):
        # the derivative bound never exceeds the growth bound; float guard only
        estimates.append(HaymanEstimate(alpha=min(a, u), upper=max(a, u), theta=t))
    return estimates[0] if isinstance(f, SchlichtFunction) else estimates
