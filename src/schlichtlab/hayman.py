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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AmbiguousDirection, InvalidParameter, NonMonotoneProfile
from .families import SchlichtFunction, finite_parameter, max_modulus, radius_grid

#: beyond this radius pure-series evaluation is refused: at order 256 the
#: universal coefficient-bound tail already exceeds the profile tolerance.
SERIES_RADIUS_LIMIT = 1.0 - 2.0 ** -8

_MONOTONE_TOL = 1e-6


@dataclass(frozen=True)
class GrowthProfile:
    """Profile values over an increasing radius grid.

    ``angles`` holds the maximizing angle on each circle for the growth
    estimator (None for the derivative estimator, which follows one ray).
    """

    radii: np.ndarray
    values: np.ndarray
    estimator: str  # "growth" | "derivative"
    angles: Optional[np.ndarray] = None


@dataclass(frozen=True)
class HaymanEstimate:
    """Bracketed growth index.

    ``alpha`` is the best (smallest) certified upper bound seen, ``upper``
    the growth-profile bound; ``upper - alpha`` is the bracket width from
    running both estimators.  ``theta`` is the direction of greatest
    growth when one was identified.
    """

    alpha: float
    upper: float
    radius_used: float
    theta: Optional[float]

    @property
    def bracket_width(self) -> float:
        return self.upper - self.alpha


def default_schedule(f: SchlichtFunction) -> np.ndarray:
    """Radii 1 - 2^{-j}; closed forms go to j = 14, pure series stop at 8."""
    jmax = 14 if f.has_closed_form else 8
    return 1.0 - 2.0 ** -np.arange(1, jmax + 1)


def growth_profile(
    f: SchlichtFunction,
    radii: Sequence[float],
    estimator: str = "growth",
    theta: Optional[float] = None,
    grid: int = 512,
) -> GrowthProfile:
    """Evaluate one of the two monotone growth profiles on a radius grid.

    The growth estimator takes every circle maximum in one lockstep
    :func:`max_modulus` call over the whole grid; the derivative estimator
    evaluates f' on the whole ray in one array evaluation.

    Raises :class:`NonMonotoneProfile` if the values increase beyond 1e-6
    between consecutive radii (evaluation-error signal), or if a
    series-only function is pushed past ``SERIES_RADIUS_LIMIT`` where its
    truncation tail can no longer be kept inside the tolerance.
    """
    radii = radius_grid(radii)
    if not f.has_closed_form and radii[-1] > SERIES_RADIUS_LIMIT + 1e-15:
        raise NonMonotoneProfile(
            f"series-only evaluation beyond r = {SERIES_RADIUS_LIMIT:.6f} has an "
            "uncontrolled truncation tail; supply a closed form"
        )

    angles = None
    if estimator == "growth":
        peaks, angles = max_modulus(f, radii, grid=grid)
        vals = (1.0 - radii) ** 2 / radii * peaks
    elif estimator == "derivative":
        if theta is None:
            raise InvalidParameter("derivative estimator needs the growth-ray angle theta")
        ray = np.exp(1j * finite_parameter(theta, "growth-ray angle theta"))
        vals = (1.0 - radii) ** 3 * np.abs(f.deriv(radii * ray)) / (1.0 + radii)
    else:
        raise InvalidParameter(f"unknown estimator {estimator!r}")

    worst = float(np.max(np.diff(vals))) if len(vals) > 1 else 0.0
    if worst > _MONOTONE_TOL:
        raise NonMonotoneProfile(
            f"{estimator} profile increased by {worst:.3g}; "
            "insufficient truncation or grid density"
        )
    return GrowthProfile(radii=radii, values=vals, estimator=estimator, angles=angles)


def _check_single_direction(f: SchlichtFunction, r_probe: float, grid: int) -> None:
    """Raise :class:`AmbiguousDirection` unless one grid maximum dominates."""
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = np.abs(f.value(r_probe * np.exp(1j * thetas)))
    local = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(local)
    if len(peaks) > 1:
        order = peaks[np.argsort(vals[peaks])[::-1]]
        best, second = order[0], order[1]
        sep = abs(math.remainder(thetas[best] - thetas[second], 2.0 * math.pi))
        window = 4.0 * np.pi / grid
        if vals[best] - vals[second] <= 1e-6 and sep > window:
            raise AmbiguousDirection(
                f"circle maxima at angles {thetas[best]:.4f} and {thetas[second]:.4f} "
                "agree in modulus; no single growth direction"
            )


def growth_direction(f: SchlichtFunction, r_probe: float, grid: int = 512) -> float:
    """Angle of the circle maximum of |f| near the boundary.

    Raises :class:`AmbiguousDirection` when two local grid maxima agree in
    modulus to 1e-6 but sit further apart than the refinement window:
    either the function is symmetric or it has no dominant direction.
    """
    if not 0.9 <= r_probe < 1.0:
        raise InvalidParameter("r_probe must lie in [0.9, 1)")
    if grid < 64:
        raise InvalidParameter("grid must be at least 64")
    _check_single_direction(f, r_probe, grid)
    _, theta_star = max_modulus(f, r_probe, grid=grid)
    return theta_star


def hayman_index(
    f: SchlichtFunction,
    schedule: Optional[Sequence[float]] = None,
    theta: Optional[float] = None,
    grid: int = 512,
) -> HaymanEstimate:
    """Estimate the growth index from the monotone profiles.

    The growth profile always runs; when a growth direction is known (or
    found by probing), the derivative profile runs too and the pair forms
    the reported bracket.  Both final values are certified upper bounds
    for the true index.  When the probe radius is the schedule's last
    radius (both default schedules), the direction is the angle the growth
    profile already found on that circle, so every circle is searched in
    one :func:`max_modulus` call.
    """
    radii = np.asarray(schedule, dtype=float) if schedule is not None else default_schedule(f)
    prof = growth_profile(f, radii, estimator="growth", grid=grid)
    upper = float(prof.values[-1])

    if theta is None:
        try:
            # probe at the largest scheduled radius: the circle maximum drifts
            # from the limiting direction by O(1-r), which only stays harmless
            # relative to the evaluation radius if both shrink together
            r_probe = max(0.9, float(radii[-1]))
            if r_probe == radii[-1]:
                # the growth profile has already searched this circle
                _check_single_direction(f, r_probe, grid)
                theta = float(prof.angles[-1])
            else:
                theta = growth_direction(f, r_probe, grid=grid)
        except AmbiguousDirection:
            theta = None

    alpha = upper
    if theta is not None:
        dprof = growth_profile(f, radii, estimator="derivative", theta=theta, grid=grid)
        alpha = float(dprof.values[-1])
        # the derivative bound never exceeds the growth bound; float guard only
        if alpha > upper:
            alpha, upper = upper, alpha
    return HaymanEstimate(alpha=alpha, upper=upper,
                          radius_used=float(radii[-1]), theta=theta)
