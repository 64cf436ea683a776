"""Summability engine: Cesaro and weighted means plus harnesses.

The double-indexed harness takes a family of real coefficient rows
``a_k^{(m)}`` with Abel targets ``alpha_m`` and measures how fast the
weighted means

    (n+1)^{-1} sum_{k<=n} (n+1-k) a_k   (== the Cesaro mean of partial sums)

approach the targets simultaneously in (m, n).  Its hypotheses are
checked by finite proxies only: the one-sided partial-sum bound by an
observed constant, and uniform convergence by Abel evaluation on the
fixed t-grid ``T_GRID`` (with t = 1 filled by the target values).

``tauber_decomposition_check`` verifies the exact finite-ledger identity
splitting the boundary-mean series minus a Cesaro mean into weighted
delta-tails; ``euler_bracket`` is the elementary bracket
(1 - 1/(n+1))^{n+1} < 1/e < (1 - 1/(n+1))^n, whose upper end is the
counterexample's diagonal value (1 - 1/m)^{m-1} at m = n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexCoefficients,
    IndexOutOfRange,
    InvalidParameter,
)
from .families import _powers
from .logmilin import LogData
from .series import finite_parameter, integer_parameter, numeric_array, require_instance

T_GRID = (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)


# -- means ---------------------------------------------------------------


def _check_index(coeffs, n: int):
    """``coeffs`` as a 1-D numeric array and ``n`` as an integer index into it."""
    coeffs = numeric_array(coeffs, "coefficients")
    n = integer_parameter(n, "mean index")
    if not 0 <= n < len(coeffs):
        raise IndexOutOfRange(f"mean index {n} outside 0..{len(coeffs) - 1}")
    return coeffs, n


def cesaro_mean(coeffs, n: int):
    """Average of the partial sums s_0..s_n."""
    coeffs, n = _check_index(coeffs, n)
    s = np.cumsum(coeffs[: n + 1])
    return s.sum() / (n + 1)


def weighted_mean(coeffs, n: int):
    """(n+1)^{-1} sum_{k<=n} (n+1-k) a_k; identical to the Cesaro mean."""
    coeffs, n = _check_index(coeffs, n)
    w = (n + 1) - np.arange(n + 1)
    return np.dot(w, coeffs[: n + 1]) / (n + 1)


# -- double-indexed family harness ---------------------------------------


@dataclass(frozen=True)
class DoubleFamily:
    """Coefficient rows a_k^{(m)} with their Abel targets alpha_m.

    All rows share one truncation order.
    """

    m_values: np.ndarray
    coeff_rows: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        rows = numeric_array(self.coeff_rows, "coefficient rows", 2)
        alpha = numeric_array(self.alpha, "alpha")
        if len(alpha) != rows.shape[0]:
            raise InvalidParameter("need one coefficient row and one alpha per m")
        if len(alpha) == 0:
            raise InvalidParameter("family must not be empty")
        m_values = _m_values(self.m_values, len(alpha))
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(rows))):
            raise InvalidParameter("family data must be finite")
        object.__setattr__(self, "m_values", m_values)
        object.__setattr__(self, "coeff_rows", rows)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class TauberHarnessReport:
    """Observables of one harness run.

    ``deviation`` holds |alpha_m - weighted mean at n|, one row per m and
    one column per n.  ``tail_sup[N]`` is its supremum over
    m > min(N, max m - 1) and n > min(N, max n - 1); the clamping keeps
    the window non-empty on a finite grid, and the array is non-increasing
    by construction.  ``uniform_gap`` is the largest difference between
    the Abel values of the last two rows over ``T_GRID`` (0 for one row).
    ``iii_bounded`` is the doubling heuristic for the one-sided
    partial-sum bound: the observed constant over the full range must not
    materially exceed the half-range one.
    """

    l_observed: float
    uniform_gap: float
    deviation: np.ndarray
    tail_sup: np.ndarray
    iii_bounded: bool


def _m_values(m_values, count: int) -> np.ndarray:
    """``m_values`` as ``count`` strictly increasing ints, one per row."""
    m_values = numeric_array(m_values, "m_values", 1, "iu")
    if len(m_values) != count:
        raise InvalidParameter("need one integer m value per row")
    if np.any(np.diff(m_values) <= 0):
        raise InvalidParameter("m_values must be strictly increasing")
    return m_values.astype(int)


def tail_cutoffs(max_m: int, n_count: int) -> int:
    """How many cutoffs N = 0, 1, ... the tail grid of :func:`tail_supremum`
    holds for a surface with ``n_count`` columns whose last row is ``m = max_m``.

    The config check of :mod:`~schlichtlab.lab` reads the same count, so a
    cutoff it accepts always lies on the grid.  Both are integers, ``n_count``
    positive.
    """
    return max(integer_parameter(max_m, "max_m"), integer_parameter(n_count, "n_count", 1) - 1)


def tail_supremum(d: np.ndarray, m_values: np.ndarray):
    """Clamped joint tail suprema of a non-negative surface.

    ``d`` has one row per entry of ``m_values``, which must increase
    strictly (the rule :class:`DoubleFamily` enforces).  Returns
    (N_grid, sup array); see :class:`TauberHarnessReport`.
    """
    d = numeric_array(d, "the surface", 2, "iuf")
    if d.size == 0:
        raise InvalidParameter("the surface must be a non-empty real 2-D array")
    m_values = _m_values(m_values, d.shape[0])
    max_m = int(m_values[-1])
    max_n = d.shape[1] - 1
    # suffix maxima along n, then along m: corner[i, j] = max d[i:, j:]
    corner = np.maximum.accumulate(d[::-1, ::-1], axis=1)
    corner = np.maximum.accumulate(corner, axis=0)[::-1, ::-1]
    n_grid = np.arange(tail_cutoffs(max_m, d.shape[1]))
    # the first row with m > row cut; the clamp keeps it inside the surface
    first_row = np.searchsorted(m_values, np.minimum(n_grid, max_m - 1), side="right")
    sup = np.asarray(corner[first_row, np.minimum(n_grid, max_n - 1) + 1], dtype=float)
    return n_grid, sup


def simultaneous_tauber_harness(fam: DoubleFamily) -> TauberHarnessReport:
    """Run the double-indexed weighted-mean experiment on real rows.

    Complex rows are rejected outright (imaginary parts above 1e-14)
    rather than silently projected: the machinery is only valid for real
    coefficients.  The Abel sums, taken of the last two rows alone, which
    are all that ``uniform_gap`` reads, are numpy's own sums of elementwise
    products with one :func:`families._powers` table, not a BLAS product, so
    equal rows give equal bits whether held as real or as complex, and
    whichever BLAS kernel is loaded.
    """
    require_instance(fam, DoubleFamily, "the harness")
    rows = np.asarray(fam.coeff_rows)
    if np.iscomplexobj(rows):
        worst = float(np.max(np.abs(rows.imag)))
        if worst > 1e-14:
            raise ComplexCoefficients(
                f"rows carry imaginary parts up to {worst:.3g}; the harness needs real data"
            )
        rows = rows.real
    alpha = np.asarray(fam.alpha, dtype=float)

    partial = np.cumsum(rows, axis=1)
    l_observed = float(np.max(partial - alpha[:, None]))
    # doubling heuristic for the one-sided bound: linear growth doubles it
    half = rows.shape[1] // 2
    l_half = float(np.max(partial[:, : half + 1] - alpha[:, None]))
    iii_bounded = l_observed <= max(1.25 * l_half, l_half + 1e-9) + 1e-9

    # Abel sums of the last two rows at every t < 1 from one power table; at
    # t = 1 the targets, the continuity extension at the endpoint
    uniform_gap = 0.0
    if rows.shape[0] >= 2:
        powers = _powers(np.array(T_GRID[:-1]), rows.shape[1])
        abel = np.column_stack((np.sum(rows[-2:, None] * powers, axis=2), alpha[-2:]))
        uniform_gap = float(np.max(np.abs(abel[1] - abel[0])))

    weighted = np.cumsum(partial, axis=1) / np.arange(1, rows.shape[1] + 1)
    d = np.abs(alpha[:, None] - weighted)
    return TauberHarnessReport(
        l_observed=l_observed,
        uniform_gap=uniform_gap,
        deviation=d,
        tail_sup=tail_supremum(d, fam.m_values)[1],
        iii_bounded=iii_bounded,
    )


# -- exact finite-ledger decomposition ------------------------------------


def tauber_decomposition_check(ld: LogData, n: int, r: float) -> float:
    """Residual of the split of F(r) - sigma_n into weighted delta sums.

    Both sides are computed from the same finite ledger with the same
    truncation K (the ledger top index):

        LHS = sum_{k<=K} b_k r^k - sigma_n
        RHS = (1-r) sum_{k=1}^{K} delta_k r^k
              + sum_{k=n}^{K} (delta_k / k) r^k
              + sum_{k=1}^{n-1} (delta_k / k) (r^k - 1)
              - delta_n / n
              + delta_K r^{K+1}

    The last term closes the truncation of the two telescoping formulas
    at order K, making the identity exact up to rounding; it vanishes as
    K grows.  Tests algebra, not analysis.  ``n`` is an integer and ``r``
    a number; anything else raises :class:`InvalidParameter`.
    """
    require_instance(ld, LogData, "tauber_decomposition_check")
    r = finite_parameter(r, "r")
    if not 0.0 < r < 1.0:
        raise InvalidParameter("r must lie in (0, 1)")
    n = integer_parameter(n, "n")
    k_top = ld.top_index
    if not 2 <= n <= k_top:
        raise IndexOutOfRange(f"n must lie in 2..{k_top}")
    b = ld.f_coeffs
    delta = ld.delta
    rk = _powers(r, k_top + 1)

    lhs = np.dot(b, rk) - ld.sigma[n]
    ks = np.arange(1, k_top + 1, dtype=float)
    rhs = (1.0 - r) * np.dot(delta[1:], rk[1:])
    rhs += np.dot(delta[n:] / ks[n - 1 :], rk[n:])
    rhs += np.dot(delta[1:n] / ks[: n - 1], rk[1:n] - 1.0)
    rhs -= delta[n] / n
    rhs += delta[k_top] * r ** (k_top + 1)
    return float(abs(lhs - rhs))


def euler_bracket(n: int):
    """((1 - 1/(n+1))^{n+1}, (1 - 1/(n+1))^n) and whether 1/e sits inside.

    ``n`` is an integer >= 1; anything else raises :class:`InvalidParameter`.
    """
    n = integer_parameter(n, "n", 1)
    base = 1.0 - 1.0 / finite_parameter(n + 1, "n + 1")
    lower = base ** (n + 1)
    upper = base ** n
    ok = lower < np.exp(-1.0) < upper
    return lower, upper, bool(ok)
