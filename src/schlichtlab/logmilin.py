"""Logarithmic-coefficient ledger and the classical scalar inequalities.

For a normalized univalent ``f`` the ledger collects, in one pass:

* ``gamma``        -- logarithmic coefficients, log(f(z)/z) = 2 sum gamma_n z^n
* ``sqrt_coeffs``  -- coefficients of sqrt(f(z)/z)
* ``lam``          -- lam_n = 2 (gamma_n - 1/n)
* ``f_coeffs``     -- coefficients of (1-z)^2 f(z)/z (the boundary-mean series)
* ``s``            -- s_n = a_{n+1} - a_n (partial sums of ``f_coeffs``)
* ``sigma``        -- sigma_n = a_{n+1}/(n+1) (Cesaro means of ``s``)
* ``delta``        -- delta_n = s_n - sigma_n

gamma comes from the series logarithm.  A frequently mis-stated textbook
recurrence for gamma omits an index weight and is kept here only as a
diagnostic (`gamma_recurrence_unweighted`); the weighted derivative
recurrence (`gamma_via_derivative_recurrence`) is the independent
cross-check that agrees with the series logarithm.  The same pattern
repeats for the ``f_coeffs`` exponential recurrence.

The checks cover Milin's partial-sum bound (constant 0.312), Bazilevich's
direction-weighted sum against -log(alpha)/2, the second Lebedev-Milin
chain, Prawitz's integrated circle-mean inequality, and the Bieberbach /
Zalcman coefficient functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha, InvalidParameter, QuadratureUnconverged
from .families import SchlichtFunction, max_modulus, radius_grid
from .series import ComplexSeries

#: numeric bound for Milin's constant used by the partial-sum check
MILIN_CONSTANT_BOUND = 0.312


@dataclass(frozen=True)
class LogData:
    """Derived coefficient ledger of one normalized univalent function.

    Arrays are indexed by the natural subscript: ``gamma[n]`` is gamma_n
    (entry 0 unused, kept zero), ``sqrt_coeffs[k]`` is the k-th root
    coefficient, and ``s``/``sigma``/``delta`` run over 0..N-1 where N is
    the source series order.
    """

    gamma: np.ndarray
    sqrt_coeffs: np.ndarray
    lam: np.ndarray
    f_coeffs: np.ndarray
    s: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray

    @property
    def top_index(self) -> int:
        return len(self.gamma) - 1


def log_data(f: SchlichtFunction) -> LogData:
    """Populate the full ledger from the truncated series of ``f``."""
    a = f.series.coeffs
    p = ComplexSeries(a[1:])  # f(z)/z, constant term 1
    m = p.order  # ledger top index

    half_log = 0.5 * p.log().coeffs
    gamma = half_log.copy()
    gamma[0] = 0.0

    sqrt_coeffs = p.sqrt().coeffs

    n = np.arange(m + 1, dtype=float)
    lam = np.zeros(m + 1, dtype=np.complex128)
    lam[1:] = 2.0 * (gamma[1:] - 1.0 / n[1:])

    square = np.zeros(m + 1, dtype=np.complex128)
    square[0] = 1.0
    if m >= 1:
        square[1] = -2.0
    if m >= 2:
        square[2] = 1.0
    f_coeffs = (ComplexSeries(square) * p).coeffs

    s = a[1:] - a[:-1]  # s_k = a_{k+1} - a_k, k = 0..m
    sigma = a[1:] / np.arange(1, m + 2)
    delta = s - sigma
    return LogData(gamma=gamma, sqrt_coeffs=sqrt_coeffs, lam=lam,
                   f_coeffs=f_coeffs, s=s, sigma=sigma, delta=delta)


# -- recurrence adjudication -------------------------------------------


def gamma_via_derivative_recurrence(f: SchlichtFunction, n_max: int) -> np.ndarray:
    """gamma_1..gamma_{n_max} from (n-1) a_n = 2 sum_{k<n} k gamma_k a_{n-k}.

    Independent of the series logarithm; the two must agree.
    """
    a = f.series.coeffs
    if n_max + 1 > len(a) - 1:
        raise InvalidParameter("series too short for the requested gamma range")
    gamma = np.zeros(n_max + 1, dtype=np.complex128)
    gamma[1] = a[2] / 2.0
    for n in range(3, n_max + 2):
        # coefficient of z^{n-2} in (f/z)' = (f/z) * 2 sum k gamma_k z^{k-1}
        acc = 2.0 * sum(k * gamma[k] * a[n - k] for k in range(1, n - 1))
        gamma[n - 1] = ((n - 1) * a[n] - acc) / (2.0 * (n - 1))
    return gamma


def gamma_recurrence_unweighted(f: SchlichtFunction, ld: LogData, n: int) -> complex:
    """The mis-stated form a_n = n gamma_n + sum_{k<n} k gamma_k a_{n-k+1}.

    Solved for gamma_n given the true lower-order gammas.  Diagnostic
    only: on the Koebe map at n = 2 it yields 0 instead of 1/2.
    """
    a = f.series.coeffs
    if n < 1 or n > f.order or n - 1 > ld.top_index:
        raise InvalidParameter("index outside the ledger range")
    acc = sum(k * ld.gamma[k] * a[n - k + 1] for k in range(1, n))
    return (a[n] - acc) / n


def f_coeffs_via_exp_recurrence(ld: LogData) -> np.ndarray:
    """Boundary-mean coefficients from n b_n = sum_k k lam_k b_{n-k}.

    Follows from (1-z)^2 f(z)/z = exp(sum lam_k z^k); cross-checks the
    polynomial-product path used by :func:`log_data`.
    """
    m = ld.top_index
    b = np.zeros(m + 1, dtype=np.complex128)
    b[0] = 1.0
    klam = np.arange(m + 1) * ld.lam
    for n_i in range(1, m + 1):
        b[n_i] = np.dot(klam[1 : n_i + 1], b[n_i - 1 :: -1][:n_i]) / n_i
    return b


def f_coeffs_recurrence_unweighted(ld: LogData) -> np.ndarray:
    """The mis-stated variant n b_n = sum_k lam_k b_{n-k} (no index weight).

    Diagnostic only; on the half-plane map it already fails at n = 2.
    """
    m = ld.top_index
    b = np.zeros(m + 1, dtype=np.complex128)
    b[0] = 1.0
    for n_i in range(1, m + 1):
        b[n_i] = np.dot(ld.lam[1 : n_i + 1], b[n_i - 1 :: -1][:n_i]) / n_i
    return b


# -- scalar inequality checks ------------------------------------------


def milin_check(ld: LogData):
    """Partial sums of 2 (Re gamma_k - 1/k) against the 0.312 bound.

    Returns (partial_sums, max_partial, passes); partial_sums[j] covers
    k <= j+1.
    """
    k = np.arange(1, ld.top_index + 1, dtype=float)
    terms = 2.0 * (np.real(ld.gamma[1:]) - 1.0 / k)
    partial = np.cumsum(terms)
    max_partial = float(np.max(partial))
    return partial, max_partial, max_partial <= MILIN_CONSTANT_BOUND


def direction_weighted_sum(gamma: np.ndarray, theta: float, n_terms: int) -> float:
    """sum_{k<=n} k |gamma_k - e^{-ik theta}/k|^2 (shared by several checks)."""
    if n_terms < 1 or n_terms > len(gamma) - 1:
        raise InvalidParameter("n_terms outside the ledger range")
    k = np.arange(1, n_terms + 1, dtype=float)
    target = np.exp(-1j * k * theta) / k
    return float(np.sum(k * np.abs(gamma[1 : n_terms + 1] - target) ** 2))


def bazilevich_gap(ld: LogData, alpha: float, theta: float, n_terms: int):
    """Direction-weighted sum versus its -log(alpha)/2 ceiling.

    Returns (lhs, rhs, gap) with gap = rhs - lhs; the inequality demands
    gap >= 0 for every truncation since the summands are non-negative.
    Only meaningful for maximal growth, hence alpha > 0.
    """
    if alpha <= 0.0:
        raise InvalidAlpha("the direction-weighted bound needs alpha > 0")
    lhs = direction_weighted_sum(ld.gamma, theta, n_terms)
    rhs = -0.5 * np.log(alpha)
    return lhs, float(rhs), float(rhs) - lhs


def lebedev_milin_check(f: SchlichtFunction, ld: LogData, n: int):
    """The chain |a_{n+1}| <= sum_{k<=n} |b_k|^2 <= (n+1) exp{...}.

    ``b_k`` are the square-root coefficients; the exponent is the
    (n+1-k)-weighted sum of k|gamma_k|^2 - 1/k.  Returns
    (a_abs, b_sum, rhs).
    """
    if n + 1 > f.order:
        raise InvalidParameter("need n + 1 within the series order")
    a_abs = abs(f.series.coeffs[n + 1])
    b_sum = float(np.sum(np.abs(ld.sqrt_coeffs[: n + 1]) ** 2))
    k = np.arange(1, n + 1, dtype=float)
    weights = (n + 1) - k
    expo = np.sum(weights * (k * np.abs(ld.gamma[1 : n + 1]) ** 2 - 1.0 / k))
    rhs = (n + 1) * float(np.exp(expo / (n + 1)))
    return float(a_abs), b_sum, rhs


def circle_mean(f: SchlichtFunction, r: float, quad_points: int) -> float:
    """(1/2pi) integral of |f(r e^{it})| dt by the periodic trapezoid rule."""
    t = 2.0 * np.pi * np.arange(quad_points) / quad_points
    z = r * np.exp(1j * t)
    vals = np.abs(f.value_fn(z)) if f.has_closed_form else np.abs(f.series(z))
    return float(np.mean(vals))


def prawitz_check(f: SchlichtFunction, radii, quad_points: int = 1024, grid: int = 512):
    """Integrated circle-mean inequality over all radius pairs.

    For r > r0 the means must satisfy
    (1-r) mean(r) <= (1-r) mean(r0) + g(r0), with g the growth profile
    value at r0.  Returns (means, violations); ``violations`` counts
    pairs failing by more than 1e-8.  Raises QuadratureUnconverged if
    doubling ``quad_points`` still moves any mean by more than 1e-9.
    """
    radii = radius_grid(radii)
    if quad_points < 256:
        raise InvalidParameter("quad_points must be at least 256")
    coarse = np.array([circle_mean(f, r, quad_points) for r in radii])
    fine = np.array([circle_mean(f, r, 2 * quad_points) for r in radii])
    drift = float(np.max(np.abs(fine - coarse)))
    if drift > 1e-9:
        raise QuadratureUnconverged(
            f"circle means moved by {drift:.3g} when the rule was doubled"
        )
    means = fine
    violations = 0
    if len(radii) < 2:
        return means, violations
    inner = radii[:-1]
    growth = (1.0 - inner) ** 2 / inner * max_modulus(f, inner, grid=grid)[0]
    for i, g0 in enumerate(growth):
        for j in range(i + 1, len(radii)):
            r = radii[j]
            lhs = (1.0 - r) * means[j]
            rhs = (1.0 - r) * means[i] + g0
            if lhs > rhs + 1e-8:
                violations += 1
    return means, violations


def coefficient_functionals(f: SchlichtFunction, n: int):
    """Bieberbach ratio |a_n|/n and the Zalcman functional |a_n^2 - a_{2n-1}|.

    Returns (bieberbach_ratio, zalcman, zalcman_bound) where the bound is
    the conjectured ceiling (n-1)^2, attained by the Koebe map.
    """
    if 2 * n - 1 > f.order:
        raise InvalidParameter("need 2n - 1 within the series order")
    a = f.series.coeffs
    ratio = abs(a[n]) / n
    zalcman = abs(a[n] ** 2 - a[2 * n - 1])
    return float(ratio), float(zalcman), float((n - 1) ** 2)
