"""Logarithmic-coefficient ledger and the classical scalar inequalities.

For a normalized univalent ``f`` the ledger collects, in one pass:

* ``gamma``        -- logarithmic coefficients, log(f(z)/z) = 2 sum gamma_n z^n
* ``lam``          -- lam_n = 2 (gamma_n - 1/n)
* ``f_coeffs``     -- coefficients of (1-z)^2 f(z)/z (the boundary-mean series),
                      from :func:`boundary_mean_coeffs`, which also serves
                      callers that need these rows and nothing else
* ``s``            -- s_n = a_{n+1} - a_n (partial sums of ``f_coeffs``)
* ``sigma``        -- sigma_n = a_{n+1}/(n+1) (Cesaro means of ``s``)
* ``delta``        -- delta_n = s_n - sigma_n

gamma of a member with a pair (beta, rho) comes from the pair,
gamma_k = (beta^k - rho^k / 2) / k, and that of a series-only map from the
series logarithm.  A frequently mis-stated textbook recurrence for gamma
omits an index weight and is kept here only as a diagnostic
(`gamma_recurrence_unweighted`); the weighted derivative recurrence
(`gamma_via_derivative_recurrence`) is the independent cross-check that
agrees with the series logarithm of the same series.  The same pattern
repeats for the ``f_coeffs`` exponential recurrence.

The ledger holds what more than one check reads.  The square-root
coefficients of sqrt(f(z)/z) are not in it: :func:`lebedev_milin_check`,
their one reader, takes the root itself, only to the order it sums.

The checks cover Milin's partial-sum bound (constant 0.312), Bazilevich's
direction-weighted sum against -log(alpha)/2, the second Lebedev-Milin
chain, Prawitz's integrated circle-mean inequality, and the Bieberbach /
Zalcman coefficient functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha, InvalidParameter, QuadratureUnconverged
from .families import SchlichtFunction, _powers, batch, max_modulus, radius_grid
from .series import (ComplexSeries, coefficient_array, finite_parameter, integer_parameter,
                     numeric_array, require_instance)

#: numeric bound for Milin's constant used by the partial-sum check
MILIN_CONSTANT_BOUND = 0.312


@dataclass(frozen=True)
class LogData:
    """Derived coefficient ledger of one normalized univalent function.

    Arrays are indexed by the natural subscript: ``gamma[n]`` is gamma_n
    (entry 0 unused, kept zero), ``lam`` runs like ``gamma``, and
    ``f_coeffs``/``s``/``sigma``/``delta`` run over 0..N-1 where N is the
    source series order.  ``gamma`` and ``lam`` come from the pair of a
    closed-form member, or from one series logarithm for a series-only map;
    the other rows are coefficient arithmetic on the series.
    """

    gamma: np.ndarray
    lam: np.ndarray
    f_coeffs: np.ndarray
    s: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray

    @property
    def top_index(self) -> int:
        return len(self.gamma) - 1


def log_data(f: SchlichtFunction) -> LogData:
    """Populate the full ledger of ``f``: gamma from its pair when it has
    one, everything else from its truncated series.

    A member with a pair (beta, rho) has log(f(z)/z) = log(1 - rho z)
    - 2 log(1 - beta z), so gamma_k = (beta^k - rho^k / 2) / k for
    k = 1..N-1, N the series order, with no series logarithm.  The powers
    are two running products (:func:`families._powers`), each within about
    1.2 (k-1) machine epsilons of the exact beta^k and rho^k of the
    doubles (sqrt(5)/2 epsilons per complex product); halving is exact,
    and the difference and the division by k round once each.  So gamma_k
    lies within about (1.2 (k-1) + 1) eps (|beta|^k + |rho|^k / 2) / k of
    the exact value, short of underflow, and the Koebe map's 1/k and the
    half-plane's 1/(2k) come out correctly rounded.  The series route
    would carry the gap between the member's series and its pair, which
    the logarithm amplifies (1.9e-9 / k at order 258 on the corpus
    rotation).  A series-only map takes half the series logarithm of
    f(z)/z.
    """
    require_instance(f, SchlichtFunction, "log_data")
    a = f.series.coeffs
    m = f.order - 1  # ledger top index
    if f.has_closed_form:
        beta, rho = f.beta_rho
        gamma = np.zeros(m + 1, dtype=np.complex128)
        gamma[1:] = (_powers(beta, m + 1)[1:] - 0.5 * _powers(rho, m + 1)[1:]) / np.arange(1, m + 1)
    else:
        gamma = 0.5 * ComplexSeries(a[1:]).log().coeffs  # f(z)/z, constant term 1
        gamma[0] = 0.0

    n = np.arange(m + 1, dtype=float)
    lam = np.zeros(m + 1, dtype=np.complex128)
    lam[1:] = 2.0 * (gamma[1:] - 1.0 / n[1:])

    f_coeffs = boundary_mean_coeffs(f)

    s = a[1:] - a[:-1]  # s_k = a_{k+1} - a_k, k = 0..m
    sigma = a[1:] / np.arange(1, m + 2)
    delta = s - sigma
    return LogData(gamma=gamma, lam=lam, f_coeffs=f_coeffs, s=s, sigma=sigma, delta=delta)


def boundary_mean_coeffs(f: SchlichtFunction) -> np.ndarray:
    """Coefficients 0..N-1 of (1-z)^2 f(z)/z, N the series order of ``f``.

    The one place the ledger's ``f_coeffs`` are computed; it runs no
    series logarithm, so a caller that reads only these rows needs no
    ledger.
    """
    require_instance(f, SchlichtFunction, "boundary_mean_coeffs")
    p = ComplexSeries(f.series.coeffs[1:])  # f(z)/z, constant term 1
    m = p.order
    square = np.zeros(m + 1, dtype=np.complex128)
    square[0] = 1.0
    if m >= 1:
        square[1] = -2.0
    if m >= 2:
        square[2] = 1.0
    return (ComplexSeries(square) * p).coeffs


# -- recurrence adjudication -------------------------------------------


def gamma_via_derivative_recurrence(f: SchlichtFunction, n_max: int) -> np.ndarray:
    """gamma_1..gamma_{n_max} from (n-1) a_n = 2 sum_{k<n} k gamma_k a_{n-k}.

    Independent of the series logarithm; the two must agree.  ``n_max`` is
    an integer from 1 to the series order less one.
    """
    require_instance(f, SchlichtFunction, "gamma_via_derivative_recurrence")
    n_max = integer_parameter(n_max, "n_max", 1, f.order - 1)
    a = f.series.coeffs
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
    only: on the Koebe map at n = 2 it yields 0 instead of 1/2.  ``n`` is
    an integer from 1 to the series order, with n - 1 within the ledger.
    """
    require_instance(f, SchlichtFunction, "gamma_recurrence_unweighted")
    require_instance(ld, LogData, "gamma_recurrence_unweighted")
    n = integer_parameter(n, "n", 1, min(f.order, ld.top_index + 1))
    a = f.series.coeffs
    acc = sum(k * ld.gamma[k] * a[n - k + 1] for k in range(1, n))
    return (a[n] - acc) / n


def f_coeffs_via_exp_recurrence(ld: LogData) -> np.ndarray:
    """Boundary-mean coefficients from n b_n = sum_k k lam_k b_{n-k}.

    Follows from (1-z)^2 f(z)/z = exp(sum lam_k z^k); cross-checks the
    polynomial-product path used by :func:`log_data`.
    """
    require_instance(ld, LogData, "f_coeffs_via_exp_recurrence")
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
    require_instance(ld, LogData, "f_coeffs_recurrence_unweighted")
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
    require_instance(ld, LogData, "milin_check")
    k = np.arange(1, ld.top_index + 1, dtype=float)
    terms = 2.0 * (np.real(ld.gamma[1:]) - 1.0 / k)
    partial = np.cumsum(terms)
    max_partial = float(np.max(partial))
    return partial, max_partial, max_partial <= MILIN_CONSTANT_BOUND


def direction_weighted_sum(gamma: np.ndarray, theta: float, n_terms: int) -> float:
    """sum_{k<=n} k |gamma_k - e^{-ik theta}/k|^2 (shared by several checks).

    ``gamma`` is a :func:`series.coefficient_array` and ``n_terms`` an
    integer from 1 to its last index.  ``theta`` is taken as given, not
    reduced mod 2 pi; a NaN or infinite ``theta``, or one whose
    ``n_terms * theta`` overflows, raises :class:`InvalidParameter`.
    """
    gamma = coefficient_array(gamma, "gamma")
    n_terms = integer_parameter(n_terms, "n_terms", 1, len(gamma) - 1)
    theta = finite_parameter(theta, "theta")
    if not math.isfinite(n_terms * theta):
        raise InvalidParameter(f"n_terms * theta overflows: n_terms={n_terms}, theta={theta!r}")
    k = np.arange(1, n_terms + 1, dtype=float)
    target = np.exp(-1j * k * theta) / k
    return float(np.sum(k * np.abs(gamma[1 : n_terms + 1] - target) ** 2))


def bazilevich_gap(ld: LogData, alpha: float, theta: float, n_terms: int):
    """Direction-weighted sum versus its -log(alpha)/2 ceiling.

    Returns (lhs, rhs, gap) with gap = rhs - lhs; the inequality demands
    gap >= 0 for every truncation since the summands are non-negative.
    Only meaningful for maximal growth, hence alpha > 0; a NaN or infinite
    ``alpha`` raises :class:`InvalidParameter`, and so does a ``theta``
    that :func:`direction_weighted_sum` refuses.
    """
    require_instance(ld, LogData, "bazilevich_gap")
    alpha = finite_parameter(alpha, "alpha")
    if alpha <= 0.0:
        raise InvalidAlpha("the direction-weighted bound needs alpha > 0")
    lhs = direction_weighted_sum(ld.gamma, theta, n_terms)
    rhs = -0.5 * np.log(alpha)
    return lhs, float(rhs), float(rhs) - lhs


def lebedev_milin_check(f: SchlichtFunction, ld: LogData, n: int):
    """The chain |a_{n+1}| <= sum_{k<=n} |b_k|^2 <= (n+1) exp{...}.

    ``b_k`` are the coefficients of sqrt(f(z)/z), taken here from
    a_1 .. a_{n+1} alone: the root's recurrence gives b_k from the first
    k + 1 coefficients, so this is bit for bit the prefix of the full
    root.  The exponent is the (n+1-k)-weighted sum of k|gamma_k|^2 - 1/k.
    ``n`` is an integer >= 0 with n + 1 within the series order and n
    within the ledger.  Returns (a_abs, b_sum, rhs).
    """
    require_instance(f, SchlichtFunction, "lebedev_milin_check")
    require_instance(ld, LogData, "lebedev_milin_check")
    n = integer_parameter(n, "n", 0, min(f.order - 1, ld.top_index))
    a = f.series.coeffs
    a_abs = abs(a[n + 1])
    root = ComplexSeries(a[1 : n + 2]).sqrt().coeffs  # b_0 .. b_n
    b_sum = float(np.sum(np.abs(root) ** 2))
    k = np.arange(1, n + 1, dtype=float)
    weights = (n + 1) - k
    expo = np.sum(weights * (k * np.abs(ld.gamma[1 : n + 1]) ** 2 - 1.0 / k))
    rhs = (n + 1) * float(np.exp(expo / (n + 1)))
    return float(a_abs), b_sum, rhs


#: nodes of the trapezoid rule behind each Prawitz circle mean
PRAWITZ_NODES = 1024
# the doubled rule's nodes on the unit circle; its even nodes are the rule's own
_DOUBLED_RAY = np.exp(1j * (2.0 * np.pi * np.arange(2 * PRAWITZ_NODES) / (2 * PRAWITZ_NODES)))


def prawitz_check(f, radii):
    """Integrated circle-mean inequality over all radius pairs.

    For r > r0 the means must satisfy
    (1-r) mean(r) <= (1-r) mean(r0) + g(r0), with g the growth profile
    value at r0.  Each mean is the periodic trapezoid rule of |f| on its
    circle at 2 * PRAWITZ_NODES (2048) nodes.  Returns (means, violations);
    ``violations`` counts pairs failing by more than 1e-8.  Raises
    QuadratureUnconverged if the PRAWITZ_NODES-point rule and its doubling
    differ by more than 1e-9 on any circle.

    ``f`` is one member or a sequence of members sharing ``radii`` (see
    :func:`families.batch`); a sequence returns a list with one
    (means, violations) per member.  The growth values at the inner radii
    of every member come from one lockstep :func:`max_modulus` search,
    whose lanes are independent, so a member's result does not depend on
    its batch.
    """
    members = batch(f)
    radii = radius_grid(radii)
    inner = radii[:-1]
    maxima = (max_modulus(members, inner)[0] if len(inner)
              else np.empty((len(members), 0)))
    later = np.arange(len(radii)) > np.arange(len(inner))[:, None]  # the pairs j > i
    results = []
    for g, peaks in zip(members, maxima):
        # one evaluation of every circle serves both rules
        moduli = np.abs(g.value(radii[:, None] * _DOUBLED_RAY))
        coarse, means = moduli[:, ::2].mean(axis=1), moduli.mean(axis=1)
        drift = float(np.max(np.abs(means - coarse)))
        if drift > 1e-9:
            raise QuadratureUnconverged(
                f"circle means moved by {drift:.3g} when the rule was doubled"
            )
        growth = (1.0 - inner) ** 2 / inner * peaks
        lhs = (1.0 - radii) * means
        rhs = (1.0 - radii) * means[:-1, None] + growth[:, None]
        results.append((means, int(np.count_nonzero(later & (lhs > rhs + 1e-8)))))
    return results[0] if isinstance(f, SchlichtFunction) else results


def coefficient_functionals(f: SchlichtFunction, n):
    """Bieberbach ratio |a_n|/n and the Zalcman functional |a_n^2 - a_{2n-1}|.

    Returns (bieberbach_ratio, zalcman, zalcman_bound) where the bound is
    the conjectured ceiling (n-1)^2, attained by the Koebe map.  ``n`` is
    an integer >= 1 with 2n - 1 within the series order, giving three
    floats, or a non-empty 1-D integer array of them, giving three arrays.
    Either is spelled in real arithmetic as numpy's complex scalars do it
    (a^2 as a*a, abs as hypot), so an array entry has its int's bits.
    """
    require_instance(f, SchlichtFunction, "coefficient_functionals")
    many = isinstance(n, np.ndarray) and n.ndim > 0
    # int64, so 2n - 1 and (n-1)^2 do not wrap in a narrower dtype
    ns = numeric_array(n, "n", 1, "iu").astype(np.int64) if many else integer_parameter(n, "n")
    if np.size(ns) == 0:
        raise InvalidParameter("n must be an integer or a non-empty 1-D integer array")
    if np.min(ns) < 1 or np.max(ns) > (f.order + 1) // 2:
        raise InvalidParameter("need n >= 1 with 2n - 1 within the series order")
    a = f.series.coeffs
    x, y, b = a[ns].real, a[ns].imag, a[2 * ns - 1]
    zalcman = np.hypot(x * x - y * y - b.real, x * y + y * x - b.imag)
    out = np.hypot(x, y) / ns, zalcman, (ns - 1) ** 2 * 1.0
    return out if many else tuple(map(float, out))
