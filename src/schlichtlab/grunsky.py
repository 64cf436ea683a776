"""Grunsky coefficient sections of exterior maps and the fullness checks.

For an exterior map ``g(z) = z + b0 + sum b_m z^{-m}`` the Grunsky
coefficients ``gamma_{nk}`` are defined by

    log((g(z) - g(w)) / (z - w)) = - sum_{n,k >= 1} gamma_{nk} z^{-n} w^{-k}.

The production path builds them row by row from the two-index recurrence
(Pommerenke, *Univalent Functions*, 1975, ch. 3): with ``b_0 = 0`` and
``gamma_{1k} = b_k``,

    (n+1) gamma_{n+1,k} = b_{n+k} + n gamma_{n,k+1}
                          + n sum_{j<k} b_{k-j} gamma_{nj}
                          - sum_{m<n} (n-m) b_m gamma_{n-m,k},

which is the Faber-polynomial recurrence
``E_{n+1} = (g - b0) E_n - sum_{m<n} b_m E_{n-m} - (n+1) b_n`` read off
coefficient by coefficient in ``E_n(w) = Phi_n(g(w)) = w^n +
n sum_k gamma_{nk} w^{-k}``.  A direct bivariate-logarithm expansion
exists as an independent small-order oracle (:func:`grunsky_matrix_direct`).

Entries with ``n + k - 1`` beyond ``g.order`` implicitly use a zero tail;
supply ``g.order >= 2N - 1`` when the full N x N section must be faithful.
The recurrence convolves and sums over b's span only: the b_m up to the
last one of modulus above NEGLIGIBLE_B (1e-200), the rest read as zero.
For univalent g the cut moves no entry by more than 1.4e-188
(:func:`grunsky_matrix` has the proof).  It keeps the b_m of a geometric
tail, which fall below 1e-300 past m ~ 750 for |rho| ~ 0.4, out of the
products with gamma, whose subnormal results made the build at N = 512
about 2.5 times slower.  A span of at most 1 (every pair with rho = 0:
Koebe, rotations, dilations, and the half-plane's zero tail) runs no
recurrence at all: the table is then exactly diagonal, gamma_kk =
b_1^k / k, and is filled at once.  A smaller section of the
same map is a slice of a larger table (:meth:`GrunskyTable.section`), not
a second recurrence.  One private factory, :func:`_table`, makes every
table, called by those builders alone; :class:`GrunskyTable` refuses a
direct call.

The weighted matrix ``sqrt(nk) gamma_{nk}`` has operator norm at most 1
for univalent ``g`` (strong Grunsky inequality); equality together with a
vanishing row-sum defect at interior points characterizes full mappings
(complement of measure zero), which is what the defect diagnostics probe.
The norm has one routine, :func:`strong_grunsky_norm`: max_k |k gamma_kk|
for a diagonal table, with one rounding, and otherwise the top eigenvalue
of the dense Gram matrix, which works on the clustered spectra of full
mappings, with an error of order N machine epsilons.
:func:`fullness_defect` gives the defect alone;
:func:`full_mapping_defect` adds the identity residual against the
logarithmic ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .families import (SchlichtFunction, SigmaFunction, _disk_modulus, _powers,
                       closed_form_log_deriv)
from .logmilin import LogData, bazilevich_gap
from .series import integer_parameter, require_instance

# grunsky_matrix reads every b_m of modulus at most this as zero
NEGLIGIBLE_B = 1e-200


@dataclass(frozen=True)
class GrunskyTable:
    """Symmetric N x N section of Grunsky coefficients.

    ``gamma_nk`` is stored as an (N+1) x (N+1) array with row/column 0
    zero so ``gamma_nk[n, k]`` reads with natural subscripts.

    Only the builders make one (:func:`grunsky_matrix`,
    :func:`grunsky_matrix_direct` and :meth:`section`, all through
    :func:`_table`); a direct call, and so ``dataclasses.replace``, raises
    :class:`InvalidParameter`.
    """

    order: int
    gamma_nk: np.ndarray

    def __post_init__(self):
        raise InvalidParameter("a GrunskyTable is built by grunsky_matrix, not by hand")

    def weighted(self) -> np.ndarray:
        """The matrix sqrt(n k) gamma_{nk}, n, k = 1..N."""
        n = np.arange(1, self.order + 1, dtype=float)
        scale = np.sqrt(np.outer(n, n))
        return scale * self.gamma_nk[1:, 1:]

    def section(self, n_order: int) -> "GrunskyTable":
        """The leading n_order x n_order section of this table.

        Exact, not an approximation: gamma_{nk} with n, k <= n_order reads
        only the b_m with m <= 2 n_order - 1, which the larger table used
        too.
        """
        n_order = integer_parameter(n_order, "section order", 1, self.order)
        return _table(n_order, self.gamma_nk[: n_order + 1, : n_order + 1].copy())


def _table(order: int, gamma_nk: np.ndarray) -> GrunskyTable:
    """The one factory of :class:`GrunskyTable`, past the constructor's gate."""
    t = object.__new__(GrunskyTable)
    vars(t).update(order=order, gamma_nk=gamma_nk)
    return t


def _table_order(g: SigmaFunction, n_order) -> int:
    """``n_order`` checked to be an integer in 1..g.order, ``g`` a SigmaFunction."""
    require_instance(g, SigmaFunction, "a Grunsky table")
    return integer_parameter(n_order, "table order", 1, g.order)


def grunsky_matrix(g: SigmaFunction, n_order: int) -> GrunskyTable:
    """Grunsky section of ``g`` via the two-index gamma recurrence.

    With ``b_0 = 0`` and ``gamma_{1k} = b_k``, each row follows from the
    rows above it:

        (n+1) gamma_{n+1,k} = b_{n+k} + n gamma_{n,k+1}
                              + n sum_{j<k} b_{k-j} gamma_{nj}
                              - sum_{m<n} (n-m) b_m gamma_{n-m,k}.

    Row n is needed through column 2N - n, so the rows are kept in one
    (N+1) x 2N array; each new row costs one convolution and one
    vector-matrix product, both taken over b's span only: the b_m with
    m <= s, s the last index of a b_m with |b_m| > NEGLIGIBLE_B (within the
    2N - 1 the section reads), every later b_m read as zero.

    A span s <= 1 runs no recurrence: the table is diagonal,
    gamma_kk = b_1^k / k, with b_1 read after the cut (zero when s = 0).  A
    pair has b_m = rho^{m-1} (rho - beta)^2, so s = 1 whenever rho = 0
    (Koebe, rotations, their dilations), and the half-plane's tail is zero.
    Proof, by induction on n, that gamma_nk = delta_nk b_1^n / n when b_1 is
    the only nonzero b_m: row 1 is gamma_1k = b_k = delta_1k b_1, and in the
    recurrence for row n + 1 (n + k >= 2, so b_{n+k} = 0) only j = k - 1
    and m = 1 survive:

        (n+1) gamma_{n+1,k} = n gamma_{n,k+1} + n b_1 gamma_{n,k-1}
                              - (n-1) b_1 gamma_{n-1,k}.

    Under the hypothesis the right side is b_1^n [k = n-1]
    + b_1^{n+1} [k = n+1] - b_1^n [k = n-1] = b_1^{n+1} [k = n+1]: every
    off-diagonal entry is exactly 0, and gamma_{n+1,n+1} = b_1^{n+1}/(n+1).
    The diagonal is one running product and one division per entry, so
    gamma_kk lies within about (1.2 (k-1) + 0.5) machine epsilons of the
    exact b_1^k / k of the double b_1 (sqrt(5)/2 epsilons per complex
    product, half of one per division), short of underflow.

    The cut is harmless.  The table built is the section of
    g~ = g - h, h(z) = sum_{s < m < 2N} b_m z^{-m}, every |b_m| <= eps =
    NEGLIGIBLE_B there (the b_m with m >= 2N reach no entry of the section).
    Let g be univalent, L(z, w) = log((g(z) - g(w))/(z - w)) =
    -sum gamma_{nk} z^{-n} w^{-k}, and L~ the same for g~.  On |z| = |w| = R:

    * the strong Grunsky inequality, |sum gamma_{nk} x_n y_k| <=
      (sum |x_n|^2/n)^{1/2} (sum |y_k|^2/k)^{1/2}, at x_n = z^{-n},
      y_k = w^{-k}, gives |L| <= -log(1 - R^-2), so
      |g(z) - g(w)| >= (1 - R^-2) |z - w|;
    * (z^-m - w^-m)/(z - w) = -sum_{j=1..m} z^{-j} w^{j-m-1}, so
      |h(z) - h(w)| <= eps |z - w| sum_m m R^{-m-1} = eps |z - w| / (R-1)^2;
    * hence D = (h(z) - h(w))/(g(z) - g(w)) has |D| <= eps / ((R-1)^2 (1 - R^-2)),
      and |L~ - L| = |log(1 - D)| <= 2 |D|.

    Take R = 1 + 1/N, so (R-1)^2 = N^-2, 1 - R^-2 >= 3/(4N) and, for
    n, k <= N, R^{n+k} <= e^2 < 7.4.  Cauchy's estimate on the torus then
    bounds every entry of the section:

        |gamma~_{nk} - gamma_{nk}| <= R^{n+k} max |L~ - L| <= 20 eps N^3,

    which is below 1.4e-188 for N <= families.MAX_ORDER (4096).  Every check
    that reads a table has a tolerance of 1e-10 or more: the strong norm (a
    change at most N^2 times that, weights sqrt(nk) <= N included), the row
    polynomials at |z| = 0.5 behind the fullness defect and the identity
    link.  The bound is far below double rounding of the entries of size
    1 as well, and on the corpus up to N = 256 (the audit runs 128) no b_m the
    section reads is cut, so the table is bit for bit the uncut one.
    """
    n_order = _table_order(g, n_order)
    width = 2 * n_order
    b = np.zeros(width, dtype=np.complex128)  # b[m] = b_m, zero past g.order
    avail = min(g.order, width - 1)
    b[1 : avail + 1] = g.tail[:avail]
    kept = np.flatnonzero(np.abs(b) > NEGLIGIBLE_B)
    span = int(kept[-1]) if len(kept) else 0  # the b_m past it are read as zero
    b[span + 1 :] = 0.0
    if span <= 1:  # diagonal: gamma_kk = b_1^k / k
        diag = np.zeros((n_order + 1, n_order + 1), dtype=np.complex128)
        k = np.arange(1, n_order + 1)
        diag[k, k] = _powers(b[1], n_order + 1)[1:] / k
        return _table(n_order, diag)
    gam = np.zeros((n_order + 1, width), dtype=np.complex128)
    gam[1, 1:] = b[1:]
    for n in range(1, n_order):
        top = width - n  # row n + 1 is needed through column top - 1
        low = n - min(n - 1, span)  # rows n - m for the m <= span below n
        weights = np.arange(low, n) * b[n - low : 0 : -1]  # (n-m) b_m, m = n-low .. 1
        gam[n + 1, 1:top] = (
            b[n + 1 : width]
            + n * gam[n, 2 : top + 1]
            + n * np.convolve(b[: min(span, top - 1) + 1], gam[n, :top])[1:top]
            - weights @ gam[low:n, 1:top]
        ) / (n + 1)
    return _table(n_order, gam[:, : n_order + 1].copy())


def grunsky_matrix_direct(g: SigmaFunction, n_order: int) -> GrunskyTable:
    """Small-order oracle: bivariate series logarithm, no recurrence.

    Substituting z = 1/x, w = 1/y turns the generating ratio into
    1 - B(x, y) with B[i, j] = b_{i+j-1}; the table is the coefficient
    array of -log(1 - B).  O(N^4) per product, so keep n_order small
    (the tests use 8).
    """
    n_order = _table_order(g, n_order)
    size = n_order + 1
    b_mat = np.zeros((size, size), dtype=np.complex128)
    for i in range(1, size):
        for j in range(1, size):
            if i + j - 1 <= g.order:
                b_mat[i, j] = g.tail[i + j - 2]

    def bivar_mul(a, b):
        c = np.zeros_like(a)
        for i in range(size):
            for j in range(size):
                if a[i, j] != 0.0:
                    c[i:, j:] += a[i, j] * b[: size - i, : size - j]
        return c

    total = np.zeros_like(b_mat)
    power = b_mat.copy()
    for m in range(1, n_order + 1):
        total += power / m
        power = bivar_mul(power, b_mat)
    return _table(n_order, total)


def strong_grunsky_norm(t: GrunskyTable) -> float:
    """Largest singular value of the weighted matrix sqrt(nk) gamma_{nk}.

    A diagonal table (no nonzero gamma_nk off the diagonal: every table of
    span <= 1, the zero table included) makes B = ``t.weighted()`` diagonal
    with the singular values |B_kk| = |k gamma_kk|, and the result is their
    maximum, one rounding from the exact norm of B.  Any other B takes the
    square root of the top eigenvalue of the Hermitian Gram matrix B^H B.
    Sections of full mappings pile their singular values up at 1, which no
    iterative method mixes through cheaply; the dense route does not care,
    and its relative error in the top singular value is of order N machine
    epsilons.  Univalence keeps the result <= 1 up to that rounding.
    """
    require_instance(t, GrunskyTable, "strong_grunsky_norm")
    gam = t.gamma_nk[1:, 1:]
    diag = np.diagonal(gam)
    if np.count_nonzero(gam) == np.count_nonzero(diag):
        return float(np.max(np.abs(np.arange(1, t.order + 1) * diag)))
    b = t.weighted()
    return float(np.sqrt(np.linalg.eigvalsh(b.conj().T @ b)[-1]))


def grunsky_norm_dense(t: GrunskyTable) -> float:
    """:func:`strong_grunsky_norm` under its earlier name, which benchmark
    probes still call; a function of its own, so a tracer that wraps every
    binding of the norm does not wrap it twice."""
    return strong_grunsky_norm(t)


def row_polynomials(t: GrunskyTable, z: complex) -> np.ndarray:
    """A_n(z) = sum_k gamma_{nk} z^k for n = 1..N (index 0 unused).

    A point that is not one number inside the unit disk (NaN included)
    raises :class:`InvalidParameter` or :class:`OutsideDisk`.
    """
    require_instance(t, GrunskyTable, "row_polynomials")
    _disk_modulus(z)
    return t.gamma_nk @ _powers(z, t.order + 1)  # column 0 of the table is zero


def _rows_and_defect(t: GrunskyTable, z: complex):
    """The row polynomials A_n(z) and the fullness defect they give."""
    a_vals = row_polynomials(t, z)
    n, x = np.arange(t.order + 1, dtype=float), float(abs(z))
    return a_vals, float(abs(float(np.sum(n * np.abs(a_vals) ** 2)) + math.log1p(-x * x)))


def fullness_defect(t: GrunskyTable, z: complex) -> float:
    """| sum_n n |A_n(z)|^2 + log(1 - |z|^2) |, which tends to 0 iff g is full.

    A point that is not one number inside the unit disk (NaN included)
    raises :class:`InvalidParameter` or :class:`OutsideDisk`.
    """
    return _rows_and_defect(t, z)[1]


def full_mapping_defect(t: GrunskyTable, ld: LogData, f: SchlichtFunction, z: complex):
    """Fullness defect (:func:`fullness_defect`) and the ledger-link
    identity residual at a point.

    identity_residual checks sum_n A_n(z) z^n = 2 log(f(z)/z) - log f'(z),
    an algebraic identity tying the table to the logarithmic ledger
    regardless of fullness.  (Both sides equal -log g'(1/z) with
    g(z) = 1/f(1/z); a weighted variant sum_n n A_n(z) z^n sometimes seen
    in print equals z g''(1/z) / (2 g'(1/z)) instead and fails already on
    the Koebe map.)  log f'(z) comes from the pair (beta, rho) of a
    closed form (:func:`families.closed_form_log_deriv`) and from the
    series logarithm of f' for a series-only map.  The row polynomials are
    evaluated once and serve both; a caller that needs only the defect calls
    :func:`fullness_defect`.  Both check ``z``.
    """
    require_instance(ld, LogData, "full_mapping_defect")
    require_instance(f, SchlichtFunction, "full_mapping_defect")
    a_vals, defect = _rows_and_defect(t, z)
    m = min(ld.top_index, f.order - 1)
    zn = _powers(z, max(t.order, m) + 1)  # one table for both sums
    lhs = np.sum(a_vals * zn[: t.order + 1])
    log_fz = 2.0 * np.dot(ld.gamma[: m + 1], zn[: m + 1])  # log(f/z) partial sum
    if f.has_closed_form:
        log_fp = closed_form_log_deriv(z, *f.beta_rho)
    else:
        log_fp = f.series.deriv().log()(z)
    rhs = 2.0 * log_fz - log_fp
    return defect, float(abs(lhs - rhs))


def bazilevich_equality_residual(ld: LogData, alpha: float, theta: float,
                                 n_terms: int) -> float:
    """Residual of the equality case of the direction-weighted bound.

    For full mappings of maximal growth the direction-weighted sum equals
    -log(alpha)/2 exactly in the limit; the residual

        | sum_{k<=n} k |gamma_k - e^{-ik theta}/k|^2 + log(alpha)/2 |

    must tend to zero as n grows, and stays strictly positive otherwise.
    It is ``abs(gap)`` of :func:`logmilin.bazilevich_gap`, bit for bit, and
    raises what that raises: :class:`InvalidAlpha` for alpha <= 0 and
    :class:`InvalidParameter` for a NaN or infinite ``alpha`` or ``theta``.
    """
    return abs(bazilevich_gap(ld, alpha, theta, n_terms)[2])
