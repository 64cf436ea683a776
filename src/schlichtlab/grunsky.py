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

The weighted matrix ``sqrt(nk) gamma_{nk}`` has operator norm at most 1
for univalent ``g`` (strong Grunsky inequality); equality together with a
vanishing row-sum defect at interior points characterizes full mappings
(complement of measure zero), which is what the defect diagnostics probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidAlpha,
    InvalidParameter,
    OutsideDisk,
    PowerIterationStalled,
)
from .families import SchlichtFunction, SigmaFunction
from .logmilin import LogData, direction_weighted_sum


@dataclass(frozen=True)
class GrunskyTable:
    """Symmetric N x N section of Grunsky coefficients.

    ``gamma_nk`` is stored as an (N+1) x (N+1) array with row/column 0
    zero so ``gamma_nk[n, k]`` reads with natural subscripts.
    """

    order: int
    gamma_nk: np.ndarray

    def weighted(self) -> np.ndarray:
        """The matrix sqrt(n k) gamma_{nk}, n, k = 1..N."""
        n = np.arange(1, self.order + 1, dtype=float)
        scale = np.sqrt(np.outer(n, n))
        return scale * self.gamma_nk[1:, 1:]


def grunsky_matrix(g: SigmaFunction, n_order: int) -> GrunskyTable:
    """Grunsky section of ``g`` via the two-index gamma recurrence.

    With ``b_0 = 0`` and ``gamma_{1k} = b_k``, each row follows from the
    rows above it:

        (n+1) gamma_{n+1,k} = b_{n+k} + n gamma_{n,k+1}
                              + n sum_{j<k} b_{k-j} gamma_{nj}
                              - sum_{m<n} (n-m) b_m gamma_{n-m,k}.

    Row n is needed through column 2N - n, so the rows are kept in one
    (N+1) x 2N array; each new row costs one convolution and one
    vector-matrix product.
    """
    if n_order < 1:
        raise InvalidParameter("table order must be positive")
    if n_order > g.order:
        raise InvalidParameter("table order exceeds the stored exterior order")
    width = 2 * n_order
    b = np.zeros(width, dtype=np.complex128)  # b[m] = b_m, zero past g.order
    avail = min(g.order, width - 1)
    b[1 : avail + 1] = g.tail[:avail]
    gam = np.zeros((n_order + 1, width), dtype=np.complex128)
    gam[1, 1:] = b[1:]
    for n in range(1, n_order):
        top = width - n  # row n + 1 is needed through column top - 1
        weights = np.arange(1, n) * b[n - 1 : 0 : -1]  # (n-m) b_m for m = n-1 .. 1
        gam[n + 1, 1:top] = (
            b[n + 1 : width]
            + n * gam[n, 2 : top + 1]
            + n * np.convolve(b[:top], gam[n, :top])[1:top]
            - weights @ gam[1:n, 1:top]
        ) / (n + 1)
    return GrunskyTable(order=n_order, gamma_nk=gam[:, : n_order + 1].copy())


def grunsky_matrix_direct(g: SigmaFunction, n_order: int) -> GrunskyTable:
    """Small-order oracle: bivariate series logarithm, no recurrence.

    Substituting z = 1/x, w = 1/y turns the generating ratio into
    1 - B(x, y) with B[i, j] = b_{i+j-1}; the table is the coefficient
    array of -log(1 - B).  O(N^4) per product, so keep n_order small
    (the tests use 8).
    """
    if n_order < 1:
        raise InvalidParameter("table order must be positive")
    if n_order > g.order:
        raise InvalidParameter("table order exceeds the stored exterior order")
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
    return GrunskyTable(order=n_order, gamma_nk=total)


def strong_grunsky_norm(t: GrunskyTable, tol: float = 1e-10,
                        max_iter: Optional[int] = None) -> float:
    """Largest singular value of the weighted matrix sqrt(nk) gamma_{nk}.

    Power iteration on B*B with a fixed-seed start vector; stops when the
    singular-value estimate is stable to ``tol`` (relative).  Univalence
    certifies the result stays <= 1 up to rounding.
    """
    if not tol > 0.0:
        raise InvalidParameter("tolerance must be positive")
    if max_iter is not None and max_iter < 1:
        raise InvalidParameter("iteration budget must be at least 1")
    b = t.weighted()
    if not np.any(b):
        return 0.0
    n = b.shape[0]
    budget = 10 * t.order if max_iter is None else max_iter
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    b_adj = b.conj().T
    sigma_prev = 0.0
    for _ in range(budget):
        u = b @ v
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            return 0.0
        v = b_adj @ u
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return sigma
        v /= nv
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1.0):
            return sigma
        sigma_prev = sigma
    raise PowerIterationStalled(
        f"singular value not stable to {tol:g} after {budget} iterations"
    )


def grunsky_norm_dense(t: GrunskyTable) -> float:
    """Largest singular value by dense decomposition.

    The robust route: sections of full mappings carry a geometric ladder
    of singular values accumulating at 1, which plain power iteration
    cannot mix through in any reasonable budget (it stalls, by design).
    Also serves as the independent oracle for the iterative path.
    """
    b = t.weighted()
    if not np.any(b):
        return 0.0
    return float(np.linalg.svd(b, compute_uv=False)[0])


def row_polynomials(t: GrunskyTable, z: complex) -> np.ndarray:
    """A_n(z) = sum_k gamma_{nk} z^k for n = 1..N (index 0 unused)."""
    zpow = z ** np.arange(t.order + 1)
    zpow[0] = 0.0
    return t.gamma_nk @ zpow


def full_mapping_defect(t: GrunskyTable, ld: LogData, f: SchlichtFunction, z: complex):
    """Fullness defect and the ledger-link identity residual at a point.

    defect = | sum_n n |A_n(z)|^2 + log(1 - |z|^2) |   (0 iff full, in the limit)

    identity_residual checks sum_n A_n(z) z^n = 2 log(f(z)/z) - log f'(z),
    an algebraic identity tying the table to the logarithmic ledger
    regardless of fullness.  (Both sides equal -log g'(1/z) with
    g(z) = 1/f(1/z); a weighted variant sum_n n A_n(z) z^n sometimes seen
    in print equals z g''(1/z) / (2 g'(1/z)) instead and fails already on
    the Koebe map.)
    """
    if abs(z) >= 1.0:
        raise OutsideDisk(f"|z| = {abs(z):.6g} is not inside the unit disk")
    n = np.arange(t.order + 1, dtype=float)
    a_vals = row_polynomials(t, z)
    defect = abs(float(np.sum(n * np.abs(a_vals) ** 2)) + np.log1p(-abs(z) ** 2))

    zn = z ** np.arange(t.order + 1)
    lhs = np.sum(a_vals * zn)
    m = min(ld.top_index, f.order - 1)
    log_fz = 2.0 * np.polyval(ld.gamma[m::-1], z)  # log(f/z) partial sum
    log_fp = f.series.deriv().log()(z)
    rhs = 2.0 * log_fz - log_fp
    return float(defect), float(abs(lhs - rhs))


def bazilevich_equality_residual(ld: LogData, alpha: float, theta: float,
                                 n_terms: int) -> float:
    """Residual of the equality case of the direction-weighted bound.

    For full mappings of maximal growth the direction-weighted sum equals
    -log(alpha)/2 exactly in the limit; the residual

        | sum_{k<=n} k |gamma_k - e^{-ik theta}/k|^2 + log(alpha)/2 |

    must tend to zero as n grows, and stays strictly positive otherwise.
    """
    if alpha <= 0.0:
        raise InvalidAlpha("the equality residual needs alpha > 0")
    partial = direction_weighted_sum(ld.gamma, theta, n_terms)
    return float(abs(partial + 0.5 * np.log(alpha)))
