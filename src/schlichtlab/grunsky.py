"""Grunsky coefficient sections of exterior maps and the fullness checks.

For an exterior map ``g(z) = z + b0 + sum b_m z^{-m}`` the Grunsky
coefficients ``gamma_{nk}`` are defined by

    log((g(z) - g(w)) / (z - w)) = - sum_{n,k >= 1} gamma_{nk} z^{-n} w^{-k}.

The production path builds them row by row from the Faber-polynomial
recurrence: with ``E_n(w) = Phi_n(g(w))`` expanded as a Laurent series,

    E_1 = g - b0,
    E_{n+1} = (g - b0) E_n - sum_{m=1}^{n-1} b_m E_{n-m} - (n+1) b_n,

and ``gamma_{nk}`` is the coefficient of ``w^{-k}`` in ``E_n / n``.  A
direct bivariate-logarithm expansion exists as an independent small-order
oracle (:func:`grunsky_matrix_direct`).

The product ``(g - b0) E_n`` is evaluated in blocks of ``_BLOCK`` nonzero
``b_m`` (ascending ``m``) rather than one slice-axpy per ``m``.  Its
summation order is pinned for byte identity: each entry is accumulated as
the shift plus ``b_m E_n[j + m]`` in ascending ``m``, exactly as a per-``m``
loop adds them, so the tables match that loop bit for bit, signed zeros
included.

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InvalidAlpha,
    InvalidParameter,
    OutsideDisk,
    PowerIterationStalled,
)
from .families import SchlichtFunction, SigmaFunction
from .logmilin import LogData, direction_weighted_sum
from .series import ComplexSeries

# m values per block in the Faber row product; bounds the block buffer to
# (_BLOCK + 1) x (3N + 1) entries
_BLOCK = 32
# x + (-0.0 - 0.0j) == x bit for bit for every x, signed zeros included
_NEG_ZERO = complex(-0.0, -0.0)


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
    """Grunsky section of ``g`` via the Faber recurrence."""
    if n_order < 1:
        raise InvalidParameter("table order must be positive")
    if n_order > g.order:
        raise InvalidParameter("table order exceeds the stored exterior order")
    depth = 2 * n_order  # powers kept: w^{n} .. w^{-depth}
    size = n_order + depth + 1

    def idx(power: int) -> int:
        return power + depth  # index 0 <-> power -depth

    tail = np.zeros(size, dtype=np.complex128)
    avail = min(g.order, depth)  # powers below -depth are never consulted
    tail[:avail] = g.tail[:avail]  # tail[m-1] = b_m
    # the m with b_m != 0 in ascending order, in blocks: the block's m, their
    # b_m, and which entries of the block buffer enter the sum (row 0 holds
    # the running sum; row i reads e[j + m_i] only while j + m_i < size)
    ms = np.flatnonzero(tail[:avail]) + 1
    cols = np.arange(size)
    blocks = []
    for lo in range(0, len(ms), _BLOCK):
        m_blk = ms[lo : lo + _BLOCK]
        keep = np.ones((len(m_blk) + 1, size), dtype=bool)
        keep[1:] = cols + m_blk[:, None] < size
        blocks.append((m_blk, tail[m_blk - 1, None], keep))
    padded = np.zeros(2 * size, dtype=np.complex128)
    windows = sliding_window_view(padded, size)  # windows[m, j] = e[j + m], 0 past the end
    buf = np.empty((_BLOCK + 1, size), dtype=np.complex128)

    def mult_g(e: np.ndarray) -> np.ndarray:
        # multiply a Laurent expansion by (g - b0) = w + sum b_m w^{-m}
        padded[:size] = e
        out = np.zeros(size, dtype=np.complex128)
        out[1:] = e[:-1]  # the `w *` shift
        for m_blk, b_blk, keep in blocks:
            k = len(m_blk)
            buf[0] = out
            np.multiply(b_blk, windows[m_blk], out=buf[1 : k + 1])
            # an axis-0 reduce adds the kept rows in order; starting it from
            # -0.0, the exact additive identity, keeps signed zeros, so out[j]
            # is ((shift + b_m1 e[j+m1]) + b_m2 e[j+m2]) + ... bit for bit
            out = np.add.reduce(buf[: k + 1], axis=0, where=keep, initial=_NEG_ZERO)
        return out

    rows = np.zeros((n_order + 1, size), dtype=np.complex128)
    rows[1, idx(1)] = 1.0
    rows[1, idx(-avail) : idx(0)] = tail[:avail][::-1]  # E_1 = w + sum b_m w^{-m}
    for n in range(1, n_order):
        nxt = mult_g(rows[n])
        if n >= 2:
            bs = tail[: n - 1]  # b_1 .. b_{n-1}
            nxt -= bs @ rows[n - 1 : 0 : -1]
        bn = tail[n - 1] if n <= avail else 0.0
        nxt[idx(0)] -= (n + 1) * bn
        rows[n + 1] = nxt

    # gamma_{nk}: coefficient of w^{-k} in E_n, divided by n
    ks = np.arange(1, n_order + 1)
    ns = ks[:, None]
    table = np.zeros((n_order + 1, n_order + 1), dtype=np.complex128)
    table[1:, 1:] = rows[1:, idx(0) - ks] / ns
    return GrunskyTable(order=n_order, gamma_nk=table)


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
