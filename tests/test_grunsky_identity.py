"""grunsky_matrix against the per-m Faber loop, an independent reference.

The reference builder below expands ``E_n = Phi_n(g)`` as Laurent series
and multiplies by ``g - b0`` with one slice-axpy per nonzero ``b_m``; the
production builder runs the two-index gamma recurrence on table entries
instead.  The two sum in different orders, so the weighted matrices
``sqrt(nk) gamma_{nk}`` must agree to rounding: within
``1e-13 * max(1, max |ref|)``.  The test ids keep the ``bit_identical``
suffix from an earlier builder that matched the reference byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from schlichtlab.families import SigmaFunction, invert_to_sigma, make_schlicht
from schlichtlab.grunsky import grunsky_matrix

from conftest import TRANSFORM_W, inverted_members


def reference_grunsky_matrix(g: SigmaFunction, n_order: int) -> np.ndarray:
    depth = 2 * n_order
    size = n_order + depth + 1

    def idx(power: int) -> int:
        return power + depth

    tail = np.zeros(size, dtype=np.complex128)
    avail = min(g.order, depth)
    tail[:avail] = g.tail[:avail]

    def mult_g(e):
        out = np.zeros(size, dtype=np.complex128)
        out[1:] = e[:-1]
        for m in range(1, avail + 1):
            bm = tail[m - 1]
            if bm != 0.0:
                out[: size - m] += bm * e[m:]
        return out

    rows = np.zeros((n_order + 1, size), dtype=np.complex128)
    e1 = np.zeros(size, dtype=np.complex128)
    e1[idx(1)] = 1.0
    for m in range(1, avail + 1):
        e1[idx(-m)] = tail[m - 1]
    rows[1] = e1
    for n in range(1, n_order):
        nxt = mult_g(rows[n])
        if n >= 2:
            bs = tail[: n - 1]
            nxt -= bs @ rows[n - 1 : 0 : -1]
        bn = tail[n - 1] if n <= avail else 0.0
        nxt[idx(0)] -= (n + 1) * bn
        rows[n + 1] = nxt

    table = np.zeros((n_order + 1, n_order + 1), dtype=np.complex128)
    for n in range(1, n_order + 1):
        ks = np.arange(1, n_order + 1)
        table[n, 1:] = rows[n][idx(0) - ks] / n
    return table


def assert_agrees(g: SigmaFunction, n_order: int):
    got = grunsky_matrix(g, n_order).weighted()
    n = np.arange(1, n_order + 1, dtype=float)
    ref = np.sqrt(np.outer(n, n)) * reference_grunsky_matrix(g, n_order)[1:, 1:]
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


CORPUS = [
    ("koebe", {}),
    ("halfplane", {}),
    ("rotation", {"theta": math.pi / 3.0}),
    ("dilation", {"r": 0.9}),
    ("koebe_transform", {"w": TRANSFORM_W}),
]


@pytest.mark.parametrize("n_order", [1, 2, 8, 20, 33, 64, 128])
@pytest.mark.parametrize("kind,params", CORPUS, ids=[k for k, _ in CORPUS])
def test_corpus_tables_bit_identical(kind, params, n_order):
    f = make_schlicht(kind, params, order=2 * n_order + 2)
    assert_agrees(invert_to_sigma(f, 2 * n_order), n_order)


@pytest.mark.parametrize("kind,params", CORPUS, ids=[k for k, _ in CORPUS])
def test_short_exterior_order_bit_identical(kind, params):
    # g.order < 2N: the entries past the stored tail read a zero tail
    g = invert_to_sigma(make_schlicht(kind, params, order=30), 28)
    assert_agrees(g, 20)


def test_sparse_tail_bit_identical():
    tail = np.zeros(20, complex)
    tail[0], tail[1], tail[2], tail[9] = 0.1, 0.05 + 0.02j, -0.02, -0.0
    assert_agrees(SigmaFunction(b0=0.3, tail=tail, order=20), 8)


def test_signed_zero_running_sum_bit_identical():
    # b_2 = -0.0 - 0.0j is skipped as a multiplier but shifts into the
    # running sum, and b_4 reaches past the top of the expansion there; the
    # per-m loop leaves that entry at -0.0 - 0.0j, an exact zero all the same
    tail = np.array([0.0, complex(-0.0, -0.0), 0.0, 1.0])
    assert_agrees(SigmaFunction(b0=0.0, tail=tail, order=4), 2)


@pytest.mark.parametrize("n_order", [2, 3, 5, 8, 17])
def test_signed_zero_tails_bit_identical(n_order):
    rng = np.random.default_rng(n_order)
    size = 2 * n_order
    for _ in range(60):
        # sparse tails: each component is +0.0 or -0.0 with probability 0.8,
        # else a normal sample
        tail = np.empty(size, dtype=complex)
        for part in (tail.real, tail.imag):
            part[:] = np.where(rng.random(size) < 0.8, rng.choice([0.0, -0.0], size),
                               rng.standard_normal(size))
        assert_agrees(SigmaFunction(b0=0.0, tail=tail, order=size), n_order)


@settings(max_examples=40, deadline=None)
@given(member=inverted_members(max_order=40))
def test_parameter_sweep_bit_identical(member):
    _, g, n_order = member
    assert_agrees(g, n_order)
