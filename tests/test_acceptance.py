"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np
import pytest

from schlichtlab import (
    ScenarioConfig,
    bazilevich_equality_residual,
    bazilevich_gap,
    cesaro_mean,
    coefficient_functionals,
    euler_bracket,
    export_report,
    full_mapping_defect,
    grunsky_matrix,
    hayman_index,
    invert_to_sigma,
    lebedev_milin_check,
    log_data,
    make_schlicht,
    milin_check,
    prawitz_check,
    rotated,
    run_scenario,
    strong_grunsky_norm,
    weighted_mean,
)
from schlichtlab.families import MAXIMAL_GROWTH_KINDS
from schlichtlab.logmilin import (
    MILIN_CONSTANT_BOUND,
    gamma_recurrence_unweighted,
    gamma_via_derivative_recurrence,
)
from schlichtlab.series import ComplexSeries
from schlichtlab.tauber import tauber_decomposition_check

from conftest import TRANSFORM_W


def _criterion(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_01_log_coefficients_and_round_trips(corpus130, ledgers130):
    n = np.arange(1, 129)
    err_k = np.max(np.abs(ledgers130["koebe"].gamma[1:129] - 1.0 / n))
    err_h = np.max(np.abs(ledgers130["halfplane"].gamma[1:129] - 1.0 / (2 * n)))

    rng = np.random.default_rng(20260809)
    worst = 0.0
    j = np.arange(65, dtype=float)
    envelope = 2.0 * 0.3 ** j / math.sqrt(2.0)  # keeps |c_j| <= 2 and the
    # series zero-free on the closed disk; unconditioned draws put zeros
    # next to the origin and no double-precision round trip survives that
    for _ in range(100):
        c = (rng.uniform(-1, 1, 65) + 1j * rng.uniform(-1, 1, 65)) * envelope
        c[0] = 1.0
        s = ComplexSeries(c)
        worst = max(worst, float(np.max(np.abs(s.log().exp().coeffs - s.coeffs))))
        r = s.sqrt()
        worst = max(worst, float(np.max(np.abs((r * r).coeffs - s.coeffs))))
    ok = err_k <= 1e-12 and err_h <= 1e-12 and worst <= 1e-12
    _criterion(1, ok,
               f"log coefficients exact to 1e-12 (koebe {err_k:.2e}, halfplane "
               f"{err_h:.2e}); 100 seeded round trips worst {worst:.2e}")


def test_02_recurrence_adjudication(corpus130, ledgers130):
    koebe = corpus130[0]
    ld = ledgers130["koebe"]
    wrong = gamma_recurrence_unweighted(koebe, ld, 2)
    display_fails = abs(wrong) < 1e-14 and abs(ld.gamma[2] - 0.5) < 1e-14
    worst = 0.0
    for f in corpus130:
        gd = gamma_via_derivative_recurrence(f, 128)
        worst = max(worst, float(np.max(np.abs(gd[1:] - ledgers130[f.label()].gamma[1:129]))))
    ok = display_fails and worst <= 1e-12
    _criterion(2, ok,
               f"unweighted display gives gamma_2={wrong.real:.1e} (vs 1/2) on koebe; "
               f"weighted derivative recurrence matches series log to {worst:.2e}")


def test_03_grunsky_tables_and_defects():
    koebe = make_schlicht("koebe", order=140)
    gk = invert_to_sigma(koebe, 130)
    table = grunsky_matrix(gk, 64)
    expect = np.zeros((65, 65), complex)
    for n in range(1, 65):
        expect[n, n] = 1.0 / n
    table_err = float(np.max(np.abs(table.gamma_nk - expect)))
    norm_k = strong_grunsky_norm(table)

    half = make_schlicht("halfplane", order=140)
    gh = invert_to_sigma(half, 130)
    table_h = grunsky_matrix(gh, 64)
    norm_h = strong_grunsky_norm(table_h)

    target = -math.log(0.75)
    defect_k, _ = full_mapping_defect(table, log_data(koebe), koebe, 0.5)
    defect_h, _ = full_mapping_defect(table_h, log_data(half), half, 0.5)
    ok = (table_err <= 1e-12
          and 1 - 1e-6 <= norm_k <= 1 + 1e-9
          and norm_h == 0.0
          and defect_k <= 1e-10
          and abs(defect_h - target) <= 1e-10)
    _criterion(3, ok,
               f"inverted-koebe table err {table_err:.2e}, norms ({norm_k:.9f}, "
               f"{norm_h}); defects koebe {defect_k:.2e}, halfplane "
               f"{defect_h:.8f} vs {target:.8f}")


def test_04_direction_weighted_equality(corpus130, ledgers130,
                                        transform262, transform_estimate):
    _, _, gap_k = bazilevich_gap(ledgers130["koebe"], 1.0, 0.0, 128)
    rot = corpus130[2]
    theta0 = rot.params["theta"]
    _, _, gap_r = bazilevich_gap(ledgers130[rot.label()], 1.0, -theta0, 128)

    est = transform_estimate
    residual = bazilevich_equality_residual(log_data(transform262),
                                            est.alpha, est.theta, 128)
    ok = (abs(gap_k) <= 1e-12 and abs(gap_r) <= 1e-12
          and est.bracket_width <= 5e-3 and residual <= 5e-3)
    _criterion(4, ok,
               f"gaps koebe {gap_k:.1e}, rotation {gap_r:.1e}; transform residual "
               f"{residual:.2e} with index bracket {est.bracket_width:.2e}")


def test_05_inequality_audit(corpus130, ledgers130):
    details = []
    ok = True
    for f in corpus130:
        ld = ledgers130[f.label()]
        _, max_partial, passes = milin_check(ld)
        ok &= passes

        a_abs, b_sum, rhs = lebedev_milin_check(f, ld, 32)
        scale = 1e-9 * max(1.0, rhs)
        ok &= a_abs <= b_sum + scale and b_sum <= rhs + scale
        if f.kind == "koebe":
            ok &= abs(a_abs - 33.0) <= 1e-9 and abs(b_sum - 33.0) <= 1e-9 \
                and abs(rhs - 33.0) <= 1e-9 * 33

        _, violations = prawitz_check(f, (0.3, 0.5, 0.7, 0.9), quad_points=1024)
        ok &= violations == 0

        if f.kind in MAXIMAL_GROWTH_KINDS:
            est = hayman_index(f)
            aligned = rotated(f, est.theta) if abs(est.theta) > 1e-12 else f
            s_sq = float(np.max(np.abs(log_data(aligned).s) ** 2))
            ceiling = math.exp(2 * MILIN_CONSTANT_BOUND) / est.alpha
            ok &= s_sq <= ceiling + 1e-9
            details.append(f"{f.kind}: milin {max_partial:.3f}, |s|^2 {s_sq:.3f}<={ceiling:.3f}")
        else:
            details.append(f"{f.kind}: milin {max_partial:.3f}")
    _criterion(5, bool(ok), "; ".join(details))


def test_06_tauber_machinery(ledgers130):
    rng = np.random.default_rng(11)
    worst_mean = 0.0
    for _ in range(50):
        k = rng.integers(2, 257)
        coeffs = rng.uniform(-3, 3, int(k) + 1)
        n = int(rng.integers(0, k + 1))
        worst_mean = max(worst_mean,
                         abs(weighted_mean(coeffs, n) - cesaro_mean(coeffs, n)))

    worst_split = 0.0
    for label, ld in ledgers130.items():
        for n in (2, 8, 32, 64):
            worst_split = max(worst_split,
                              tauber_decomposition_check(ld, n, 1 - 1 / max(n, 4)))

    brackets_ok = all(euler_bracket(n)[2] for n in range(1, 10001))
    ok = worst_mean <= 1e-12 and worst_split <= 1e-10 and brackets_ok
    _criterion(6, ok,
               f"weighted==cesaro worst {worst_mean:.2e}; split residual worst "
               f"{worst_split:.2e}; euler bracket holds for n <= 1e4: {brackets_ok}")


def test_07_theorem1_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="theorem1", m_range=(2, 128), n_range=(1, 256),
                         series_order=256, out_dir=str(tmp_path))
    rep = run_scenario(cfg)
    tn = np.asarray(rep.summary["tail_n"])
    ts = np.asarray(rep.summary["tail_sup"])
    at100 = float(ts[tn == 100][0])
    ok = at100 <= 0.01 and at100 <= 1.0 / 101.0 and rep.all_ok()
    _criterion(7, ok, f"slow-growth family joint tail at N=100 is {at100:.5f} <= 0.01")


def test_08_counterexample_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="counterexample", m_range=(2, 64),
                         n_range=(1, 256), series_order=256, out_dir=str(tmp_path))
    rep = run_scenario(cfg)
    c = rep.rows
    by_key = dict(zip(zip(c["m"].tolist(), c["n"].tolist()), c["value"].tolist()))
    worst_closed = max(abs(by_key[(m, m)] - (1 - 1 / m) ** (m - 1))
                       for m in range(2, 65))
    diag_min = min(by_key[(m, m)] for m in range(8, 65))
    rows_vanish = rep.summary["flags"]["rows_vanish_in_n"]
    ok = worst_closed <= 1e-12 and diag_min > 0.36 and rows_vanish and rep.all_ok()
    _criterion(8, ok,
               f"diagonal matches (1-1/m)^(m-1) to {worst_closed:.2e}, stays above "
               f"0.36 (min {diag_min:.5f}) while every fixed-m row vanishes")


def test_09_theorem2_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="theorem2", m_range=(1, 64), n_range=(1, 256),
                         series_order=256, out_dir=str(tmp_path))
    rep = run_scenario(cfg)
    tn = np.asarray(rep.summary["tail_n"])
    ts = np.asarray(rep.summary["tail_sup"])
    monotone = bool(np.all(np.diff(ts) <= 1e-12))
    allowance = 0.05 + max(rep.summary["bracket_widths"])
    at128 = float(ts[tn == 128][0])
    ok = monotone and at128 <= allowance and rep.all_ok()
    _criterion(9, ok,
               f"maximal-growth family joint tail non-increasing, at N=128 "
               f"{at128:.2e} <= 0.05 + bracket {max(rep.summary['bracket_widths']):.1e}")


def test_10_functional_scan_and_determinism(corpus130, tmp_path):
    koebe = corpus130[0]
    exact = all(coefficient_functionals(koebe, n)[1] == float((n - 1) ** 2)
                for n in range(2, 33))
    ratio_ok = True
    for f in corpus130:
        for n in range(2, 33):
            ratio_ok &= coefficient_functionals(f, n)[0] <= 1.0 + 1e-12

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = ScenarioConfig(scenario="zalcman_scan", m_range=(1, 5), n_range=(2, 32),
                         series_order=128, seed=3, out_dir="reports")
    for out in (out_a, out_b):
        export_report(run_scenario(cfg), out_dir=str(out))
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("zalcman_scan.csv", "zalcman_scan.json"))
    ok = exact and ratio_ok and identical
    _criterion(10, ok,
               f"koebe functional equals (n-1)^2 exactly for n<=32: {exact}; "
               f"ratios bounded: {ratio_ok}; reports byte-identical: {identical}")
