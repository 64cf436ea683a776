"""The double-indexed convergence experiments and their reports.

Three families of maps f_m with coefficient ratios |a_n^(m)|/n:

* counterexample -- Koebe dilations: every member has growth index 0 yet
  the (m = n) diagonal of the ratio grid stays above 1/e, so nothing
  converges simultaneously when the indexes do not converge to the
  limit's index.
* theorem1 -- half-plane dilations (slow growth): the joint (m, n) tail
  of the ratios collapses.
* theorem2 -- disk-automorphism transforms of the Koebe map (maximal
  growth, full-mapping limit): ratios converge to the member indexes
  simultaneously, with the estimator bracket folded into the tolerance.

Run:  python demos/06_simultaneous_convergence.py
"""

import tempfile

import numpy as np

from schlichtlab import ScenarioConfig, export_report, run_scenario

# the reports go to a temporary directory that is removed on exit
tmp = tempfile.TemporaryDirectory(prefix="schlicht-lab-")
out_dir = tmp.name

print("counterexample: diagonal refuses to vanish")
print("-" * 64)
cfg = ScenarioConfig(scenario="counterexample", m_range=(2, 64),
                     n_range=(1, 256), series_order=256, out_dir=out_dir)
rep = run_scenario(cfg)
diag = rep.summary["diagonal"]
for m in (2, 8, 16, 32, 64):
    print(f"  m = n = {m:3d}: |a_m|/m = {diag[m]:.6f}")
print(f"  limit of the diagonal is 1/e = {np.exp(-1.0):.6f}; the per-row")
print(f"  (fixed m) values still vanish: flags = {rep.summary['flags']}")

print()
print("theorem1: slow-growth family, joint tail of |a_n|/n")
print("-" * 64)
cfg = ScenarioConfig(scenario="theorem1", m_range=(2, 128), n_range=(1, 256),
                     series_order=256, out_dir=out_dir)
rep = run_scenario(cfg)
tn = np.asarray(rep.summary["tail_n"])
ts = np.asarray(rep.summary["tail_sup"])
for cut in (10, 50, 100, 200):
    print(f"  sup over m,n > {cut:3d}: {float(ts[tn == cut][0]):.6f}")
print(f"  weighted-mean harness: {rep.summary['tauber_harness']}")

print()
print("theorem2: maximal-growth family, deviation from the member indexes")
print("-" * 64)
cfg = ScenarioConfig(scenario="theorem2", m_range=(1, 64), n_range=(1, 256),
                     series_order=256, out_dir=out_dir)
rep = run_scenario(cfg)
tn = np.asarray(rep.summary["tail_n"])
ts = np.asarray(rep.summary["tail_sup"])
for cut in (16, 64, 128):
    print(f"  sup over m,n > {cut:3d}: {float(ts[tn == cut][0]):.3e}")
print(f"  index range across members: [{min(rep.summary['alpha']):.6f}, "
      f"{max(rep.summary['alpha']):.6f}]")
print(f"  worst estimator bracket: {max(rep.summary['bracket_widths']):.1e}")

with tmp:
    paths = export_report(rep)
    print()
    print("reports written (8-decimal CSV plus full-precision JSON):")
    for p in paths:
        print(" ", p)
