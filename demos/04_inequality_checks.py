"""The classical scalar inequalities over the corpus.

Milin's partial-sum bound, Bazilevich's direction-weighted bound, the
second Lebedev-Milin chain, Prawitz's integrated circle means, and the
Bieberbach/Zalcman coefficient functionals.

Run:  python demos/04_inequality_checks.py
"""

import numpy as np

from schlichtlab import (
    bazilevich_gap,
    coefficient_functionals,
    hayman_index,
    lebedev_milin_check,
    log_data,
    milin_check,
    prawitz_check,
    standard_corpus,
)

corpus = standard_corpus(order=130)
ledgers = {f.label(): log_data(f) for f in corpus}

print("milin partial sums: max over n of sum 2(Re gamma_k - 1/k) <= 0.312")
print("-" * 70)
for f in corpus:
    _, max_partial, passes = milin_check(ledgers[f.label()])
    print(f"{f.label():34s} max partial = {max_partial:+.4f}  ok={passes}")

print()
print("bazilevich: sum k|gamma_k - e^{-ik t}/k|^2 <= -log(alpha)/2")
print("-" * 70)
for f in corpus:
    if not f.maximal_growth:
        continue
    est = hayman_index(f)
    lhs, rhs, gap = bazilevich_gap(ledgers[f.label()], est.alpha, est.theta, 128)
    print(f"{f.label():34s} lhs = {lhs:.6f}  rhs = {rhs:.6f}  gap = {gap:+.1e}")

print()
print("second lebedev-milin chain |a_{n+1}| <= sum |b_k|^2 <= (n+1) exp{...}")
print("-" * 70)
for f in corpus:
    a_abs, b_sum, rhs = lebedev_milin_check(f, ledgers[f.label()], 32)
    print(f"{f.label():34s} {a_abs:10.4f} <= {b_sum:10.4f} <= {rhs:10.4f}")

print()
print("prawitz: integrated circle-mean inequality over radius pairs")
print("-" * 70)
for f in corpus:
    means, violations = prawitz_check(f, (0.3, 0.5, 0.7, 0.9))
    print(f"{f.label():34s} means = {np.round(means, 4)}  violations = {violations}")

print()
print("coefficient functionals: |a_n|/n and |a_n^2 - a_{2n-1}| vs (n-1)^2")
print("-" * 70)
for f in corpus:
    ratio, zal, bound = coefficient_functionals(f, 5)
    print(f"{f.label():34s} ratio = {ratio:.4f}  functional = {zal:7.3f}"
          f"  ceiling = {bound:.0f}")
