"""Grunsky sections: symmetry, operator norm, and fullness diagnostics.

A map is "full" when its exterior image omits only a set of measure
zero.  For full maps the weighted Grunsky matrix attains operator norm 1
and the row-sum defect  | sum n |A_n(z)|^2 + log(1-|z|^2) |  collapses
as the section grows; bounded images leave a positive defect.

Run:  python demos/05_grunsky_fullness.py
"""

import numpy as np

from schlichtlab import (
    full_mapping_defect,
    fullness_defect,
    grunsky_matrix,
    invert_to_sigma,
    log_data,
    standard_corpus,
    strong_grunsky_norm,
)

corpus = standard_corpus(order=130)

print("weighted operator norms (univalence keeps them <= 1)")
print("-" * 70)
for f in corpus:
    g = invert_to_sigma(f, 128)
    # dense: full-mapping sections pile their singular values up at 1
    norm = strong_grunsky_norm(grunsky_matrix(g, 32))
    print(f"{f.label():34s} norm = {norm:.12f}")

print()
print("fullness defect at z = 0.5, section order doubling")
print("-" * 70)
for f in corpus:
    table = grunsky_matrix(invert_to_sigma(f, 128), 64)
    defects = [fullness_defect(table.section(n), 0.5) for n in (16, 32, 64)]
    trend = " -> ".join(f"{d:.3e}" for d in defects)
    print(f"{f.label():34s} {trend}")
print()
print("(koebe/rotation/transform: defect dies -- slit images are full;")
print(" halfplane/dilation: defect sticks at a positive value -- bounded images)")

print()
print("table-to-ledger identity  sum A_n(z) z^n = 2log(f/z) - log f'")
print("-" * 70)
for f in corpus:
    g = invert_to_sigma(f, 128)
    table = grunsky_matrix(g, 64)
    _, identity = full_mapping_defect(table, log_data(f), f, 0.4 + 0.2j)
    print(f"{f.label():34s} residual = {identity:.2e}")
