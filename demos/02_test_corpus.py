"""The test-function corpus: construction, certified values, circle maxima.

Run:  python demos/02_test_corpus.py
"""

import numpy as np

from schlichtlab import (
    eval_certified,
    invert_to_sigma,
    make_schlicht,
    max_modulus,
    standard_corpus,
)

print("corpus members and their leading coefficients")
print("-" * 64)
for f in standard_corpus(order=64):
    head = np.round(f.series.coeffs[:5], 4)
    print(f"{f.label():42s} a_0..a_4 = {head}")

print()
print("every closed-form member is z(1 - rho z)/(1 - beta z)^2")
print("-" * 64)
for f in standard_corpus(order=64):
    beta, rho = (complex(c) for c in f.beta_rho)
    print(f"{f.label():42s} beta = {beta:.4f}  rho = {rho:.4f}")

print()
print("certified evaluation: closed forms are exact, series carry a tail bound")
print("-" * 64)
koebe = make_schlicht("koebe", order=64)
val, err = eval_certified(koebe, 0.9)
print(f"koebe(0.9)  closed form     = {val.real:g}  (error bound {err:g})")

series_only = make_schlicht("custom", {"coeffs": np.arange(129)}, order=128)
val, err = eval_certified(series_only, 0.5)
print(f"same map as bare series     = {val.real:.12f}  (tail bound {err:.2e})")

print()
print("maximum modulus on circles, with golden-section refinement")
print("-" * 64)
for tag, params in (("koebe", {}), ("rotation", {"theta": np.pi / 3}),
                    ("halfplane", {})):
    f = make_schlicht(tag, params, order=64)
    m, theta = max_modulus(f, 0.5)
    print(f"{f.label():32s} M(0.5) = {m:.6f} at theta = {theta:+.6f}")

print()
print("inversion to the exterior class: g(z) = 1/f(1/z)")
print("-" * 64)
g = invert_to_sigma(make_schlicht("koebe", order=70), 8)
print("inverted koebe: b0 =", g.b0.real, " tail =", g.tail.real,
      "  (z - 2 + 1/z)")
g = invert_to_sigma(make_schlicht("halfplane", order=70), 8)
print("inverted halfplane: b0 =", g.b0.real, " tail =", g.tail.real,
      "  (z - 1: bounded image)")
