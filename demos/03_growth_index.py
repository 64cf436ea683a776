"""Growth-index (Hayman index) estimation from the two monotone profiles.

The growth profile (1-r)^2 M(r)/r and the derivative profile along the
growth ray both decrease to the index, so every finite radius yields a
certified upper bound; running both gives a bracket.

Run:  python demos/03_growth_index.py
"""

import cmath
import math

import numpy as np

from schlichtlab import growth_profile, hayman_index, make_schlicht

radii = [1 - 2.0 ** -j for j in range(1, 15)]

print("growth profiles (non-increasing by construction)")
print("-" * 64)
for tag, params in (("koebe", {}), ("halfplane", {}), ("dilation", {"r": 0.9})):
    f = make_schlicht(tag, params, order=64)
    prof = growth_profile(f, radii)
    print(f"{f.label():24s} first {prof[0]:.6f}  last {prof[-1]:.2e}")

print()
print("index estimates with both estimators")
print("-" * 64)
w = 0.3 * cmath.exp(1j * math.pi / 4)
members = [
    make_schlicht("koebe", order=64),
    make_schlicht("rotation", {"theta": math.pi / 3}, order=64),
    make_schlicht("halfplane", order=64),
    make_schlicht("koebe_transform", {"w": w}, order=64),
]
for f in members:
    est = hayman_index(f)
    theta = "none" if est.theta is None else f"{est.theta:+.4f}"
    print(f"{f.label():34s} alpha = {est.alpha:.8f}  upper = {est.upper:.8f}"
          f"  bracket = {est.bracket_width:.1e}  theta = {theta}")

# for the disk-automorphism transform the index has a closed form derived
# from its rational structure: (1 - |w|^2)/|1 - w^2|
alpha_closed = (1 - abs(w) ** 2) / abs(1 - w * w)
est = hayman_index(members[-1])
print()
print(f"transform closed form alpha = {alpha_closed:.12f}")
print(f"estimate error              = {abs(est.alpha - alpha_closed):.2e}")
