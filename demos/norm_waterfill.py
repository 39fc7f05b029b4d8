"""Walk through the cluster norm: spectrum water-filling, the dual atom,
and a brute-force cross-check.

The squared norm of a t x n matrix T with cluster budget d is the value of

    min over sigma in [0,1]^r, sum sigma <= d-1  of  sum_i s_i^2 / sigma_i

where s are the singular values of T.  The minimizer fills sigma_i up to a
water level: sigma_i = min(1, s_i / level).
"""

import numpy as np

from bregrelax import (
    cluster_norm,
    cluster_norm_dual,
    cluster_norm_dual_subgradient,
    waterfill,
)

rng = np.random.default_rng(7)
T = rng.normal(size=(8, 5))
d = 3

s = np.linalg.svd(T, compute_uv=False)
sigma = waterfill(s, 0.0, d)
value = float(np.sum(s[sigma > 0] ** 2 / sigma[sigma > 0]))
print("singular values :", np.round(s, 4))
print("filled sigma    :", np.round(sigma, 4))
print("saturated head  :", int(np.count_nonzero(sigma >= 1.0)), "coordinates at the box bound")
print("sum(sigma)      :", round(float(np.sum(sigma)), 6), "<= d-1 =", d - 1)
print("norm^2          :", round(value, 6))
print("norm            :", round(cluster_norm(T, d), 6))

# sanity: a crude scan over water levels should land on the same value
levels = np.linspace(1e-6, s.sum(), 200001)
best = np.inf
for lv in levels:
    sigma = np.minimum(1.0, s / lv)
    total = sigma.sum()
    if total > d - 1:
        sigma *= (d - 1) / total
    best = min(best, float(np.sum(s**2 / sigma)))
print("grid scan       :", round(best, 6), "(agrees to ~1e-6)")

# the dual norm is the l2 mass of the top d-1 singular values, and its
# subgradient is a unit-norm atom that attains the pairing exactly
R = rng.normal(size=(8, 5))
S = cluster_norm_dual_subgradient(R, d)
print()
print("dual norm       :", round(cluster_norm_dual(R, d), 6))
print("<R, S>          :", round(float(np.sum(R * S)), 6))
print("norm of atom    :", round(cluster_norm(S, d), 9))
