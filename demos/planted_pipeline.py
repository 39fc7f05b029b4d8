"""Solve, round, and score every relaxation model on planted clusters.

Generates well-separated gaussian blobs (plus a (0,1)-valued variant for
the sigmoid-only discriminative model), solves each convex relaxation,
rounds the relaxed equivalence matrix with spectral clustering, polishes
with hard reoptimization, and compares against the planted labels and an
exhaustive scan of all assignments.
"""

import itertools
import warnings

import numpy as np

from bregrelax import (
    ModelConfig,
    cond_objective,
    hard_reopt,
    matched_accuracy,
    solve_relaxation,
    spectral_round,
)

# the centered relaxation spends a trace budget of d-1, so its recovered
# equivalence matrix has d-1 informative eigenvectors; the embedding warns
# about the short spectrum and proceeds, which is expected here
warnings.filterwarnings("ignore", message="spectrum supports")

rng = np.random.default_rng(0)
t, d = 14, 2

means = np.array([[4.0, 0.0], [-4.0, 0.0]])
truth = np.arange(t) % d
X = means[truth] + 0.5 * rng.normal(size=(t, 2))

# exhaustive hard optimum over all 2^13 assignments (first label pinned)
best = np.inf
for rest in itertools.product(range(d), repeat=t - 1):
    labels = np.array((0,) + rest)
    best = min(best, cond_objective(X, labels))
print(f"exhaustive hard optimum: {best:.6f}")
print()

Xb = np.clip(0.5 + 0.11 * X, 0.05, 0.95)  # squash into the bernoulli domain

for model in ("cond-jc", "cond", "joint", "disc"):
    if model == "disc":
        data, fam = Xb, "bernoulli"
        cfg = ModelConfig(d=d, family=fam, gamma=1e-4, tol=1e-6)
    else:
        data, fam = X, "euclidean"
        cfg = ModelConfig(d=d, alpha=1e-2, beta=1e-2, tol=1e-5)
    sol = solve_relaxation(model, data, cfg)
    rounded = spectral_round(sol.M, d, rng=np.random.default_rng(1))
    polished = hard_reopt(data, rounded.labels, fam)
    acc = matched_accuracy(polished.labels, truth)
    line = (f"{model:8s} relaxed={sol.objective:10.6f}  "
            f"hard={polished.objective:10.6f}  accuracy={acc:.2f}")
    if model == "cond-jc":
        # same objective as the exhaustive scan, so the relaxation is a
        # certified lower bound here
        line += f"  (bound gap {best - sol.objective:+.2e})"
    print(line)
