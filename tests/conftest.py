"""Shared oracles and instance generators for the test suite.

The oracles here deliberately avoid the package's own closed forms:
norm values come from a refined water-level scan plus random feasible
probes, gradients from central differences, hard optima from exhaustive
enumeration, and convex references from cvxpy where available.  Hard
equivalence matrices (``indicator``, ``equivalence_from_assignment``),
the range-checked quadratic form tr(T' M^+ T) (``pinv_quadratic_form``,
raising ``RangeError``) and the one-row simplex projection
(``simplex_project``) live here too: the package itself never needs them,
and so does GCG's line-search segment of ``cond``'s bernoulli loss
(``bernoulli_cond_loss``), which ``cond`` no longer runs.
So do the sweep-by-sweep Lloyd and EM loops (``lloyd_reference``,
``em_reference``), which evaluate ``pairwise_divergence`` from scratch in
every sweep where the package builds the data half of the cost once, and
``disc_terms_reference``; these three take their row log-sum-exp and
softmax from ``row_softmax``, a plain max shift in ``softmax_rows``'s
arithmetic (which ``test_divergences`` checks against scipy), and the
Lloyd loop records no log-prior term.  ``spectral_embedding_reference``
is the dense embedding as it was before it learned to read eigenpairs:
it reorders every eigenvector column before keeping the top d.
"""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

from bregrelax import SmoothProblem, cond_objective, family, pairwise_divergence
from bregrelax.models import _cond_problem
from bregrelax.rounding import RANK_RTOL, _fill_empty, cluster_means


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def finite_difference_gradient(fun, x, h=1e-6):
    """Central-difference gradient of a scalar function of an ndarray."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        step = h * max(1.0, abs(x[idx]))
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (fun(xp) - fun(xm)) / (2.0 * step)
    return g


def grid_norm_squared(s, d, stages=3, points=2000):
    """Reference value of min over sigma in [0,1]^r, sum sigma <= d-1 of
    sum s_i^2 / sigma_i, by scanning the water level on a refined grid.

    The scan parameterizes candidates as sigma_i = min(1, s_i / level)
    and refines the level bracket down to 1e-6; it shares no code with
    the package's breakpoint evaluation.
    """
    s = np.sort(np.abs(np.asarray(s, dtype=float)))[::-1]
    s = s[s > 0]
    budget = d - 1
    if s.size == 0:
        return 0.0
    if s.size <= budget:
        return float(np.sum(s**2))

    # bracket the level: tiny level -> occupancy = r > budget; at
    # sum(s)/budget every sigma is interior and occupancy <= budget
    lo = 1e-12
    hi = max(float(np.sum(s)) / budget, float(s[0])) + 1.0
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        occ = np.minimum(1.0, s / grid[:, None]).sum(axis=1)  # occupancy at each level
        # find the first grid point that dips below the budget
        idx = int(np.searchsorted(-occ, -budget))
        idx = min(max(idx, 1), points - 1)
        lo, hi = grid[idx - 1], grid[idx]
    level = 0.5 * (lo + hi)
    sigma = np.minimum(1.0, s / level)
    sigma *= min(1.0, budget / float(np.sum(sigma)))
    return float(np.sum(s**2 / sigma))


def random_feasible_sigma(r, budget, rng):
    """A random point of the box-and-budget feasible set."""
    sigma = rng.uniform(0.05, 1.0, size=r)
    total = float(np.sum(sigma))
    if total > budget:
        sigma *= budget / total
    return sigma


def simplex_project(v):
    """Euclidean projection of one vector onto the probability simplex.

    The sorted-threshold algorithm, one row at a time: the reference for
    the package's vectorized ``simplex_project_rows``.
    """
    v = np.asarray(v, dtype=float).ravel()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(idx[u - css / idx > 0.0])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def assert_simplex_projection(V, P):
    """Check P's rows are the projections of V's onto the probability simplex.

    By the variational inequality, p = P(v) exactly when p lies on the
    simplex and <v - p, z - p> <= 0 for every simplex point z.  That
    maximum over z is a linear program whose value is the largest entry
    of v - p, so no projection algorithm enters the check.
    """
    V, P = np.atleast_2d(V), np.atleast_2d(P)
    scale = 1e-12 * (1.0 + np.abs(V).max(axis=1)) * V.shape[1]
    assert np.all(P >= 0.0)
    assert np.all(np.abs(P.sum(axis=1) - 1.0) <= scale)
    G = V - P
    assert np.all(G.max(axis=1) - np.sum(G * P, axis=1) <= scale)


def assert_box_budget_projection(sigma, budget, p):
    """Check p is the projection of sigma onto {z in [0, 1]^r : sum z <= budget}.

    The variational inequality again: the maximum of <g, z> over that set,
    g = sigma - p, takes the top floor(budget) positive entries of g whole
    and the budget's fraction of the next one.
    """
    sigma, p = np.asarray(sigma, dtype=float), np.asarray(p, dtype=float)
    scale = 1e-12 * (1.0 + np.abs(sigma).sum())
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert p.sum() <= budget + scale
    g = sigma - p
    top = np.sort(np.maximum(g, 0.0))[::-1]
    k = int(np.floor(budget))
    support = top[:k].sum() + (budget - k) * (top[k] if k < top.size else 0.0)
    assert support - g @ p <= scale


def indicator(labels, d):
    """One-hot (t, d) assignment matrix from integer labels in [0, d)."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError("labels must be a vector")
    if labels.size and (labels.min() < 0 or labels.max() >= d):
        raise ValueError("labels out of range")
    Y = np.zeros((labels.size, d))
    Y[np.arange(labels.size), labels] = 1.0
    return Y


def equivalence_from_assignment(Y):
    """Normalized equivalence matrix M = Y diag(Y'1)^+ Y' of a hard assignment.

    ``Y`` is a (t, d) 0/1 matrix with one 1 per row.  Empty clusters simply
    contribute nothing.  The result satisfies M' = M and M @ M = M; when no
    cluster is empty it also satisfies M 1 = 1.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("assignment must be a 2-d matrix")
    onehot = np.all((Y == 0.0) | (Y == 1.0))
    if not onehot or not np.all(Y.sum(axis=1) == 1.0):
        bad = int(np.flatnonzero(Y.sum(axis=1) != 1.0)[0]) if Y.size else 0
        raise ValueError(f"row {bad} of the assignment is not one-hot")
    counts = Y.sum(axis=0)
    inv = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    return (Y * inv) @ Y.T


class RangeError(ValueError):
    """A quadratic form tr(T' M^+ T) was requested outside the range of M."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"columns leave the range of M: projection residual {residual:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


def pinv_quadratic_form(M, T, rank_rtol=1e-9, range_tol=1e-6):
    """tr(T' M^+ T) for symmetric PSD M, requiring Im(T) within Im(M).

    Eigenvalues below ``rank_rtol`` times the largest are treated as zero.
    If the residual of T after projection onto the retained eigenspace
    exceeds ``range_tol`` relative to ||T||_F, a RangeError is raised.
    """
    M = np.asarray(M, dtype=float)
    T = np.asarray(T, dtype=float)
    if T.ndim == 1:
        T = T[:, None]
    if M.shape[0] != M.shape[1] or M.shape[0] != T.shape[0]:
        raise ValueError("incompatible shapes")
    M = 0.5 * (M + M.T)
    eigvals, eigvecs = scipy.linalg.eigh(M)
    cutoff = rank_rtol * max(float(np.max(eigvals, initial=0.0)), 0.0)
    keep = eigvals > max(cutoff, 0.0)
    U = eigvecs[:, keep]
    proj = U @ (U.T @ T)
    tnorm = np.linalg.norm(T)
    residual = np.linalg.norm(T - proj)
    if residual > range_tol * max(tnorm, 1e-300):
        raise RangeError(residual, range_tol * tnorm)
    coeffs = U.T @ T
    return float(np.sum(coeffs**2 / eigvals[keep, None]))


def quadratic_loss(C, calls=None):
    """0.5 ||W - C||^2 as a SmoothProblem with its exact segment.

    ``calls``, when given, collects each (a, b) the segment is evaluated at.
    """

    def value_and_grad(W):
        diff = W - C
        return 0.5 * float(np.sum(diff * diff)), diff

    def segment(T, S):
        H = np.array([[np.sum(T * T), np.sum(T * S)], [np.sum(T * S), np.sum(S * S)]])

        def phi(a, b):
            if calls is not None:
                calls.append((a, b))
            R = a * T + b * S - C
            return 0.5 * float(np.sum(R * R)), np.array([np.sum(R * T), np.sum(R * S)]), H

        return phi

    return SmoothProblem(shape=C.shape, value_and_grad=value_and_grad, segment=segment)


def bernoulli_cond_loss(X):
    """``cond``'s bernoulli loss D_F*(T, f(X)) with an exact segment.

    Along a*T + b*S the gradient in (a, b) is (<R, T>, <R, S>) with
    R = sigmoid(W) - X, and the curvature weighs T and S entrywise by
    sigmoid(W) (1 - sigmoid(W)).
    """
    problem = _cond_problem(X, family("bernoulli"))

    def segment(T, S):
        def phi(a, b):
            value, R = problem.value_and_grad(a * T + b * S)
            w = (R + X) * (1.0 - R - X)
            ts = np.sum(w * T * S)
            H = np.array([[np.sum(w * T * T), ts], [ts, np.sum(w * S * S)]])
            return value, np.array([np.sum(R * T), np.sum(R * S)]), H

        return phi

    problem.segment = segment
    return problem


def row_softmax(S):
    """(lse, P) of each row: max-shift, exp, row sum s, log(s) + max and e / s."""
    a = np.max(S, axis=1)
    e = np.exp(S - a[:, None])
    s = np.sum(e, axis=1)
    return np.log(s) + a, e / s[:, None]


def lloyd_reference(X, labels0, fam, max_iter, d, log_prior=False):
    """Lloyd's loop with the full ``pairwise_divergence`` in every sweep.

    Returns (labels, centers, weights, trace, iterations).
    """
    fam = family(fam)
    X = fam.check_domain(X)
    labels = np.asarray(labels0, dtype=int).copy()
    t = X.shape[0]
    labels = _fill_empty(X, labels, cluster_means(X, labels, d)[0], fam)
    weights = None
    trace = []
    for iteration in range(1, max_iter + 1):
        centers, counts = cluster_means(X, labels, d)
        cost = pairwise_divergence(fam, X, centers)
        if log_prior:
            weights = np.log(counts / t)
            cost = cost - weights[None, :]
        trace.append(float(cost[np.arange(t), labels].sum()))
        if iteration == max_iter:
            break
        new_labels = _fill_empty(X, cost.argmin(axis=1), centers, fam)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers, weights, trace, iteration


def spectral_embedding_reference(M, d):
    """Top-d eigenvectors of the symmetrized M, rows normalized, from one full reorder."""
    M = np.asarray(M, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    cutoff = RANK_RTOL * max(float(vals[0]), 0.0)
    usable = int(np.sum(vals[:d] > cutoff))
    if usable < d:
        warnings.warn(f"spectrum supports {usable} of {d} embedding dimensions",
                      RuntimeWarning)
    usable = max(usable, 1)
    V = vecs[:, :usable].copy()
    norms = np.linalg.norm(V, axis=1)
    keep = norms > 1e-12
    V[keep] /= norms[keep, None]
    V[~keep] = 0.0
    return V


def em_reference(X, d, fam, rng, max_iter=300, tol=1e-9):
    """Mixture EM with the full ``pairwise_divergence`` in every sweep.

    Returns (posteriors, weights, centers, trace, iterations).
    """
    fam = family(fam)
    X = fam.check_domain(X)
    t = X.shape[0]
    centers = X[rng.choice(t, size=d, replace=False)].copy()
    logq = np.full(d, -np.log(d))
    prev = -np.inf
    trace = []
    for iteration in range(1, max_iter + 1):
        lse, P = row_softmax(logq[None, :] - pairwise_divergence(fam, X, centers))
        ll = float(lse.sum())
        trace.append(ll)
        if (ll - prev < tol * (1.0 + abs(ll)) and iteration > 1) or iteration == max_iter:
            break
        prev = ll
        mass = P.sum(axis=0)
        logq = np.log(np.maximum(mass, 1e-300)) - np.log(t)
        nz = mass > 1e-12
        centers[nz] = (P.T @ X)[nz] / mass[nz, None]
    return P, np.exp(logq), centers, trace, iteration


def disc_terms_reference(Z0, tau):
    """``models._disc_terms`` on ``row_softmax``: (value, row softmax P)."""
    lse, P = row_softmax(Z0 + tau[None, :])
    return (lse.sum() - np.trace(Z0) - tau.sum()) / Z0.shape[0], P


def planted_euclidean(t, d, rng, sep=6.0, noise=0.5):
    """Well-separated gaussian blobs with origin-symmetric means."""
    angles = 2.0 * np.pi * np.arange(d) / max(d, 2)
    base = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    base -= base.mean(axis=0)
    means = sep * base
    labels = np.arange(t) % d
    X = means[labels] + noise * rng.normal(size=(t, 2))
    perm = rng.permutation(t)
    return X[perm], labels[perm]


def planted_bernoulli(t, d, rng, hi=0.85, noise=0.04):
    """Well-separated (0,1)-valued blobs symmetric around one half."""
    n = max(2 * d, 4)
    proto = np.full((d, n), 0.5)
    for j in range(d):
        proto[j, 2 * j] = hi
        proto[j, 2 * j + 1] = 1.0 - hi
    proto -= proto.mean(axis=0) - 0.5
    labels = np.arange(t) % d
    X = proto[labels] + noise * rng.normal(size=(t, n))
    X = np.clip(X, 0.02, 0.98)
    perm = rng.permutation(t)
    return X[perm], labels[perm]


def all_assignments(t, d):
    """All label vectors of length t over d clusters, first point fixed
    to cluster 0 to quotient out one relabeling symmetry."""
    for rest in itertools.product(range(d), repeat=t - 1):
        yield np.array((0,) + rest, dtype=int)


def exhaustive_hard_optimum(X, d, fam="euclidean"):
    """Brute-force minimum of the hard clustering objective."""
    best = np.inf
    best_labels = None
    for labels in all_assignments(X.shape[0], d):
        val = cond_objective(X, labels, fam)
        if val < best:
            best = val
            best_labels = labels
    return best, best_labels


def require_cvxpy():
    return pytest.importorskip("cvxpy")


def cvxpy_project_rowsum(A, d, solver=None):
    """High-precision projection of A onto the row-sum relaxation set."""
    cp = require_cvxpy()
    t = A.shape[0]
    Z = cp.Variable((t, t), symmetric=True)
    constraints = [
        Z >> 0,
        np.eye(t) - Z >> 0,
        cp.trace(Z) <= d,
        Z @ np.ones(t) == np.ones(t),
    ]
    prob = cp.Problem(cp.Minimize(cp.sum_squares(Z - A)), constraints)
    kwargs = {"solver": solver} if solver else {"solver": "CLARABEL"}
    prob.solve(**kwargs)
    if Z.value is None:
        pytest.skip("convex reference solver failed on this instance")
    return np.asarray(Z.value)


def cvxpy_norm_regularized(X, alpha, d, solver="CLARABEL"):
    """Reference for min_T 0.5 ||T - X||_F^2 + (alpha/2) Omega^2(T).

    Uses the epigraph form tr(T' M^+ T) <= tr(R) with a Schur-complement
    block constraint and the centered relaxation set for M.
    """
    cp = require_cvxpy()
    t, n = X.shape
    T = cp.Variable((t, n))
    M = cp.Variable((t, t), symmetric=True)
    R = cp.Variable((n, n), symmetric=True)
    block = cp.bmat([[M, T], [T.T, R]])
    constraints = [
        block >> 0,
        M >> 0,
        np.eye(t) - M >> 0,
        cp.trace(M) <= d - 1,
    ]
    objective = 0.5 * cp.sum_squares(T - X) + 0.5 * alpha * cp.trace(R)
    prob = cp.Problem(cp.Minimize(objective), constraints)
    prob.solve(solver=solver)
    if T.value is None:
        pytest.skip("convex reference solver failed on this instance")
    return float(prob.value), np.asarray(T.value)
