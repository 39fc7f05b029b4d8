"""Rounding relaxed solutions to partitions, and scoring them.

A relaxed equivalence matrix is turned into a hard clustering by embedding
points with the top eigenvectors and running k-means on the normalized
rows (``spectral_round``).  Hard clusterings are polished with alternating
minimization (``hard_reopt``, or ``joint_hard_reopt`` with cluster
log-priors) and scored against ground truth under the best matching of
clusters to classes (``soft_accuracy``, ``matched_accuracy``).  k-means,
both polishers and ``alt-hard`` are one Lloyd loop (``lloyd``), the same
algorithm under every Bregman divergence (Banerjee et al., JMLR 2005).  It
advances a stack of starts together, one cluster-major (R, d, t) cost per
sweep; a single start is a stack of one.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .divergences import family, pairwise_cost, pairwise_divergence

# Eigenvalues below RANK_RTOL * (largest eigenvalue) are treated as zero.
RANK_RTOL = 1e-9


@dataclass
class ClusteringResult:
    """A hard clustering: labels in {0..d-1} plus the model that scored it.

    ``centers`` lives in whatever space the producing routine clustered
    (data space for reoptimization, embedding space for spectral rounding).
    ``weights`` carries cluster log-priors when the producing model has
    them, ``trace`` the objective after each alternation sweep.
    """

    labels: np.ndarray
    centers: np.ndarray
    objective: float
    iterations: int = 0
    weights: Optional[np.ndarray] = None
    trace: list = field(default_factory=list)


def _counts(labels, d):
    """Integer cluster sizes (R, d) of a labeling (t,) or a stack (R, t), by one bincount."""
    stack = labels.reshape(-1, labels.shape[-1])
    offsets = d * np.arange(len(stack))[:, None]
    return np.bincount((stack + offsets).ravel(), minlength=offsets.size * d).reshape(-1, d)


def cluster_means(X, labels, d):
    """Per-cluster means and counts of labels (t,) or of a stack (R, t).

    Empty clusters get zero rows.  A stack's means are one stacked matmul,
    (R, d, t) @ (t, n): each labeling's means bit for bit.
    """
    counts = _counts(labels, d).reshape(labels.shape[:-1] + (d,)).astype(float)
    onehot = np.eye(d).take(labels, axis=0)  # (..., t, d)
    safe = np.where(counts > 0, counts, 1.0)
    centers = np.matmul(np.swapaxes(onehot, -1, -2), X) / safe[..., None]
    return centers, counts


def _fill_empty(X, labels, centers, fam):
    """Move the point farthest from its own center into each empty cluster.

    Labels (t,) with centers (d, n), or stacks (R, t) and (R, d, n).
    Moving the point, not just a center, keeps every log-prior finite.
    One point per cluster in turn, evaluating live centers only (empty
    rows may sit outside the domain).
    """
    (t, n), d = X.shape, centers.shape[-2]
    stack, centers, counts = labels.reshape(-1, t), centers.reshape(-1, d, n), _counts(labels, d)
    if counts.min() > 0:
        return labels
    stack = stack.copy()
    for r in np.flatnonzero(counts.min(axis=1) == 0):
        live = np.flatnonzero(counts[r])
        own = pairwise_divergence(fam, X, centers[r, live])
        div = own[np.arange(t), np.searchsorted(live, stack[r])]
        for j in np.flatnonzero(counts[r] == 0):
            p = int(np.argmax(div))
            stack[r, p] = j
            div[p] = -np.inf
    return stack.reshape(labels.shape)


def lloyd(X, labels0, fam="euclidean", max_iter=200, d=None, log_prior=False):
    """Lloyd's alternation under divergence ``fam`` from an (R, t) stack of starts.

    Returns R ClusteringResults.  Each sweep fits the means of every live
    start (with ``log_prior`` also log-priors w = log(counts / t), else
    w = 0), evaluates all their costs in one ``pairwise_cost`` call,
    records each objective sum_i [D_F(x_i, mu_{y_i}) - w_{y_i}] (a prior
    objective's t lse(w) is 0, as exp(w) sums to 1), then moves each point
    to the first argmin_j [D_F(x_i, mu_j) - w_j] (``_fill_empty`` refills
    a cluster left empty).  Without priors a trace never increases.  A
    start leaves the stack at its own fixed point, or after ``max_iter``
    sweeps; its centers, weights and objective belong to its returned
    labels.  ``d`` is at least the largest label plus one.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    fam = family(fam)
    X = fam.check_domain(X)
    labels = np.array(labels0, dtype=int, ndmin=2)
    t = X.shape[0]
    if labels.ndim != 2 or labels.shape[1] != t:
        raise ValueError(f"labels0 has {labels.shape[-1]} entries for {t} points")
    if labels.min() < 0:
        raise ValueError("labels0 must be nonnegative")
    d = max(int(labels.max()) + 1, d or 0)
    if _counts(labels, d).min() == 0:
        labels = _fill_empty(X, labels, cluster_means(X, labels, d)[0], fam)
    cost_of = pairwise_cost(fam, X)
    live = np.arange(labels.shape[0])
    traces = [[] for _ in live]
    results = [None] * len(traces)
    for iteration in range(1, max_iter + 1):
        current = labels[live]
        centers, counts = cluster_means(X, current, d)
        cost = cost_of(centers)  # (R, d, t)
        weights = None
        if log_prior:
            weights = np.log(counts / t)
            cost = cost - weights[:, :, None]
        objective = cost[np.arange(live.size)[:, None], current, np.arange(t)].sum(axis=1)
        for r, value in zip(live, objective.tolist()):
            traces[r].append(value)
        moved = current
        if iteration < max_iter:  # argmin over d, a cluster at a time: first index on ties
            moved, best = np.zeros_like(current), cost[:, 0]
            for j in range(1, d):
                moved[cost[:, j] < best] = j
                best = np.minimum(best, cost[:, j])
            moved = _fill_empty(X, moved, centers, fam)
        done = np.all(moved == current, axis=1)
        for i in np.flatnonzero(done):
            r = live[i]
            results[r] = ClusteringResult(labels[r], centers[i], traces[r][-1], iteration,
                                          None if weights is None else weights[i], traces[r])
        labels[live[~done]] = moved[~done]
        live = live[~done]
        if not live.size:
            return results


def hard_reopt(X, labels0, fam="euclidean", d=None):
    """Alternating minimization of sum_i D_F(x_i, mu_{y_i}) from labels0.

    Classic two-block descent (``lloyd`` without priors, one start):
    cluster means given labels, nearest center in divergence given means.
    """
    return lloyd(X, [np.ravel(labels0)], fam, d=d)[0]


def joint_hard_reopt(X, labels0, fam="euclidean", d=None):
    """Alternating minimization of the prior-aware hard objective.

    Blocks: cluster weights w = log(counts / t), means, and MAP labels
    argmax_j [w_j - D_F(x_i, mu_j)].  The objective
    sum_i [-w_{y_i} + D_F(x_i, mu_{y_i})] + t * lse(w), whose last term is
    0 at the fitted w, rewards skewed cluster sizes relative to plain
    alternating minimization (``lloyd`` with priors, one start).
    """
    return lloyd(X, [np.ravel(labels0)], fam, d=d, log_prior=True)[0]


def kmeans(X, k, rng=None):
    """kmeans++ seeds and start from one euclidean ``pairwise_cost``, then ``lloyd``.

    Each seed is a point drawn in proportion to its divergence (half the
    squared distance) from the nearest earlier seed, uniformly when all are
    0; each point starts at its first nearest seed, Lloyd's rule.  Returns
    lloyd's ClusteringResult: its objective is half the summed squared distance.
    """
    rng = np.random.default_rng(rng)
    X = np.asarray(X, dtype=float)
    t = X.shape[0]
    cost_of = pairwise_cost("euclidean", X)
    near = cost_of(X[[rng.integers(t)]])[0]
    labels0 = np.zeros(t, dtype=int)
    for j in range(1, k):
        total = near.sum()
        idx = rng.integers(t) if total <= 0 else rng.choice(t, p=near / total)
        seed = cost_of(X[[idx]])[0]
        labels0[seed < near] = j
        np.minimum(near, seed, out=near)
    return lloyd(X, [labels0], "euclidean", d=k)[0]


def spectral_embedding(M, d, eigenpairs=None):
    """Top-d eigenvector embedding of M with unit-normalized rows.

    The eigenpairs (values, vectors) are ``eigenpairs`` when given (a
    penalized solution's own), else ``eigh``'s of the symmetrized M.  Only
    eigenvalues above the relative rank cutoff contribute; if fewer than d
    survive, the embedding proceeds with the available dimensions and a
    warning.  Zero rows stay zero.
    """
    if eigenpairs is None:
        M = np.asarray(M, dtype=float)
        eigenpairs = np.linalg.eigh(0.5 * (M + M.T))
    vals, vecs = eigenpairs
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    cutoff = RANK_RTOL * max(float(vals[0]), 0.0)
    usable = int(np.sum(vals[:d] > cutoff))
    if usable < d:
        warnings.warn(
            f"spectrum supports {usable} of {d} embedding dimensions",
            RuntimeWarning,
        )
    usable = max(usable, 1)
    V = vecs[:, order[:usable]].copy()
    norms = np.linalg.norm(V, axis=1)
    keep = norms > 1e-12
    V[keep] /= norms[keep, None]
    V[~keep] = 0.0
    return V


def spectral_round(M, d, restarts=10, rng=None, embedding=None):
    """Round a relaxed equivalence matrix to d clusters.

    Embeds with the top eigenvectors, normalizes rows, and returns the
    ``kmeans`` result of lowest objective (half the inertia; the first on
    ties) of ``restarts`` runs (at least one; fewer raise ValueError).
    Pass ``embedding`` to reuse a precomputed embedding across calls.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(rng)
    V = spectral_embedding(M, d) if embedding is None else embedding
    return min((kmeans(V, d, rng) for _ in range(restarts)), key=lambda res: res.objective)


def matched_accuracy(pred, truth):
    """Fraction of points whose cluster maps to their class under the best
    one-to-one matching, extras unmatched: ``soft_accuracy`` of the one-hot
    labels, by ``_counts``.  No points or negative labels raise ValueError.
    """
    pred = np.asarray(pred, dtype=int).ravel()
    truth = np.asarray(truth, dtype=int).ravel()
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth must have equal length")
    if pred.size == 0:
        raise ValueError("no points to score")
    if min(pred.min(), truth.min()) < 0:
        raise ValueError("cluster and class labels must be nonnegative")
    k, c = pred.max() + 1, truth.max() + 1  # the table counts the (cluster, class) pairs
    table = _counts(pred * c + truth, k * c).reshape(k, c).astype(float)
    rows, cols = _max_matching(table)
    return float(table[rows, cols].sum() / truth.size)


def soft_accuracy(posteriors, truth):
    """Matching-based accuracy for soft assignments.

    Credit for point i under matching pi is its posterior mass on
    pi(class_i); returns the best matching's credit per point.  No
    points, negative class labels, negative or non-finite posterior
    entries and rows that do not sum to one raise ValueError.
    """
    P = np.asarray(posteriors, dtype=float)
    truth = np.asarray(truth, dtype=int).ravel()
    if P.shape[0] != truth.shape[0]:
        raise ValueError("posterior rows must match number of points")
    if truth.size == 0:
        raise ValueError("no points to score")
    if not np.all(np.isfinite(P)):
        raise ValueError("posterior entries must be finite")
    if truth.min() < 0:
        raise ValueError("class labels must be nonnegative")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("posterior rows must sum to one")
    if P.min() < 0.0:
        raise ValueError("posterior entries must be nonnegative")
    table = P.T @ np.eye(truth.max() + 1)[truth]
    rows, cols = _max_matching(table)
    return float(table[rows, cols].sum() / truth.size)


def _max_matching(table):
    """Rows and columns of a maximum-weight matching of a k x c table, rows ascending.

    The Hungarian method with potentials and one shortest augmenting path
    per row of the shorter side (Kuhn 1955; Jonker & Volgenant 1987), in
    Python floats: clusters x classes tables are too small for numpy rows.
    """
    flip = table.shape[0] > table.shape[1]
    cost = (-(table.T if flip else table)).tolist()
    n, m = len(cost), len(cost[0])
    u, v, owner = [0.0] * n, [0.0] * (m + 1), [-1] * (m + 1)  # column m roots each path
    for i in range(n):
        owner[m], j0, done, todo = i, m, [], list(range(m))
        dist, way = [float("inf")] * m + [0.0], [m] * m
        while owner[j0] >= 0:  # Dijkstra over reduced costs from row i to a free column
            done.append(j0)
            row, ui, low = cost[owner[j0]], u[owner[j0]], dist[j0]
            for j in todo:
                if low + row[j] - ui - v[j] < dist[j]:
                    dist[j], way[j] = low + row[j] - ui - v[j], j0
            j0 = min(todo, key=dist.__getitem__)
            todo.remove(j0)
        for j in done:  # keeps reduced costs nonnegative, and zero along the path
            u[owner[j]] += dist[j0] - dist[j]
            v[j] -= dist[j0] - dist[j]
        while j0 != m:  # augment along the path back to the root
            owner[j0], j0 = owner[way[j0]], way[j0]
    pairs = sorted((j, owner[j]) if flip else (owner[j], j) for j in range(m) if owner[j] >= 0)
    return tuple(np.array(side) for side in zip(*pairs))
