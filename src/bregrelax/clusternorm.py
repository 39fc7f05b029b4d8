"""The cluster norm: the matrix norm induced by budgeted spectral relaxations.

For a cluster budget d, the squared norm of a t x n matrix T is the value of

    min tr(T' M^+ T)   over symmetric M with 0 <= M <= I spectrally,
                       tr(M) <= d - 1 and Im(T) within Im(M),

which reduces, on the singular values s_1 >= ... >= s_t of T, to the
separable program

    f(s) = min sum_i s_i^2 / sigma_i   s.t. sigma_i in [0, 1],
                                            sum_i sigma_i <= d - 1.

Its solution is the water level sigma_i = clip(c s_i, 0, 1) with sum sigma
= d - 1 (``waterfill``; roundoff singular values count as zero), and f sums
s_i^2 / sigma_i over sigma_i > 0.  sqrt(f) is a unitarily invariant norm of
T; it equals the Frobenius norm whenever rank(T) <= d - 1 and grows toward a
scaled trace norm as the spectrum spreads.  The dual norm is the Euclidean
norm of the top d - 1 singular values.
"""

import numpy as np

from .geometry import clip_level


def waterfill(x, w, d):
    """sigma minimizing sum x_i^2 / (sigma_i + w) over the program's capped simplex.

    x is a singular spectrum in any order (exact zeros for null directions),
    w >= 0.  By the KKT conditions sigma_i = clip(c x_i - w, 0, 1) at the level
    c where sum sigma = d - 1, or, with fewer than d positive x_i, 1 on them
    and 0 elsewhere.
    """
    if d < 2:
        raise ValueError(f"cluster budget d must be at least 2, got {d}")
    x = np.asarray(x, dtype=float).ravel()
    if (x < -1e-12).any():
        raise ValueError("singular spectrum must be nonnegative")
    live = x > 0.0
    if np.count_nonzero(live) < d:
        return live.astype(float)
    return (clip_level(x[live], -w, d - 1) * x - w).clip(0.0, 1.0)


def _svd(T):
    """Thin SVD of T, its roundoff singular values (numpy matrix_rank's threshold) set to 0."""
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    s[s <= s.max(initial=0.0) * max(T.shape) * np.finfo(float).eps] = 0.0
    return U, s, Vt


def cluster_norm(T, d):
    """Norm of a matrix under cluster budget d (full singular decomposition)."""
    s = _svd(np.asarray(T, dtype=float))[1]
    sigma = waterfill(s, 0.0, d)
    return float(np.sqrt(np.sum(s[sigma > 0] ** 2 / sigma[sigma > 0])))


def cluster_norm_dual(R, d):
    """Dual norm: the Euclidean norm of the top d - 1 singular values."""
    R = np.asarray(R, dtype=float)
    s = np.linalg.svd(R, compute_uv=False)
    return float(np.linalg.norm(s[: d - 1]))


def cluster_norm_dual_subgradient(R, d):
    """Unit-norm matrix S attaining <R, S> = dual norm of R.

    Built from the singular triples of R: the top d - 1 singular values,
    normalized to unit Euclidean length, are placed back on their singular
    vectors and the rest are zeroed.  Satisfies cluster_norm(S, d) = 1.
    """
    R = np.asarray(R, dtype=float)
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    top = s[: d - 1]
    scale = np.linalg.norm(top)
    if scale <= 0.0:
        raise ValueError("zero input: the subgradient direction is undefined")
    return (U[:, :top.size] * (top / scale)) @ Vt[:top.size]


def cluster_prox(Y, w, d):
    """argmin_T 0.5 ||T - Y||^2 + (w/2) norm(T)^2, and that squared norm.

    The norm is unitarily invariant, so T shares Y's singular vectors
    (Parikh & Boyd, "Proximal Algorithms", 2014, section 6.7): with
    Y = U diag(x) V', T = U diag(x sigma / (sigma + w)) V' with sigma =
    ``waterfill(x, w, d)``, and T = Y / (1 + w) if rank(Y) <= d - 1.
    """
    Y = np.asarray(Y, dtype=float)
    U, x, Vt = _svd(Y)
    if np.count_nonzero(x) < d:
        return Y / (1.0 + w), float(np.sum(x * x)) / (1.0 + w) ** 2
    sigma = waterfill(x, w, d)
    # T's squared norm is sum t_i^2 / sigma_i with t_i = x_i sigma_i / (sigma_i + w)
    return (U * (x * sigma / (sigma + w))) @ Vt, float(np.sum(x * x * sigma / (sigma + w) ** 2))


def recover_equivalence(T, d):
    """Optimal relaxation M paired with T at the squared-norm optimum, and its eigenpairs.

    One thin SVD T = U diag(s) V' gives (M, (sigma, U)) with sigma the
    water-filled s and M = (U * sigma) @ U.T, so tr(T' M^+ T) equals the
    squared cluster norm and Im(T) lies within Im(M); if rank(T) <= d - 1, M
    is the projector onto Im(T).  For T = 0 every M is optimal; the zero
    matrix is returned, with eigenpairs None.
    """
    T = np.asarray(T, dtype=float)
    if not np.any(T):
        return np.zeros((len(T), len(T))), None
    U, s, _ = _svd(T)
    sigma = waterfill(s, 0.0, d)
    return (U * sigma) @ U.T, (sigma, U)
