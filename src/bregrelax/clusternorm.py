"""The cluster norm: the matrix norm induced by budgeted spectral relaxations.

For a cluster budget d, the squared norm of a t x n matrix T is the value of

    min tr(T' M^+ T)   over symmetric M with 0 <= M <= I spectrally,
                       tr(M) <= d - 1 and Im(T) within Im(M),

which reduces, on the singular values s_1 >= ... >= s_t of T, to the
separable program

    f(s) = min sum_i s_i^2 / sigma_i   s.t. sigma_i in [0, 1],
                                            sum_i sigma_i <= d - 1.

f has a closed water-filling solution: the top k values saturate at
sigma = 1 and the rest share the remaining budget proportionally to s_i.
sqrt(f) is a symmetric gauge of s, hence a unitarily invariant norm of T;
it equals the Frobenius norm whenever rank(T) <= d - 1 and grows toward a
scaled trace norm as the spectrum spreads.  The dual norm is the Euclidean
norm of the top d - 1 singular values.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class WaterfillCertificate:
    """Solution of the spectrum program: breakpoint, eigenvalues, value.

    ``sigma`` is the optimal eigenvalue allocation (1 on the top ``k``
    entries, proportional water-filling on the tail) and ``value`` equals
    the squared norm of any matrix with this singular spectrum.
    """

    k: int
    sigma: np.ndarray
    value: float


def spectrum_waterfill(s, d):
    """Evaluate the squared-norm program on a nonincreasing spectrum.

    Scans breakpoints k = 0 .. d-2 for the smallest k whose tail sum covers
    (d-1-k) times the next value; the scan is guaranteed to stop by
    k = d - 2.  Spectra shorter than d - 1 are zero-padded.
    """
    if d < 2:
        raise ValueError(f"cluster budget d must be at least 2, got {d}")
    s = np.asarray(s, dtype=float).ravel()
    if np.any(s < -1e-12):
        raise ValueError("singular spectrum must be nonnegative")
    s = np.maximum(s, 0.0)
    if np.any(np.diff(s) > 1e-9 * max(1.0, float(s.max(initial=0.0)))):
        raise ValueError("singular spectrum must be nonincreasing")
    if s.size < d - 1:
        s = np.concatenate([s, np.zeros(d - 1 - s.size)])
    t = s.size

    tails = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])  # tails[k] = sum s[k:]
    k = d - 2
    for cand in range(d - 1):
        if tails[cand] >= (d - 1 - cand) * s[cand]:
            k = cand
            break

    tail = tails[k]
    sigma = np.ones(t)
    if tail > 0.0:
        sigma[k:] = (d - 1 - k) * s[k:] / tail
    else:
        sigma[k:] = 0.0
    value = float(np.sum(s[:k] ** 2) + tail**2 / (d - 1 - k))
    return WaterfillCertificate(k=k, sigma=sigma, value=value)


def cluster_norm(T, d):
    """Norm of a matrix under cluster budget d (full singular decomposition)."""
    T = np.asarray(T, dtype=float)
    s = np.linalg.svd(T, compute_uv=False)
    return float(np.sqrt(max(spectrum_waterfill(s, d).value, 0.0)))


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
    r = min(d - 1, s.size)
    return (U[:, :r] * (top[:r] / scale)) @ Vt[:r]


def cluster_prox(Y, w, d):
    """argmin_T 0.5 ||T - Y||^2 + (w/2) norm(T)^2, and that squared norm.

    The norm is unitarily invariant, so T shares Y's singular vectors
    (Parikh & Boyd, "Proximal Algorithms", 2014, section 6.7): with
    Y = U diag(x) V', T = U diag(x sigma / (sigma + w)) V', where sigma
    minimizes sum x_i^2 / (sigma_i + w) over the program's capped simplex.
    Its KKT conditions give sigma_i = clip(c x_i - w, 0, 1), with c found
    by a breakpoint scan so that sum sigma = d - 1; if rank(Y) <= d - 1
    the budget does not bind, every sigma_i is 1 and T = Y / (1 + w).
    """
    Y = np.asarray(Y, dtype=float)
    U, x, Vt = np.linalg.svd(Y, full_matrices=False)
    if np.count_nonzero(x > x.max(initial=0.0) * max(Y.shape) * np.finfo(float).eps) < d:
        return Y / (1.0 + w), float(np.sum(x * x)) / (1.0 + w) ** 2
    # sum sigma is piecewise linear in c, bending where an entry leaves 0 or reaches 1
    kinks = np.sort(np.concatenate([w / x[x > 0], (1.0 + w) / x[x > 0]]))
    mass = np.clip(np.outer(kinks, x) - w, 0.0, 1.0).sum(axis=1)
    j = int(np.searchsorted(mass, d - 1))  # mass[j - 1] < d - 1 <= mass[j]
    c = kinks[j - 1] + (d - 1 - mass[j - 1]) * (kinks[j] - kinks[j - 1]) / (mass[j] - mass[j - 1])
    sigma = np.clip(c * x - w, 0.0, 1.0)
    # T's squared norm is sum t_i^2 / sigma_i with t_i = x_i sigma_i / (sigma_i + w)
    return (U * (x * sigma / (sigma + w))) @ Vt, float(np.sum(x * x * sigma / (sigma + w) ** 2))


def recover_equivalence(T, d):
    """Optimal relaxation M paired with T at the squared-norm optimum, and its eigenpairs.

    One thin SVD T = U diag(s) V' gives (M, (sigma, U)) with sigma the
    water-filled s and M = (U * sigma) @ U.T, so tr(T' M^+ T) equals the
    squared cluster norm and Im(T) lies within Im(M).  For T = 0 every M is
    optimal; the zero matrix is returned, with eigenpairs None.
    """
    T = np.asarray(T, dtype=float)
    if not np.any(T):
        return np.zeros((len(T), len(T))), None
    U, s, _ = np.linalg.svd(T, full_matrices=False)
    sigma = spectrum_waterfill(s, d).sigma[: s.size]
    return (U * sigma) @ U.T, (sigma, U)
