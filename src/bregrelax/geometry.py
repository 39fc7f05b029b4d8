"""Relaxation sets over normalized equivalence matrices and their projections.

A hard clustering with assignment matrix Y induces the normalized
equivalence matrix M = Y (Y'Y)^+ Y', a projection whose entries are
1/(cluster size) inside clusters.  Three nested convex relaxations of the
set of such matrices are used throughout:

  ``simplex``   0 <= M <= I spectrally, tr(M) <= d, every row in the
                probability simplex.  The tightest set; target of ADMM.
  ``rowsum``    0 <= M <= I, tr(M) <= d, M 1 = 1.  Keeps only the row-sum
                part of the simplex constraints; admits a closed-form
                Euclidean projection.
  ``centered``  0 <= M <= I, tr(M) <= d - 1.  The centered problem:
                ``rowsum`` equals {H S H + 11'/t : S in centered} for the
                centering projector H = I - 11'/t.

Projections onto ``rowsum`` reduce, after centering, to projecting the
eigenvalues (numpy's ``eigh``) onto the box-capped budget set: a clipped
water level, which ``clip_level`` finds here and for the cluster norm.
"""

from dataclasses import dataclass, field

import numpy as np

RELAXATIONS = ("simplex", "rowsum", "centered")


@dataclass
class MembershipReport:
    """Outcome of a set-membership check with per-constraint violations."""

    ok: bool
    worst: float
    violations: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def check_membership(M, d, relaxation="rowsum", tol=1e-8):
    """Check membership of a symmetric matrix in one of the relaxation sets.

    Returns a MembershipReport rather than raising; ``worst`` is the largest
    constraint violation found, and ``violations`` maps constraint names to
    their magnitudes (only entries exceeding ``tol`` are recorded).
    """
    if relaxation not in RELAXATIONS:
        raise ValueError(f"unknown relaxation {relaxation!r}")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    t = M.shape[0]
    measured = {}
    measured["symmetry"] = float(np.max(np.abs(M - M.T))) if t else 0.0
    S = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(S)
    measured["eig_lower"] = float(max(0.0, -eigs.min()))
    measured["eig_upper"] = float(max(0.0, eigs.max() - 1.0))
    budget = d - 1 if relaxation == "centered" else d
    measured["trace"] = float(max(0.0, np.trace(S) - budget))
    if relaxation != "centered":
        measured["row_sums"] = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
    if relaxation == "simplex":
        measured["nonnegativity"] = float(max(0.0, -M.min()))
    worst = max(measured.values()) if measured else 0.0
    violations = {k: v for k, v in measured.items() if v > tol}
    return MembershipReport(ok=not violations, worst=worst, violations=violations)


def clip_level(slope, offset, budget):
    """The level c at which sum_i clip(slope_i c + offset_i, 0, 1) = budget, 0 < budget < t.

    Entry i rises from 0 to 1 over [-offset_i, 1 - offset_i] / slope_i (slopes
    positive; either may be a scalar), so the sum is piecewise linear between
    the 2t sorted kinks.  Bisection over them, evaluating the sum itself (a
    running slope would cancel when slopes span decades), finds the crossing
    segment in O(t log t), and c is solved from the entries rising there.
    """
    slope = np.asarray(slope, dtype=float)
    lo = -np.asarray(offset, dtype=float) / slope
    hi, t = lo + 1.0 / slope, lo.size
    if not 0 < budget < t:
        raise ValueError(f"budget must lie strictly between 0 and {t}, got {budget}")
    at = np.sort(np.concatenate([lo, hi]))
    a, b = 0, 2 * t - 1  # the sum is 0 at at[a] and t at at[b]
    while b - a > 1:
        m = (a + b) // 2
        a, b = (m, b) if (slope * (at[m] - lo)).clip(0.0, 1.0).sum() < budget else (a, m)
    rising = (lo < at[b]) & (hi >= at[b])
    if not rising.any():  # a plateau that meets the budget up to roundoff
        return at[b]
    slope = np.full(t, slope)
    c = (budget - np.count_nonzero(hi < at[b]) + slope[rising] @ lo[rising]) / slope[rising].sum()
    return min(max(c, at[a]), at[b])  # evaluation roundoff can shift the bracket by a kink


def capped_box_simplex_project(sigma, budget):
    """Project a vector onto {mu : mu_i in [0, 1], sum mu_i <= budget}.

    That is clip(sigma, 0, 1) if it meets the budget, else clip(sigma + c, 0, 1), c by clip_level.
    """
    sigma = np.asarray(sigma, dtype=float).ravel()
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    clipped = np.clip(sigma, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    return (sigma + clip_level(1.0, sigma, budget)).clip(0.0, 1.0)


def simplex_project_rows(V):
    """Row-wise simplex projection of a matrix, vectorized."""
    V = np.asarray(V, dtype=float)
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    idx = np.arange(1, V.shape[1] + 1)
    mask = U - css / idx > 0.0
    rho = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    theta = css[np.arange(V.shape[0]), rho] / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def project_rowsum(A, d):
    """Euclidean projection of a symmetric matrix onto the ``rowsum`` set.

    The input is symmetrized first (solver intermediates accumulate
    asymmetry of order machine epsilon).  After subtracting the uniform
    block 11'/t and double-centering, the problem reduces to projecting the
    eigenvalues (numpy's full ``eigh``) onto the box-capped budget set with
    budget d - 1; the one of the constant eigenvector is 0 and stays 0.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    t = A.shape[0]
    A = 0.5 * (A + A.T)
    B = A - 1.0 / t
    HB = B - B.mean(axis=0)
    HBH = HB - HB.mean(axis=1)[:, None]
    HBH = 0.5 * (HBH + HBH.T)
    eigvals, eigvecs = np.linalg.eigh(HBH)
    mu = capped_box_simplex_project(eigvals, d - 1)
    T = (eigvecs * mu) @ eigvecs.T
    return T + 1.0 / t
