"""Separable Bregman divergence families and their row-wise matrix forms.

A family is defined by a strictly convex potential F applied coordinate-wise.
Its gradient f (the transfer) maps mean parameters to natural parameters,
f_inv = grad of the convex conjugate maps back, and the two divergences

    primal:  D_F(x, y)  = sum_j F(x_j) - F(y_j) - (x_j - y_j) f(y_j)
    dual:    D_F*(a, b) = sum_j F*(a_j) - F*(b_j) - (a_j - b_j) f_inv(b_j)

satisfy D_F(x, y) = D_F*(f(y), f(x)).  Two families ship: ``euclidean``
(F = x^2/2, transfer = identity) and ``bernoulli`` (F = x log x +
(1-x) log(1-x), transfer = logit, conjugate = softplus).  The primal
divergence of paired rows (``row_divergence``) and the summed dual one
(``conjugate_divergence``) share one entrywise kernel; ``pairwise_cost``
expands it for every pair of rows, cluster-major (see there).  No other
module evaluates a divergence or knows a family's domain (k-means++ seeding
too calls these).  ``softmax_rows`` is the one log-space normalization.
"""

import numpy as np

# Inputs in [BERNOULLI_CLIP, 1 - BERNOULLI_CLIP] are clamped; outside is an error.
BERNOULLI_CLIP = 1e-12


class DomainError(ValueError):
    """Raised when an argument leaves a family's open domain."""

    def __init__(self, family, index, value):
        super().__init__(
            f"{family} domain violation at flat index {index}: value {value!r}"
        )


class EuclideanFamily:
    """F(x) = x^2 / 2 on all of R; self-conjugate, transfer is the identity.

    Each family gives ``check_domain`` (validate into the open domain),
    ``clamp`` (pull a computed mean such as M X back into it), F, f, f_inv,
    F*, ``transfer_derivative`` f' = F'' and ``curvature(x, y)``, the
    second derivative of D_F(x, y) in y.
    """

    name = "euclidean"

    def check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            idx = int(np.flatnonzero(~np.isfinite(x.ravel()))[0])
            raise DomainError(self.name, idx, x.ravel()[idx])
        return x

    def clamp(self, y):
        return y

    def potential(self, x):
        return 0.5 * np.square(x)

    def transfer(self, x):
        return np.asarray(x, dtype=float)

    conjugate = potential
    inverse_transfer = transfer

    def transfer_derivative(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def curvature(self, x, y):
        return np.ones_like(np.asarray(y, dtype=float))


class BernoulliFamily:
    """F(x) = x log x + (1-x) log(1-x) on (0, 1).

    The transfer is the logit, its inverse the sigmoid, and the conjugate
    the softplus; the primal divergence is the Bernoulli KL.
    """

    name = "bernoulli"

    def check_domain(self, x):
        x = np.asarray(x, dtype=float)
        bad = ~np.isfinite(x) | (x < 0.0) | (x > 1.0)
        if np.any(bad):
            idx = int(np.flatnonzero(bad.ravel())[0])
            raise DomainError(self.name, idx, x.ravel()[idx])
        return self.clamp(x)

    def clamp(self, y):
        # on 0/1 data, projection roundoff pushes M X past 1; log1p(-y) needs y < 1
        return np.clip(y, BERNOULLI_CLIP, 1.0 - BERNOULLI_CLIP)

    def potential(self, x):
        return x * np.log(x) + (1.0 - x) * np.log1p(-x)

    def transfer(self, x):
        return np.log(x) - np.log1p(-x)

    def inverse_transfer(self, z):
        z = np.asarray(z, dtype=float)
        # sigmoid without overflow: exp only ever sees non-positive arguments
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def conjugate(self, z):
        # softplus log(1 + e^z) = max(z, 0) + log1p(exp(-|z|))
        z = np.asarray(z, dtype=float)
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    def transfer_derivative(self, x):
        return 1.0 / (x * (1.0 - x))

    def curvature(self, x, y):
        return x / (y * y) + (1.0 - x) / ((1.0 - y) * (1.0 - y))


_FAMILIES = {f.name: f for f in (EuclideanFamily(), BernoulliFamily())}


def family(name):
    """Look up a divergence family by id (``euclidean`` or ``bernoulli``).

    Passing a family instance through is allowed, so call sites can accept
    either form.
    """
    if isinstance(name, (EuclideanFamily, BernoulliFamily)):
        return name
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown divergence family {name!r}; known: {sorted(_FAMILIES)}"
        ) from None


def _bregman_terms(G, g, a, b):
    """Entrywise G(a) - G(b) - (a - b) g(b): the one Bregman kernel."""
    return G(a) - G(b) - (a - b) * g(b)


def row_divergence(fam, X, Y):
    """Per-row D_F(X_i, Y_i) of in-domain arrays, without revalidation (hot path)."""
    return np.sum(_bregman_terms(fam.potential, fam.transfer, X, Y), axis=1)


def conjugate_divergence(fam, A, B):
    """Row-wise dual divergence D_F*(A, B); dual arguments are unconstrained."""
    fam = family(fam)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    val = np.sum(_bregman_terms(fam.conjugate, fam.inverse_transfer, A, B))
    return max(float(val), 0.0)


def pairwise_cost(fam, X):
    """The cost C -> matrix of D_F(X[i], C[j]) over center rows j, data rows i.

    Validates X, sums its potential and makes a contiguous X' once, so Lloyd
    and EM build it once per dataset; each call validates C and does only
    the work that depends on the centers.  For X (t, n) the cost of C (k, n)
    is (k, t), of a stack C (R, k, n) the C-ordered (R, k, t): cluster-major,
    so each sweep's elementwise work and reductions run over the t points,
    not the k = 2 or 3 clusters.  The cross term is one (k, n)(n, t) product
    f(C) X' per set: a stacked matmul makes each with the call that set
    makes alone, so each matrix is its own bit for bit (one GEMM over all
    sets picks another BLAS kernel and rounds differently).
    """
    fam = family(fam)
    X = fam.check_domain(X)
    if X.ndim != 2:
        raise ValueError(f"data must be a 2-d array, got shape {X.shape}")
    fx = np.sum(fam.potential(X), axis=1)  # (t,)
    Xt = np.ascontiguousarray(X.T)  # (n, t)

    def cost(C):
        C = fam.check_domain(C)
        if C.ndim not in (2, 3) or C.shape[-1] != X.shape[1]:
            raise ValueError(f"incompatible shapes: {X.shape} vs {C.shape}")
        fc = np.sum(fam.potential(C), axis=-1)[..., None]  # (R, k, 1)
        tc = fam.transfer(C)  # (R, k, n)
        D = fx - fc  # D[r, j, i] = fx[i] - fc[r, j] - <X[i] - C[r, j], f(C[r, j])>
        D -= np.matmul(tc, Xt)  # (k, t) products
        D += np.sum(C * tc, axis=-1)[..., None]
        return np.maximum(D, 0.0, out=D)

    return cost


def pairwise_divergence(fam, X, C):
    """Matrix of D_F(X[i], C[j]): ``pairwise_cost(fam, X)(C)`` as a C-ordered (t, k).

    The cost of ``cond_objective`` and of the scorer's posteriors.
    """
    return np.ascontiguousarray(np.swapaxes(pairwise_cost(fam, X)(C), -1, -2))


def softmax_rows(S, axis=-1):
    """Log-sum-exps and softmax of a real array along ``axis``: (lse, P).

    With a the max, e = exp(S - a) and s its sum, lse = log(s) + a and P =
    e / s (scipy's ``softmax``), the gradient of lse.  Summed over a middle
    axis, as EM's (R, k, t), s adds the k slices in order: a row's bits for
    k < 8, where numpy sums rows sequentially, but not above, where it sums
    them pairwise.  A max that is not finite does not shift, so its lse is
    scipy's -inf, inf or nan.
    """
    S = np.asarray(S, dtype=float)
    a = S.max(axis=axis, keepdims=True)
    a[~np.isfinite(a)] = 0.0
    e = S - a
    s = np.sum(np.exp(e, out=e), axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.squeeze(np.log(s) + a, axis=axis), np.divide(e, s, out=e)
