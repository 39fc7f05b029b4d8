"""Separable Bregman divergence families and their row-wise matrix forms.

A family is defined by a strictly convex potential F applied coordinate-wise.
Its gradient f (the transfer) maps mean parameters to natural parameters,
f_inv = grad of the convex conjugate maps back, and the two divergences

    primal:  D_F(x, y)  = sum_j F(x_j) - F(y_j) - (x_j - y_j) f(y_j)
    dual:    D_F*(a, b) = sum_j F*(a_j) - F*(b_j) - (a_j - b_j) f_inv(b_j)

satisfy D_F(x, y) = D_F*(f(y), f(x)).  Two families ship: ``euclidean``
(F = x^2/2, transfer = identity) and ``bernoulli`` (F = x log x +
(1-x) log(1-x), transfer = logit, conjugate = softplus).
"""

import numpy as np

# Inputs in [BERNOULLI_CLIP, 1 - BERNOULLI_CLIP] are clamped; outside is an error.
BERNOULLI_CLIP = 1e-12


class DomainError(ValueError):
    """Raised when an argument leaves a family's open domain."""

    def __init__(self, family, index, value):
        self.family = family
        self.index = index
        self.value = value
        super().__init__(
            f"{family} domain violation at flat index {index}: value {value!r}"
        )


class DivergenceFamily:
    """Base class; subclasses supply the potential, transfer and conjugate."""

    name = None

    def check_domain(self, x):
        """Validate and return ``x`` as a float array inside the open domain."""
        raise NotImplementedError

    def potential(self, x):
        raise NotImplementedError

    def transfer(self, x):
        raise NotImplementedError

    def inverse_transfer(self, z):
        raise NotImplementedError

    def conjugate(self, z):
        raise NotImplementedError

    def transfer_derivative(self, x):
        """f'(x) = F''(x), used by second-argument gradients of D_F."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class EuclideanFamily(DivergenceFamily):
    """F(x) = x^2 / 2 on all of R; self-conjugate, transfer is the identity."""

    name = "euclidean"

    def check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            idx = int(np.flatnonzero(~np.isfinite(x.ravel()))[0])
            raise DomainError(self.name, idx, x.ravel()[idx])
        return x

    def potential(self, x):
        return 0.5 * np.square(x)

    def transfer(self, x):
        return np.asarray(x, dtype=float)

    def inverse_transfer(self, z):
        return np.asarray(z, dtype=float)

    def conjugate(self, z):
        return 0.5 * np.square(z)

    def transfer_derivative(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


class BernoulliFamily(DivergenceFamily):
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
        return np.clip(x, BERNOULLI_CLIP, 1.0 - BERNOULLI_CLIP)

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


_FAMILIES = {f.name: f for f in (EuclideanFamily(), BernoulliFamily())}


def family(name):
    """Look up a divergence family by id (``euclidean`` or ``bernoulli``).

    Passing a family instance through is allowed, so call sites can accept
    either form.
    """
    if isinstance(name, DivergenceFamily):
        return name
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown divergence family {name!r}; known: {sorted(_FAMILIES)}"
        ) from None


def divergence(fam, x, y):
    """Primal divergence D_F(x, y), summed over all entries of equal-shape arrays.

    For matrices this is the sum of D_F over paired rows.
    """
    fam = family(fam)
    x = fam.check_domain(x)
    y = fam.check_domain(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    val = np.sum(fam.potential(x) - fam.potential(y) - (x - y) * fam.transfer(y))
    return max(float(val), 0.0)


def conjugate_divergence(fam, A, B):
    """Row-wise dual divergence D_F*(A, B); dual arguments are unconstrained."""
    fam = family(fam)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    val = np.sum(
        fam.conjugate(A) - fam.conjugate(B) - (A - B) * fam.inverse_transfer(B)
    )
    return max(float(val), 0.0)


def pairwise_divergence(fam, X, C):
    """Matrix of D_F(X[i], C[j]) for all data rows i and center rows j.

    Used by the alternating baselines and posterior computations; returns a
    (t, k) array for X of shape (t, n) and C of shape (k, n).
    """
    fam = family(fam)
    X = fam.check_domain(X)
    C = fam.check_domain(C)
    if X.ndim != 2 or C.ndim != 2 or X.shape[1] != C.shape[1]:
        raise ValueError(f"incompatible shapes: {X.shape} vs {C.shape}")
    fx = np.sum(fam.potential(X), axis=1)  # (t,)
    fc = np.sum(fam.potential(C), axis=1)  # (k,)
    tc = fam.transfer(C)  # (k, n)
    # D[i, j] = fx[i] - fc[j] - <X[i] - C[j], f(C[j])>
    cross = X @ tc.T  # (t, k)
    own = np.sum(C * tc, axis=1)  # (k,)
    D = fx[:, None] - fc[None, :] - cross + own[None, :]
    return np.maximum(D, 0.0)


def logsumexp_value_grad(w):
    """Stabilized log-sum-exp of a vector and its gradient (the softmax).

    The gradient entries are positive and sum to 1.
    """
    w = np.asarray(w, dtype=float)
    m = np.max(w)
    e = np.exp(w - m)
    z = np.sum(e)
    return float(m + np.log(z)), e / z
