"""Clustering models: convex relaxations and classical baselines.

Four relaxations minimize a smooth conjugate-space loss plus a squared
cluster-norm penalty (``cond-jc``: the primal divergence over the
relaxation set) and recover a relaxed equivalence matrix for rounding.  A
penalized model's loss builder (``_cond_problem``, ``_disc_problem``,
``_joint_problem``) returns a SmoothProblem for ``_penalized_solution``.

* ``cond-jc``  -- jointly convex conditional model, solved by ADMM.
* ``cond``     -- conditional model in conjugate coordinates, solved by
                  accelerated proximal gradient (``prox_minimize``).
* ``disc``     -- discriminative self-classification model (sigmoid data
                  only), generalized conditional gradient (GCG) over the
                  classifier matrix with the bias vector minimized out:
                  GCG's segment holds the bias fixed, where each proximal
                  probe would need a full bias solve.
* ``joint``    -- joint model with a relaxed log-prior block stacked next
                  to the conjugate responsibilities, by ``prox_minimize``.

Baselines: ``alt-hard`` (alternating hard clustering, ``rounding.lloyd``)
and ``soft-em`` (mixture EM) each run all their restarts as one stack of
cluster-major (R, d, t) arrays.  ``cond_objective`` scores one labeling or
a stack of them.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clusternorm import recover_equivalence
from .divergences import (conjugate_divergence, family, pairwise_cost, pairwise_divergence,
                          softmax_rows)
from .rounding import cluster_means, lloyd
from .solvers import (SmoothProblem, SolverDivergence, admm_solve, gcg_minimize, prox_minimize,
                      smooth_minimize)

MODELS = ("cond-jc", "cond", "disc", "joint", "alt-hard", "soft-em")
RELAXATION_MODELS = ("cond-jc", "cond", "disc", "joint")

# The bias solves of ``disc`` run to this gradient norm whatever the outer
# tolerance: line searches cannot certify gradient norms much below
# sqrt(eps * |f|), about 1e-8 at the log t scale of this loss.
BIAS_TOL = 1e-8
BIAS_MAX_ITER = 1000


def derived_rng(seed, *key):
    """Deterministic child generator for (seed, key path)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class ModelConfig:
    """Knobs shared by every model; unused ones are simply ignored.

    ``alpha`` weighs the cluster-norm penalty of ``cond``, ``gamma`` the
    one of ``disc``; ``joint`` uses ``alpha`` for the responsibility block
    and ``beta`` for the prior block.
    """

    d: int
    family: str = "euclidean"
    alpha: float = 1e-5
    beta: float = 1e-5
    gamma: float = 1e-6
    tol: float = 1e-6
    admm_tol: float = 1e-5
    max_iter: int = 1000
    restarts: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"need at least 2 clusters, got d={self.d}")
        for name in ("alpha", "beta", "gamma", "tol", "admm_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        family(self.family)  # raises on unknown names


@dataclass
class RelaxationSolution:
    """A solved relaxation.  ``eigenpairs`` is (values, vectors) with M =
    (vectors * values) @ vectors.T bit for bit (from T's thin SVD), None
    for ``cond-jc`` and for T = 0."""

    model: str
    M: np.ndarray
    objective: float
    converged: bool
    iterations: int
    trace: list = field(default_factory=list)
    auxiliaries: dict = field(default_factory=dict)
    eigenpairs: Optional[tuple] = None


def cond_objective(X, labels, fam="euclidean"):
    """sum_i D_F(x_i, mean of x_i's cluster) for a hard clustering.

    One labeling (t,) gives a float, a stack (R, t) an array of R values.
    Each labeling is fitted with its own cluster count, as alone, in one
    ``pairwise_divergence`` call per distinct count.  Reads Lloyd's cost
    matrix at the labels, so a ``hard_reopt`` objective equals it bit for bit.
    """
    fam = family(fam)
    X = fam.check_domain(X)
    labels = np.asarray(labels).astype(int)
    t = X.shape[0]
    if labels.ndim not in (1, 2) or labels.shape[-1] != t or labels.min() < 0:
        raise ValueError(f"need {t} nonnegative labels, one per point")
    stack = labels.reshape(-1, t)
    top = stack.max(axis=1)
    values = np.empty(len(stack))
    for d in np.unique(top):
        rows = stack[top == d]
        cost = pairwise_divergence(fam, X, cluster_means(X, rows, d + 1)[0])
        values[top == d] = cost[np.arange(len(rows))[:, None], np.arange(t), rows].sum(axis=1)
    return float(values[0]) if labels.ndim == 1 else values


def solve_cond_jc(X, config):
    """Jointly convex conditional relaxation, solved by ADMM."""
    res = admm_solve(X, config.d, fam=config.family, tol=config.admm_tol, max_iter=config.max_iter)
    return RelaxationSolution(
        model="cond-jc",
        M=res.M,
        objective=res.objective,
        converged=res.converged,
        iterations=res.iterations,
        trace=res.trace,
        auxiliaries={"Z": res.Z, "multiplier": res.multiplier},
    )


def _cond_problem(X, fam):
    """The loss D_F*(T, f(X)) of ``cond`` as a SmoothProblem.

    Its gradient is f_inv(T) - X; its curvature is at most 1 for euclidean
    (where one prox step at X is exact) and 1/4 for bernoulli.
    """
    FX = fam.transfer(X)

    def value_and_grad(T):
        return conjugate_divergence(fam, T, FX), fam.inverse_transfer(T) - X

    return SmoothProblem(shape=X.shape, value_and_grad=value_and_grad)


def _penalized_solution(model, minimize, loss, weight, config, blocks):
    """Minimize ``loss`` plus (weight/2) * cluster norm^2 and package it.

    ``minimize`` is ``prox_minimize`` or ``gcg_minimize``; ``blocks(T)``
    names the parts of the final iterate that go into ``auxiliaries``,
    ahead of its cluster norm and the final gap.
    """
    res = minimize(loss, weight, config.d, tol=config.tol, max_iter=config.max_iter)
    M, eigenpairs = recover_equivalence(res.T, config.d)
    return RelaxationSolution(model=model, M=M, objective=res.objective, converged=res.converged,
                              iterations=res.iterations, trace=res.trace, eigenpairs=eigenpairs,
                              auxiliaries={**blocks(res.T), "norm": res.norm, "gap": res.gap})


def solve_cond(X, config):
    """Conditional relaxation in conjugate coordinates, solved by ``prox_minimize``.

    Loss D_F*(T, f(X)) (``_cond_problem``); the cluster norm of T is
    penalized with weight alpha.
    """
    fam = family(config.family)
    loss = _cond_problem(fam.check_domain(X), fam)
    return _penalized_solution("cond", prox_minimize, loss, config.alpha, config,
                               lambda T: {"T": T})


def _disc_terms(Z0, tau):
    """The self-classification loss at scores Z = Z0 + 1 tau'.

    Returns (value, P): the value (sum_i lse(Z_i) - tr Z0 - sum tau) / t
    and the row softmax P of Z, both from ``softmax_rows``.  Its gradient
    in tau is (P.sum(0) - 1) / t.
    """
    lse, P = softmax_rows(Z0 + tau[None, :])
    return (lse.sum() - np.trace(Z0) - tau.sum()) / Z0.shape[0], P


def _disc_problem(X):
    """The self-classification loss of ``disc``, bias minimized out.

    For a classifier matrix V (one linear scorer per point) the score
    matrix is Z = X V' / t + 1 tau'; the loss is the mean of
    [lse(Z_i) - Z_ii].  Evaluation minimizes over tau with a warm
    started smooth solve to gradient norm ``BIAS_TOL`` (at most
    ``BIAS_MAX_ITER`` iterations), so gradients in V are envelope
    gradients.  The segment holds the bias of its iterate fixed, which
    majorizes the envelope (see ``segment``).  Returns the SmoothProblem
    and the bias array ``tau``, which each ``value_and_grad`` call
    overwrites with its solved bias (the warm start of the next solve).
    """
    t = X.shape[0]
    tau = np.zeros(t)

    def solve_tau(Z0):
        def vg(s):
            value, P = _disc_terms(Z0, s)
            return value, (P.sum(axis=0) - 1.0) / t

        prob = SmoothProblem(shape=(t,), value_and_grad=vg, x0=tau)
        res = smooth_minimize(prob, tol=BIAS_TOL, max_iter=BIAS_MAX_ITER)
        if not res.converged:
            raise SolverDivergence(f"bias solve stalled at gradient norm {res.grad_norm:.3e}")
        return res

    def value_and_grad(V):
        Z0 = X @ V.T / t
        res = solve_tau(Z0)
        tau[:] = res.x
        _, P = _disc_terms(Z0, tau)
        return res.objective, (P - np.eye(t)).T @ X / t**2

    def segment(V, S):
        """The fixed-bias loss along a*V + b*S, a majorizer of the envelope.

        The bias is solved once, at V: in GCG's call order that is the
        bias ``value_and_grad(V)`` just solved, so the solve returns at its
        first gradient check.  Minimizing the bias out can only lower the
        loss, so the fixed-bias loss bounds the envelope from above, and it
        touches it with the same gradient at (1, 0).  Its value, gradient
        and curvature (1/t) sum_i Cov_{P_i}(A_i, B_i) along the score
        directions A = X V' / t and B = X S' / t are exact.
        """
        A = X @ V.T / t
        B = X @ S.T / t
        fixed = solve_tau(A).x

        def phi(a, b):
            value, P = _disc_terms(a * A + b * B, fixed)
            R, wA = (P - np.eye(t)) / t, P / t * A
            g = np.array([np.vdot(R, A), np.vdot(R, B)])
            ab = np.vdot(wA, B)
            H = np.array([[np.vdot(wA, A), ab], [ab, np.vdot(P / t * B, B)]])
            m = np.stack([np.sum(P * A, axis=1), np.sum(P * B, axis=1)])
            return value, g, H - m @ m.T / t

        return phi

    return SmoothProblem(shape=X.shape, value_and_grad=value_and_grad, segment=segment), tau


def solve_disc(X, config):
    """Discriminative relaxation, solved by GCG with the bias solved out.

    The bias is solved at each iterate and held fixed along its line
    search, so each GCG iteration makes two bias solves, the second of
    which returns at once.  They run to gradient norm ``BIAS_TOL`` (within
    ``BIAS_MAX_ITER`` iterations) whatever ``config.tol`` is, and they need
    bounded features: on unbounded ones (raw gaussian data, say) a bias
    solve can stall and raise SolverDivergence.  That is why ExperimentSpec
    pairs ``disc`` with the sigmoid transfer.
    """
    loss, tau = _disc_problem(np.asarray(X, dtype=float))
    return _penalized_solution("disc", gcg_minimize, loss, config.gamma, config,
                               lambda V: {"V": V, "tau": tau.copy()})


def _joint_terms(fam, u, T, X, FX):
    """(value, grad_u, grad_T) of the joint loss lse(u/t) - mean(u) + D_F*(T, f(X)) / t,
    given FX = f(X)."""
    t = X.shape[0]
    (lse,), (sm,) = softmax_rows((u / t)[None, :])
    val = lse - float(np.mean(u)) + conjugate_divergence(fam, T, FX) / t
    return val, (sm - 1.0) / t, (fam.inverse_transfer(T) - X) / t


def _joint_problem(X, fam, ra, rb):
    """The joint loss over the stacked W = [rb u, ra T] as a SmoothProblem,
    evaluated by ``_joint_terms`` with the precomputed f(X)."""
    FX = fam.transfer(X)

    def value_and_grad(W):
        val, gu, gT = _joint_terms(fam, W[:, 0] / rb, W[:, 1:] / ra, X, FX)
        return val, np.column_stack([gu / rb, gT / ra])

    return SmoothProblem(shape=(X.shape[0], X.shape[1] + 1), value_and_grad=value_and_grad)


def solve_joint(X, config):
    """Joint relaxation over the stacked variable [sqrt(beta) u, sqrt(alpha) T].

    The stacking folds the two penalty weights into a single unit-weight
    cluster-norm penalty on W, so ``prox_minimize`` runs with weight 1.
    """
    fam = family(config.family)
    ra = np.sqrt(config.alpha)
    rb = np.sqrt(config.beta)
    loss = _joint_problem(fam.check_domain(X), fam, ra, rb)
    return _penalized_solution("joint", prox_minimize, loss, 1.0, config,
                               lambda W: {"u": W[:, 0] / rb, "T": W[:, 1:] / ra, "W": W})


def solve_relaxation(model, X, config):
    solvers = {
        "cond-jc": solve_cond_jc,
        "cond": solve_cond,
        "disc": solve_disc,
        "joint": solve_joint,
    }
    if model not in solvers:
        raise ValueError(f"unknown relaxation model {model!r}; pick from {RELAXATION_MODELS}")
    return solvers[model](X, config)


def alternating_restarts(X, config):
    """One hard alternating run per restart from random labels, as one ``lloyd`` stack."""
    t = len(X)
    starts = [derived_rng(config.seed, 0, r).integers(0, config.d, size=t)
              for r in range(config.restarts)]
    return lloyd(X, starts, config.family, d=config.d)


def alternating_hard(X, config):
    """Bregman k-means with random restarts; returns the best fixed point."""
    results = alternating_restarts(X, config)
    return results[int(np.argmin([r.objective for r in results]))]


@dataclass
class SoftEmResult:
    posteriors: np.ndarray
    weights: np.ndarray
    centers: np.ndarray
    loglik: float
    iterations: int
    trace: list = field(default_factory=list)


def _mixture_em(X, d, fam, rngs, max_iter=300, tol=1e-9):
    """EM from d random data rows per generator, the runs as one stack.

    Each sweep evaluates every live run's cost in one ``pairwise_cost``
    call and its E-step in one ``softmax_rows`` call over the d axis of
    the cluster-major (R, d, t) scores; a run leaves the stack at its own
    tolerance stop or at ``max_iter`` (at least 1), before its M-step, so
    its posteriors belong to its weights and centers.  The M-step's BLAS
    call and the mass (a cumsum over t) add in a lone row-major run's
    order; its E-step does too for d < 8 (see ``softmax_rows``).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    fam = family(fam)
    X = fam.check_domain(X)
    cost = pairwise_cost(fam, X)
    t = X.shape[0]
    centers = np.stack([X[rng.choice(t, size=d, replace=False)] for rng in rngs])
    logq = np.full((len(rngs), d), -np.log(d))
    prev = np.full(len(rngs), -np.inf)
    live = np.arange(len(rngs))
    traces = [[] for _ in live]
    results = [None] * len(traces)
    for iteration in range(1, max_iter + 1):
        lse, P = softmax_rows(logq[live, :, None] - cost(centers[live]), axis=1)  # P: (R, d, t)
        ll = lse.sum(axis=1)
        for r, value in zip(live, ll.tolist()):
            traces[r].append(value)
        stop = (ll - prev[live] < tol * (1.0 + np.abs(ll))) & (iteration > 1)
        stop |= iteration == max_iter
        go, rows = live[~stop], np.ascontiguousarray(np.swapaxes(P, 1, 2))  # (R, t, d)
        prev[go] = ll[~stop]
        mass = np.cumsum(P, axis=2)[~stop, :, -1]
        logq[go] = np.log(np.maximum(mass, 1e-300)) - np.log(t)
        nz = mass > 1e-12
        moved = centers[go]
        moved[nz] = np.matmul(np.swapaxes(rows, 1, 2), X)[~stop][nz] / mass[nz][:, None]
        centers[go] = moved
        for i in np.flatnonzero(stop):
            r = live[i]
            results[r] = SoftEmResult(rows[i], np.exp(logq[r]), centers[r], traces[r][-1],
                                      iteration, traces[r])
        live = live[~stop]
        if not live.size:
            return results


def soft_em_restarts(X, config):
    """Mixture EM from each restart's derived generator, as one stack.

    The per-point log-likelihood uses cluster weights q and the divergence
    as the exponential-family log-density up to a carrier term, so each
    restart's trace is nondecreasing.
    """
    rngs = [derived_rng(config.seed, 1, r) for r in range(config.restarts)]
    return _mixture_em(X, config.d, config.family, rngs)
