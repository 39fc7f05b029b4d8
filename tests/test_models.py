import itertools

import numpy as np
import pytest

from bregrelax import (
    MODELS,
    ModelConfig,
    check_membership,
    cluster_norm,
    cond_objective,
    conjugate_divergence,
    derived_rng,
    family,
    gcg_minimize,
    hard_reopt,
    joint_hard_reopt,
    matched_accuracy,
    pairwise_divergence,
    rowwise_objective,
    solve_cond,
    solve_cond_jc,
    solve_disc,
    solve_joint,
    solve_relaxation,
    spectral_embedding,
    spectral_round,
)
from bregrelax import bench, models
from bregrelax.divergences import softmax_rows
from bregrelax.models import (
    _disc_problem,
    _disc_terms,
    _joint_problem,
    _joint_terms,
    _mixture_em,
    alternating_hard,
    alternating_restarts,
    soft_em_restarts,
)

from conftest import (
    disc_terms_reference,
    em_reference,
    equivalence_from_assignment,
    exhaustive_hard_optimum,
    finite_difference_gradient,
    indicator,
    lloyd_reference,
    planted_bernoulli,
    planted_euclidean,
    quadratic_loss,
)
from test_perfbench_targets import workloads  # noqa: F401  (fixture)


def small_config(**kw):
    defaults = dict(d=2, tol=1e-8, max_iter=2000, restarts=8, seed=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


# ---------------------------------------------------------------- configs


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d=1)
    with pytest.raises(ValueError):
        ModelConfig(d=2, alpha=0.0)
    with pytest.raises(ValueError):
        ModelConfig(d=2, family="cauchy")


def test_config_rejects_a_negative_max_iter():
    # every solver would return its start point; 0 stays legal
    with pytest.raises(ValueError, match="max_iter must be nonnegative, got -3"):
        ModelConfig(d=2, max_iter=-3)
    assert ModelConfig(d=2, max_iter=0).max_iter == 0


def test_config_rejects_restarts_below_one(rng):
    with pytest.raises(ValueError, match="restarts"):
        alternating_hard(rng.normal(size=(6, 2)), ModelConfig(d=2, restarts=0))


def test_solve_relaxation_rejects_unknown_model(rng):
    X = rng.normal(size=(4, 2))
    with pytest.raises(ValueError, match="unknown relaxation model"):
        solve_relaxation("kmeans", X, small_config())


@pytest.mark.parametrize("model, blocks", [
    ("cond", ["T"]),
    ("disc", ["V", "tau"]),
    ("joint", ["u", "T", "W"]),
])
def test_gcg_models_capped_at_zero_iterations_return_zero_M(rng, model, blocks):
    # T stays 0 when no solver step runs; M is then the zero matrix, not an error
    sol = solve_relaxation(model, rng.normal(size=(6, 3)), small_config(max_iter=0))
    assert np.array_equal(sol.M, np.zeros((6, 6)))
    assert not sol.converged and sol.iterations == 0
    assert list(sol.auxiliaries) == blocks + ["norm", "gap"]
    assert sol.eigenpairs is None  # the zero matrix has no factor


# every penalized model under each family it allows (disc reads bounded features)
GCG_CELLS = [("cond", "euclidean"), ("cond", "bernoulli"), ("disc", "bernoulli"),
             ("joint", "euclidean"), ("joint", "bernoulli")]


def planted_solution(model, fam, t=18, d=3):
    """(X, truth, config, solution) of ``model`` on planted data of ``fam``."""
    planted = planted_euclidean if fam == "euclidean" else planted_bernoulli
    X, truth = planted(t, d, np.random.default_rng(23))
    config = ModelConfig(d=d, family=fam, max_iter=3 if model == "disc" else 200)
    return X, truth, config, solve_relaxation(model, X, config)


@pytest.mark.parametrize("model, fam", GCG_CELLS)
def test_gcg_eigenpairs_rebuild_M_bit_for_bit(model, fam):
    X, _, _, sol = planted_solution(model, fam)
    vals, vecs = sol.eigenpairs
    assert np.array_equal((vecs * vals) @ vecs.T, sol.M)
    assert vecs.shape == (X.shape[0], vals.size)
    assert np.all(np.diff(vals) <= 0) and vals.min() >= 0 and vals.max() > 0
    assert np.allclose(vecs.T @ vecs, np.eye(vals.size), atol=1e-12)


@pytest.mark.parametrize("model, fam", GCG_CELLS)
def test_gcg_solution_takes_one_thin_svd_of_T(monkeypatch, model, fam):
    # once the solver (prox_minimize, or GCG for disc) returns, M and its
    # eigenpairs come from a single SVD of the final iterate
    solved, svds = [], []
    svd = np.linalg.svd

    def traced(solver):
        def run(*args, **kwargs):
            res = solver(*args, **kwargs)
            solved.append(res.T)
            return res

        return run

    def counted_svd(a, *args, **kwargs):
        if solved:
            svds.append((np.array_equal(a, solved[-1]), kwargs.get("full_matrices")))
        return svd(a, *args, **kwargs)

    for name in ("gcg_minimize", "prox_minimize"):
        monkeypatch.setattr(models, name, traced(getattr(models, name)))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    planted_solution(model, fam)
    assert len(solved) == 1 and svds == [(True, False)]


def test_cond_jc_carries_no_eigenpairs(rng):
    X, _ = planted_euclidean(12, 2, rng)
    sol = solve_relaxation("cond-jc", X, small_config(max_iter=50))
    assert sol.eigenpairs is None


@pytest.mark.parametrize("model, fam", GCG_CELLS)
def test_factor_embedding_is_the_dense_one_up_to_rotation(model, fam):
    _, _, config, sol = planted_solution(model, fam)
    d = config.d
    dense = spectral_embedding(sol.M, d)
    factor = spectral_embedding(sol.M, d, sol.eigenpairs)
    assert factor.shape == dense.shape
    # the orthogonal Q nearest to dense' factor (Procrustes) maps one onto the other
    U, _, Vt = np.linalg.svd(dense.T @ factor)
    assert np.max(np.abs(dense @ (U @ Vt) - factor)) <= 1e-10
    for seed in range(3):
        labels = [spectral_round(sol.M, d, restarts=2, rng=np.random.default_rng(seed),
                                 embedding=V).labels for V in (dense, factor)]
        assert np.array_equal(*labels)


def test_derived_rng_is_keyed():
    a = derived_rng(7, 0, 1).integers(0, 1000, size=4)
    b = derived_rng(7, 0, 1).integers(0, 1000, size=4)
    c = derived_rng(7, 0, 2).integers(0, 1000, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------- cond_objective


def test_cond_objective_singletons_zero(rng):
    X = rng.normal(size=(4, 2))
    assert cond_objective(X, [0, 1, 2, 3]) == pytest.approx(0.0, abs=1e-12)


def test_cond_objective_duplicate_pairs_zero():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 0.0], [5.0, 0.0]])
    assert cond_objective(X, [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_cond_objective_rejects_negative_or_missing_labels():
    # a label of -1 would read the last cluster's mean, and a single label
    # would broadcast to every point
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    for labels in ([0, 0, 1, -1], [0]):
        with pytest.raises(ValueError, match="nonnegative labels"):
            cond_objective(X, labels)


def test_cond_objective_scalar_split():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    assert cond_objective(X, [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)
    crossed = cond_objective(X, [0, 1, 0, 1])
    assert crossed == pytest.approx(0.5, rel=1e-12)
    # brute force over all assignments confirms both values
    best = min(
        cond_objective(X, (0,) + rest)
        for rest in itertools.product(range(2), repeat=3)
    )
    assert best == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------------- cond-jc


def test_cond_jc_duplicate_groups(rng):
    X = np.repeat(np.array([[0.0, 0.0], [4.0, 1.0]]), 3, axis=0)
    sol = solve_cond_jc(X, small_config(admm_tol=1e-7))
    assert sol.objective <= 1e-8
    M_exact = equivalence_from_assignment(indicator([0, 0, 0, 1, 1, 1], 2))
    assert np.max(np.abs(sol.M - M_exact)) <= 1e-2


def test_cond_jc_lower_bounds_hard_optimum(rng):
    X, _ = planted_euclidean(8, 2, rng)
    sol = solve_cond_jc(X, small_config(admm_tol=1e-7))
    hard_val, _ = exhaustive_hard_optimum(X, 2)
    assert sol.objective <= hard_val + 1e-6


def test_cond_jc_solution_contract(rng):
    X, _ = planted_euclidean(8, 2, rng)
    sol = solve_cond_jc(X, small_config())
    assert sol.model == "cond-jc"
    assert sol.objective == pytest.approx(
        rowwise_objective("euclidean", X, sol.M), rel=1e-10
    )
    assert check_membership(sol.M, 2, "simplex", tol=1e-3)
    assert check_membership(sol.auxiliaries["Z"], 2, "rowsum", tol=1e-7)


# ------------------------------------------------------------------ cond


def test_cond_gradient_vanishes_at_transfer(rng):
    for name in ("euclidean", "bernoulli"):
        fam = family(name)
        X = rng.uniform(0.2, 0.8, size=(5, 3))
        T = fam.transfer(X)
        val = conjugate_divergence(fam, T, fam.transfer(X))
        grad = fam.inverse_transfer(T) - X
        assert val == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) <= 1e-12


def test_cond_large_alpha_kills_T(rng):
    X, _ = planted_euclidean(6, 2, rng)
    sol = solve_cond(X, small_config(alpha=1e6))
    L0 = conjugate_divergence("euclidean", np.zeros_like(X), X)
    assert np.max(np.abs(sol.auxiliaries["T"])) <= 1e-3
    assert sol.objective == pytest.approx(L0, rel=1e-3)


def test_cond_solution_contract(rng):
    X, truth = planted_euclidean(10, 2, rng)
    sol = solve_cond(X, small_config(alpha=1e-3))
    T = sol.auxiliaries["T"]
    recomputed = conjugate_divergence("euclidean", T, X) + 0.5 * 1e-3 * cluster_norm(T, 2) ** 2
    assert sol.objective == pytest.approx(recomputed, abs=1e-8)
    assert check_membership(sol.M, 2, "centered", tol=1e-8)
    labels = spectral_round(sol.M, 2, rng=np.random.default_rng(0)).labels
    assert matched_accuracy(labels, truth) == 1.0


def test_cond_small_decrease_stop_is_not_converged():
    # GCG stops cond's euclidean loss 0.5 ||T - C||^2 on this instance by
    # its small-decrease rule, far from the gap tolerance: the stop must not
    # be reported as a certificate (cond itself runs prox_minimize, which
    # solves it in one step)
    rng = np.random.default_rng(1234)
    rng.normal(size=(6, 3))
    C = rng.normal(size=(6, 3))
    res = gcg_minimize(quadratic_loss(C), 0.3, d=2, tol=1e-6)
    assert res.iterations < 1000
    assert res.gap > 1e2 * 1e-6
    assert not res.converged


@pytest.mark.parametrize("t", [60, 150])
@pytest.mark.parametrize("model", ["cond", "joint"])
@pytest.mark.parametrize("transfer", ["linear", "sigmoid"])
def test_prox_certifies_planted_cells(workloads, model, transfer, t):
    # the sigmoid cells are the only runs of the bernoulli conjugate paths
    # (inverse_transfer, conjugate): no perfbench workload reaches them
    X = bench.preprocess(workloads.planted(workloads.stream_rng(0, 2, 0), t, 8), transfer).X
    config = ModelConfig(d=3, family=bench.transfer_family(transfer))
    sol = solve_relaxation(model, X, config)
    assert sol.converged and sol.auxiliaries["gap"] < config.tol
    assert sol.iterations <= config.max_iter


@pytest.mark.parametrize("model", ["cond-jc", "cond", "joint", "disc"])
@pytest.mark.parametrize("d, t", [(2, 16), (3, 18)])
def test_converged_means_certificate_met(model, d, t):
    # converged is the certificate and nothing else: the final GCG gap
    # below tol, or the final ADMM residuals and row defect below
    # admm_tol * sqrt(t)
    rng = np.random.default_rng(100 * d)
    if model == "disc":  # about 0.3 s per GCG iteration here
        X, _ = planted_bernoulli(t, d, rng)
        config = ModelConfig(d=d, family="bernoulli", max_iter=5)
    else:
        X, _ = planted_euclidean(t, d, rng)
        config = ModelConfig(d=d, max_iter=300)
    sol = solve_relaxation(model, X, config)
    if model == "cond-jc":
        last = sol.trace[-1]
        worst = max(last["primal"], last["dual"], last["defect"])
        certified = worst < config.admm_tol * np.sqrt(t)
    else:
        certified = sol.auxiliaries["gap"] < config.tol
    assert sol.converged == certified


# ------------------------------------------------------------------ disc


def test_disc_loss_zero_scores():
    value, P = _disc_terms(np.zeros((4, 4)), np.zeros(4))
    assert value == pytest.approx(np.log(4.0), rel=1e-12)
    assert np.allclose(P, 0.25)
    disc, tau = _disc_problem(np.zeros((4, 3)))
    val, gV = disc.value_and_grad(np.zeros((4, 3)))
    assert val == pytest.approx(np.log(4.0), rel=1e-12)
    assert gV.shape == (4, 3) and tau.shape == (4,)


def test_disc_loss_gradients_match_finite_differences(rng):
    # V: the envelope gradient GCG descends (bias minimized out);
    # tau: the gradient (P.sum(0) - 1) / t the bias solve descends
    X = rng.normal(size=(5, 3))
    V = rng.normal(size=(5, 3))
    tau = rng.normal(size=5)
    disc, _ = _disc_problem(X)
    _, gV = disc.value_and_grad(V)
    fdV = finite_difference_gradient(lambda W: disc.value_and_grad(W)[0], V)
    Z0 = X @ V.T / len(X)
    gtau = (_disc_terms(Z0, tau)[1].sum(axis=0) - 1.0) / len(X)
    fdt = finite_difference_gradient(lambda s: _disc_terms(Z0, s)[0], tau)
    assert np.max(np.abs(gV - fdV)) <= 1e-5 * (1.0 + np.max(np.abs(gV)))
    assert np.max(np.abs(gtau - fdt)) <= 1e-5 * (1.0 + np.max(np.abs(gtau)))


def test_disc_loss_single_bias_monotone():
    # pushing one bias up helps only that example's self term; the other
    # t-1 rows pay for it, so the total grows
    vals = []
    for c in (0.5, 1.5, 3.0, 6.0):
        tau = np.zeros(5)
        tau[2] = c
        vals.append(_disc_terms(np.zeros((5, 5)), tau)[0])
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solve_disc_zero_data():
    X = np.zeros((5, 3))
    sol = solve_disc(X, small_config(gamma=1e-2))
    assert not np.any(sol.auxiliaries["V"])
    tau = sol.auxiliaries["tau"]
    assert np.allclose(tau, tau.mean(), atol=1e-8)
    assert sol.objective == pytest.approx(np.log(5.0), rel=1e-10)


def test_solve_disc_planted_recovery(rng):
    X, truth = planted_bernoulli(10, 2, rng)
    # conditional gradient has a sublinear tail, so a very tight tol just
    # burns iterations; the rounding only needs the coarse geometry
    sol = solve_disc(X, small_config(gamma=1e-4, tol=1e-6))
    labels = spectral_round(sol.M, 2, rng=np.random.default_rng(0)).labels
    assert matched_accuracy(labels, truth) == 1.0
    V, tau = sol.auxiliaries["V"], sol.auxiliaries["tau"]
    recomputed = _disc_terms(X @ V.T / len(X), tau)[0] + 0.5 * 1e-4 * cluster_norm(V, 2) ** 2
    assert sol.objective == pytest.approx(recomputed, abs=1e-8)
    assert check_membership(sol.M, 2, "centered", tol=1e-8)


@pytest.mark.parametrize("t", [5, 40])
def test_disc_terms_match_the_oracle_bit_for_bit(rng, t):
    # t = 5 and 40 put the score rows on both sides of numpy's pairwise
    # summation threshold (8 entries)
    X = family("bernoulli").inverse_transfer(planted_euclidean(t, 3, rng)[0])
    for scale in (1.0, 30.0):
        V = rng.normal(scale=scale, size=X.shape)
        tau = rng.normal(size=t)
        Z0 = X @ V.T / t
        value, P = _disc_terms(Z0, tau)
        want_value, want_P = disc_terms_reference(Z0, tau)
        assert value == want_value
        assert np.array_equal(P, want_P)


# ----------------------------------------------------------------- joint


def test_joint_loss_reference_point(rng):
    X = rng.uniform(0.2, 0.8, size=(6, 3))
    fam = family("bernoulli")
    FX = fam.transfer(X)
    val, gu, gT = _joint_terms(fam, np.zeros(6), FX, X, FX)
    assert val == pytest.approx(np.log(6.0), rel=1e-12)
    assert np.max(np.abs(gT)) <= 1e-12


def test_joint_loss_gradients_match_finite_differences(rng):
    # the stacked W = [rb u, ra T] that GCG descends
    X = rng.normal(size=(5, 2))
    u = rng.normal(size=5)
    T = rng.normal(size=(5, 2))
    ra, rb = np.sqrt(0.5), np.sqrt(0.2)
    loss = _joint_problem(X, family("euclidean"), ra, rb)
    W = np.column_stack([rb * u, ra * T])
    _, G = loss.value_and_grad(W)
    fd = finite_difference_gradient(lambda V: loss.value_and_grad(V)[0], W)
    assert np.max(np.abs(G - fd)) <= 1e-5 * (1.0 + np.max(np.abs(G)))


def test_joint_loss_constant_shift_profile(rng):
    # bare loss is linear in a constant shift of u with slope 1/t - 1;
    # adding the stacked-variable norm penalty makes the 1-d profile
    # convex with an interior minimum
    X = rng.normal(size=(6, 2))
    T = X.copy()  # transfer of X under the euclidean family
    t = 6
    alpha = beta = 0.5
    cs = np.linspace(-4.0, 8.0, 49)
    bare = []
    penalized = []
    for c in cs:
        u = np.full(t, c)
        val = _joint_terms(family("euclidean"), u, T, X, X)[0]
        W = np.column_stack([np.sqrt(beta) * u, np.sqrt(alpha) * T])
        bare.append(val)
        penalized.append(val + 0.5 * cluster_norm(W, 2) ** 2)
    bare = np.array(bare)
    penalized = np.array(penalized)
    slopes = np.diff(bare) / np.diff(cs)
    assert np.allclose(slopes, 1.0 / t - 1.0, atol=1e-9)
    second = np.diff(penalized, 2)
    assert np.all(second >= -1e-9)
    k = int(np.argmin(penalized))
    assert 0 < k < len(cs) - 1


def test_solve_joint_large_beta_suppresses_prior_block(rng):
    X, _ = planted_euclidean(8, 2, rng)
    sol = solve_joint(X, small_config(alpha=1e-3, beta=1e6))
    assert np.max(np.abs(sol.auxiliaries["u"])) <= 1e-3


def test_solve_joint_planted_recovery(rng):
    X, truth = planted_euclidean(10, 2, rng)
    sol = solve_joint(X, small_config(alpha=1e-3, beta=1e-3))
    labels = spectral_round(sol.M, 2, rng=np.random.default_rng(0)).labels
    assert matched_accuracy(labels, truth) == 1.0
    u, W = sol.auxiliaries["u"], sol.auxiliaries["W"]
    T = sol.auxiliaries["T"]
    fam = family("euclidean")
    recomputed = _joint_terms(fam, u, T, X, fam.transfer(X))[0] + 0.5 * cluster_norm(W, 2) ** 2
    assert sol.objective == pytest.approx(recomputed, abs=1e-8)
    assert check_membership(sol.M, 2, "centered", tol=1e-8)


# --------------------------------------------------- disc line-search segment


def _central_segment(value_and_grad, T, S, a, b, h):
    """Value, gradient and Hessian in (a, b) of the value at a T + b S by
    central differences."""

    def f(x, y):
        return value_and_grad(x * T + y * S)[0]

    f0 = f(a, b)
    grad = np.array([f(a + h, b) - f(a - h, b), f(a, b + h) - f(a, b - h)]) / (2 * h)
    haa = (f(a + h, b) - 2 * f0 + f(a - h, b)) / h**2
    hbb = (f(a, b + h) - 2 * f0 + f(a, b - h)) / h**2
    hab = (f(a + h, b + h) - f(a + h, b - h) - f(a - h, b + h) + f(a - h, b - h)) / (4 * h**2)
    return f0, grad, np.array([[haa, hab], [hab, hbb]])


def test_disc_segment_majorizes_envelope(rng):
    # the segment holds the bias solved at V fixed: it touches the envelope
    # with the same gradient at (1, 0) and lies above it elsewhere
    X, _ = planted_bernoulli(8, 2, rng)
    disc, tau = _disc_problem(X)
    V = rng.normal(scale=20.0, size=X.shape)
    S = rng.normal(scale=20.0, size=X.shape)
    value, G = disc.value_and_grad(V)
    fixed = tau.copy()
    phi = disc.segment(V, S)
    val, grad, hess = phi(1.0, 0.0)
    assert abs(val - value) <= 1e-10
    assert np.max(np.abs(grad - [np.sum(G * V), np.sum(G * S)])) <= 1e-10
    for a, b in rng.uniform(0.0, 1.5, size=(20, 2)):
        assert phi(a, b)[0] >= disc.value_and_grad(a * V + b * S)[0] - 1e-12

    # phi is exactly the fixed-bias loss, derivatives included
    def fixed_bias(W):
        return _disc_terms(X @ W.T / len(X), fixed)[0], None

    a, b = 0.7, 0.4
    got_val, got_grad, got_hess = phi(a, b)
    want_val, want_grad, want_hess = _central_segment(fixed_bias, V, S, a, b, 1e-3)
    assert got_val == pytest.approx(want_val, rel=1e-12)
    assert np.allclose(got_grad, want_grad, rtol=1e-5, atol=1e-7)
    assert np.allclose(got_hess, got_hess.T)
    assert np.allclose(got_hess, want_hess, rtol=1e-4, atol=1e-5 * np.max(np.abs(got_hess)))
    # where the two touch, minimizing the bias out can only remove curvature
    _, _, envelope = _central_segment(disc.value_and_grad, V, S, 1.0, 0.0, 1e-3)
    gap = np.linalg.eigvalsh(hess - 0.5 * (envelope + envelope.T))
    assert gap[0] >= -1e-6 * np.max(np.abs(hess))


def test_disc_line_search_solves_no_bias_per_probe(workloads, monkeypatch):
    # perfbench's smoke instance, on which a bias solve at every line-search
    # probe stalls before iteration 100 (SolverDivergence): the segment
    # solves the bias once, next to the one solve of each new iterate
    ds = workloads.planted(workloads.stream_rng(0, 0, 0), 12, 4)
    X = bench.preprocess(ds, "sigmoid").X
    solves = []
    smooth_minimize = models.smooth_minimize

    def counted(*args, **kwargs):
        solves.append(1)
        return smooth_minimize(*args, **kwargs)

    monkeypatch.setattr(models, "smooth_minimize", counted)
    sol = solve_disc(X, ModelConfig(d=3, max_iter=100))
    assert len(solves) <= 2 * sol.iterations + 1


def test_disc_bias_solves_converge_on_a_breast_shaped_cell(workloads, monkeypatch):
    # 683 x 9 sigmoid data shaped like the breast cancer set, at d = 2:
    # BIAS_TOL sits at the roundoff floor of the bias loss, so the bias
    # solves' line search must still descend there
    ds = workloads.breast_like(workloads.stream_rng(0, 3, 0), 683, 9)
    X = bench.preprocess(ds, "sigmoid").X
    results = []
    smooth_minimize = models.smooth_minimize

    def recorded(*args, **kwargs):
        results.append(smooth_minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(models, "smooth_minimize", recorded)
    config = ModelConfig(d=2, max_iter=2)
    sol = solve_disc(X, config)  # a stalled bias solve raises SolverDivergence
    assert sol.auxiliaries["gap"] < config.tol
    assert results and all(res.converged for res in results)


# -------------------------------------------------------------- baselines


def test_alternating_duplicates_exact():
    X = np.repeat(np.array([[0.0, 0.0], [3.0, 3.0], [-2.0, 5.0]]), 2, axis=0)
    res = alternating_hard(X, small_config(d=3, restarts=10, seed=1))
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert matched_accuracy(res.labels, np.array([0, 0, 1, 1, 2, 2])) == 1.0


def test_alternating_matches_exhaustive(rng):
    X, _ = planted_euclidean(6, 2, rng)
    res = alternating_hard(X, small_config(restarts=12, seed=5))
    best, _ = exhaustive_hard_optimum(X, 2)
    assert res.objective == pytest.approx(best, rel=1e-10)


def test_alternating_is_deterministic_under_seed(rng):
    X, _ = planted_euclidean(9, 3, rng)
    cfg = small_config(d=3, restarts=5, seed=11)
    a = alternating_hard(X, cfg)
    b = alternating_hard(X, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective


def test_joint_hard_reopt_boundary_shift():
    # seven near-origin points, a boundary point at 2, a singleton at 4:
    # the prior term rewards the skewed 7-vs-1 split even though the plain
    # conditional objective prefers pairing the boundary with the singleton
    x = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 2.0, 4.0])[:, None]
    t = len(x)

    def joint_value(labels):
        val = 0.0
        for j in set(labels.tolist()):
            idx = labels == j
            c = int(idx.sum())
            mu = x[idx].mean()
            val += 0.5 * float(np.sum((x[idx] - mu) ** 2)) + c * np.log(t / c)
        return val

    best_joint = np.inf
    best_labels = None
    best_cond = np.inf
    best_cond_labels = None
    for rest in itertools.product(range(2), repeat=t - 1):
        labels = np.array((0,) + rest)
        if len(set(labels.tolist())) < 2:
            continue
        jv = joint_value(labels)
        cv = cond_objective(x, labels)
        if jv < best_joint:
            best_joint, best_labels = jv, labels
        if cv < best_cond:
            best_cond, best_cond_labels = cv, labels

    assert not np.array_equal(best_labels, best_cond_labels)  # the shift exists
    res = joint_hard_reopt(x, best_cond_labels, "euclidean", d=2)
    assert res.objective == pytest.approx(best_joint, rel=1e-10)
    assert matched_accuracy(res.labels, best_labels) == 1.0


def test_joint_hard_reopt_validates_labels():
    x = np.zeros((4, 1))
    with pytest.raises(ValueError):
        joint_hard_reopt(x, [0, 1, 2])
    with pytest.raises(ValueError):
        joint_hard_reopt(x, [-1, 0, 1, 0])


def test_soft_em_monotone_and_calibrated(rng):
    X, truth = planted_euclidean(12, 3, rng)
    runs = soft_em_restarts(X, small_config(d=3, restarts=6, seed=2))
    res = max(runs, key=lambda r: r.loglik)
    trace = np.array(res.trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert np.allclose(res.posteriors.sum(axis=1), 1.0, atol=1e-10)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-8)
    assert matched_accuracy(res.posteriors.argmax(axis=1), truth) == 1.0


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_baselines_sum_the_data_potential_once_per_call(monkeypatch, fam_name):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.05, 0.95, size=(60, 4))
    labels0 = rng.integers(0, 3, size=60)
    fam = family(fam_name)
    data_calls = []
    potential = fam.potential

    def counting(x):
        data_calls.append(np.shape(x) == X.shape)
        return potential(x)

    monkeypatch.setattr(fam, "potential", counting)
    res = hard_reopt(X, labels0, fam_name, d=3)
    assert res.iterations >= 3
    assert sum(data_calls) == 1
    data_calls.clear()
    runs = soft_em_restarts(X, ModelConfig(d=3, restarts=3, seed=4, family=fam_name))
    assert len(runs) == 3 and sum(r.iterations for r in runs) >= 6
    assert sum(data_calls) == 1


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_em_matches_the_per_sweep_oracle_bit_for_bit(fam_name):
    # one stack over the seeds' generators must give, run by run, what a
    # fresh pairwise_divergence gives in every sweep of a lone run
    X = np.random.default_rng(11).uniform(0.02, 0.98, size=(45, 4))
    for max_iter in (2, 300):
        rngs = [np.random.default_rng(seed) for seed in range(6)]
        results = _mixture_em(X, 3, fam_name, rngs, max_iter)
        assert len(results) == len(rngs)
        for seed, res in enumerate(results):
            P, weights, centers, trace, iterations = em_reference(
                X, 3, fam_name, np.random.default_rng(seed), max_iter
            )
            assert np.array_equal(res.posteriors, P)
            assert np.array_equal(res.weights, weights)
            assert np.array_equal(res.centers, centers)
            assert res.trace == trace and res.loglik == trace[-1]
            assert res.iterations == iterations
            # a run cut at max_iter ends before its M-step, like a converged
            # one: its posteriors are those of its own weights and centers
            own = np.log(res.weights) - pairwise_divergence(fam_name, X, res.centers)
            assert np.allclose(res.posteriors, softmax_rows(own)[1], rtol=1e-12, atol=1e-15)
    assert len({res.iterations for res in results}) > 1  # runs stop at different sweeps


def _assert_baselines_are_lone_oracle_runs(X, config):
    t, d, seed, fam_name = len(X), config.d, config.seed, config.family
    for r, res in enumerate(alternating_restarts(X, config)):
        labels0 = derived_rng(seed, 0, r).integers(0, d, size=t)
        labels, centers, _, trace, iterations = lloyd_reference(X, labels0, fam_name, 200, d)
        assert np.array_equal(res.labels, labels) and np.array_equal(res.centers, centers)
        assert res.trace == trace and res.iterations == iterations
    for r, res in enumerate(soft_em_restarts(X, config)):
        P, weights, centers, trace, iterations = em_reference(X, d, fam_name,
                                                              derived_rng(seed, 1, r))
        assert np.array_equal(res.posteriors, P) and np.array_equal(res.weights, weights)
        assert np.array_equal(res.centers, centers)
        assert res.trace == trace and res.iterations == iterations


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_baseline_restarts_are_lone_oracle_runs_on_the_derived_generators(fam_name):
    X = np.random.default_rng(7).uniform(0.02, 0.98, size=(50, 3))
    _assert_baselines_are_lone_oracle_runs(X, ModelConfig(d=3, restarts=7, seed=5,
                                                          family=fam_name))


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_cluster_major_baselines_are_lone_oracle_runs_where_blas_kernels_switch(fam_name):
    # at t = 300 and n = 57 one GEMM over all sets already rounds unlike the
    # per-set ones, so the stacked (R, d, t) sweeps must hand BLAS the
    # operands a lone row-major run does: the means' one-hot, the cross
    # products and EM's (t, d) posteriors, each read transposed
    X = np.random.default_rng(8).uniform(0.02, 0.98, size=(300, 57))
    _assert_baselines_are_lone_oracle_runs(X, ModelConfig(d=2, restarts=5, seed=6,
                                                          family=fam_name))


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_em_with_nine_clusters_stacks_bit_for_bit_and_tracks_the_oracle(fam_name):
    # from eight clusters on numpy sums a (t, d) row pairwise and the d axis
    # of (R, d, t) in order, so the E-step normalizer leaves the oracle's
    # last bits; a stack still gives each run what it gives alone
    X = np.random.default_rng(12).uniform(0.02, 0.98, size=(80, 4))
    seeds = range(4)
    stacked = _mixture_em(X, 9, fam_name, [np.random.default_rng(s) for s in seeds], 40)
    for seed, res in zip(seeds, stacked):
        (alone,) = _mixture_em(X, 9, fam_name, [np.random.default_rng(seed)], 40)
        for field_name in ("posteriors", "weights", "centers"):
            assert np.array_equal(getattr(res, field_name), getattr(alone, field_name))
        assert res.trace == alone.trace and res.iterations == alone.iterations
        P, weights, centers, trace, iterations = em_reference(
            X, 9, fam_name, np.random.default_rng(seed), 40)
        assert res.iterations == iterations
        assert np.allclose(res.trace, trace, rtol=1e-12, atol=0.0)
        for got, want in ((res.posteriors, P), (res.weights, weights), (res.centers, centers)):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_mixture_em_rejects_max_iter_below_one():
    X = np.random.default_rng(0).normal(size=(10, 2))
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            _mixture_em(X, 2, "euclidean", [np.random.default_rng(0)], max_iter)


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_cond_objective_scores_a_stack_as_each_labeling_alone(fam_name):
    # label maxima differ across the stack, [0, 2] leaves cluster 1 empty,
    # and at 300 x 32 BLAS rounds a mean or cross term fitted with more
    # clusters than the labeling's own differently
    rng = np.random.default_rng(3)
    t = 300
    X = rng.uniform(0.05, 0.95, size=(t, 32))
    stack = np.stack([rng.integers(0, 2, size=t), rng.integers(0, 5, size=t),
                      2 * rng.integers(0, 2, size=t), rng.integers(0, 4, size=t),
                      np.zeros(t, dtype=int)])
    values = cond_objective(X, stack, fam_name)
    assert values.shape == (5,)
    for labels, value in zip(stack, values):
        alone = cond_objective(X, labels, fam_name)
        assert type(alone) is float and alone == value
    with pytest.raises(ValueError, match="one per point"):
        cond_objective(X, stack[:, :20], fam_name)
    with pytest.raises(ValueError, match="one per point"):
        cond_objective(X, stack[None], fam_name)


def test_models_tuple_is_public():
    assert set(MODELS) == {"cond-jc", "cond", "disc", "joint", "alt-hard", "soft-em"}
