import itertools
import warnings

import numpy as np
import pytest

from bregrelax import (
    AdmmResult,
    SmoothProblem,
    SolverDivergence,
    admm_solve,
    check_membership,
    cluster_norm,
    cluster_norm_dual,
    gcg_line_search,
    gcg_minimize,
    prox_minimize,
    rowwise_objective,
    smooth_minimize,
    spectral_round,
)
from bregrelax.divergences import family
from bregrelax.models import cond_objective
from bregrelax import geometry, solvers
from bregrelax.geometry import simplex_project_rows
from bregrelax.solvers import _admm_rows_pg, _row_curvature

from conftest import (
    assert_box_budget_projection,
    assert_simplex_projection,
    bernoulli_cond_loss,
    cvxpy_norm_regularized,
    exhaustive_hard_optimum,
    planted_bernoulli,
    planted_euclidean,
    quadratic_loss,
    simplex_project,
)


def quadratic_problem(A, b, x0=None):
    # f(x) = 0.5 x'Ax - b'x, minimized at A^{-1} b
    return SmoothProblem(
        shape=b.shape,
        value_and_grad=lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b),
        x0=x0,
    )


def test_smooth_minimize_quadratic_bowl(rng):
    Q = rng.normal(size=(4, 4))
    A = Q @ Q.T + 0.5 * np.eye(4)
    b = rng.normal(size=4)
    res = smooth_minimize(quadratic_problem(A, b), tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-8)


def test_smooth_minimize_warm_start_returns_immediately(rng):
    A = np.diag([1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 1.0])
    star = np.linalg.solve(A, b)
    res = smooth_minimize(quadratic_problem(A, b, x0=star), tol=1e-8)
    assert res.iterations == 0
    assert res.converged


def test_smooth_minimize_logsumexp_linear_matches_descent_oracle():
    # softmax partition term plus a linear pull toward a fixed distribution
    p = np.array([0.4, 0.25, 0.2, 0.1, 0.05])

    def value_and_grad(tau):
        m = tau.max()
        z = np.exp(tau - m)
        total = z.sum()
        return float(m + np.log(total) - p @ tau), z / total - p

    problem = SmoothProblem(shape=(5,), value_and_grad=value_and_grad)
    res = smooth_minimize(problem, tol=1e-10)

    tau = np.zeros(5)
    for _ in range(20000):
        tau -= 0.5 * value_and_grad(tau)[1]
    oracle = value_and_grad(tau)[0]
    assert res.objective == pytest.approx(oracle, abs=1e-6)


def test_smooth_minimize_reports_exhaustion():
    def value_and_grad(x):
        # banana valley: slow progress forces the budget to run out
        a, b = x
        return (
            float((1 - a) ** 2 + 100.0 * (b - a * a) ** 2),
            np.array([-2 * (1 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]),
        )

    problem = SmoothProblem(shape=(2,), value_and_grad=value_and_grad, x0=np.array([-1.5, 2.0]))
    with pytest.warns(RuntimeWarning, match="gradient norm"):
        res = smooth_minimize(problem, tol=1e-14, max_iter=3)
    assert not res.converged


def _phi(loss, T, S, s, alpha):
    def f(a, b):
        scale = a * s + b
        return loss.value_and_grad(a * T + b * S)[0] + 0.5 * alpha * scale * scale

    return f


def test_line_search_matches_quadratic_system(rng):
    # interior case: generic directions (so coordinate descent converges)
    # and a target built to put the unconstrained solve in the positive
    # quadrant
    T = rng.normal(size=(4, 3))
    S = rng.normal(size=(4, 3))
    C = 0.7 * T + 0.9 * S
    s, alpha = 1.3, 0.05
    loss = quadratic_loss(C)
    a, b = gcg_line_search(loss, T, S, s, alpha)
    H = np.array(
        [
            [np.sum(T * T) + alpha * s * s, np.sum(T * S) + alpha * s],
            [np.sum(T * S) + alpha * s, np.sum(S * S) + alpha],
        ]
    )
    rhs = np.array([np.sum(T * C), np.sum(S * C)])
    want = np.linalg.solve(H, rhs)
    assert np.all(want > 0)  # premise: interior solution for this seed
    assert a == pytest.approx(want[0], abs=1e-8)
    assert b == pytest.approx(want[1], abs=1e-8)


def test_line_search_clips_at_zero(rng):
    # orthogonal directions with s = 0 decouple the coordinates, so the
    # boundary solution is the clipped unconstrained one
    T = np.zeros((2, 2))
    T[0, 0] = 1.0
    S = np.zeros((2, 2))
    S[1, 1] = 1.0
    C = -2.0 * T + 3.0 * S  # pulls a negative, b positive
    alpha = 0.1
    loss = quadratic_loss(C)
    a, b = gcg_line_search(loss, T, S, 0.0, alpha)
    assert a == pytest.approx(0.0, abs=1e-9)
    assert b == pytest.approx(3.0 / (1.0 + alpha), abs=1e-8)


def test_line_search_zero_direction(rng):
    C = rng.normal(size=(3, 2))
    T = 0.5 * C
    S = np.zeros_like(T)
    s, alpha = 1.0, 0.2
    loss = quadratic_loss(C)
    a, b = gcg_line_search(loss, T, S, s, alpha)
    want_a = np.sum(T * C) / (np.sum(T * T) + alpha * s * s)
    assert b == pytest.approx(0.0, abs=1e-9)
    assert a == pytest.approx(max(want_a, 0.0), abs=1e-7)


def test_line_search_never_worse_than_endpoints(rng):
    for _ in range(20):
        C = rng.normal(size=(3, 3))
        T = rng.normal(size=(3, 3))
        S = rng.normal(size=(3, 3))
        s = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.01, 1.0))
        loss = quadratic_loss(C)
        a, b = gcg_line_search(loss, T, S, s, alpha)
        phi = _phi(loss, T, S, s, alpha)
        assert phi(a, b) <= min(phi(1.0, 0.0), phi(0.0, 1.0)) + 1e-10


def _assert_quadrant_kkt(grad, point, tol):
    # zero slope off the bound, nonnegative slope on it
    for g, x in zip(grad, point):
        assert x >= 0.0
        if x > 0.0:
            assert abs(g) <= tol
        else:
            assert g >= -tol


def test_line_search_quadratic_segment_kkt_in_four_evals(rng):
    kinds = set()
    for _ in range(30):
        C, T, S = (rng.normal(size=(4, 3)) for _ in range(3))
        s = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.01, 1.0))
        calls = []
        a, b = gcg_line_search(quadratic_loss(C, calls), T, S, s, alpha)
        assert len(calls) <= 4
        R = a * T + b * S - C
        scale = a * s + b
        grad = (np.sum(R * T) + alpha * s * scale, np.sum(R * S) + alpha * scale)
        _assert_quadrant_kkt(grad, (a, b), 1e-9 * (1.0 + np.sum(C * C)))
        kinds.add((a > 0.0, b > 0.0))
    assert (True, True) in kinds and len(kinds) > 1  # interior and boundary cases


def test_line_search_bernoulli_cond_never_worse_than_endpoints(rng):
    X = rng.uniform(0.05, 0.95, size=(8, 3))
    loss = bernoulli_cond_loss(X)
    h = 1e-6
    for _ in range(20):
        T = rng.normal(scale=3.0, size=X.shape)
        S = rng.normal(scale=3.0, size=X.shape)
        s = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.01, 1.0))
        a, b = gcg_line_search(loss, T, S, s, alpha)
        phi = _phi(loss, T, S, s, alpha)
        best = phi(a, b)
        assert best <= min(phi(1.0, 0.0), phi(0.0, 1.0))
        grad = (
            (phi(a + h, b) - phi(a - h, b)) / (2 * h),
            (phi(a, b + h) - phi(a, b - h)) / (2 * h),
        )
        _assert_quadrant_kkt(grad, (a, b), 1e-6 * (1.0 + abs(best)))


def test_gcg_low_rank_closed_form(rng):
    # rank-1 target within the d-1 cone: the norm acts as Frobenius there
    u = rng.normal(size=(6, 1))
    v = rng.normal(size=(1, 4))
    C = u @ v
    alpha = 1e-2
    res = gcg_minimize(quadratic_loss(C), alpha, d=3, tol=1e-12, max_iter=500)
    want_T = C / (1.0 + alpha)
    want_obj = 0.5 * alpha * np.sum(C * C) / (1.0 + alpha)
    assert res.objective == pytest.approx(want_obj, abs=1e-4)
    assert np.max(np.abs(res.T - want_T)) <= 1e-3


def test_gcg_zero_start_is_fixed_point():
    C = np.zeros((4, 3))
    res = gcg_minimize(quadratic_loss(C), 0.5, d=3)
    assert res.iterations == 1
    assert res.converged
    assert not np.any(res.T)


@pytest.mark.parametrize("k", [3, 5])
def test_gcg_reports_the_gap_of_the_returned_iterate(rng, k):
    # a solve capped at k returns T_k; a solve allowed k + 1 steps
    # evaluates T_k's gap before its last step and traces it in row k + 1
    rng.normal(size=(6, 3))
    C = rng.normal(size=(6, 3))
    capped = gcg_minimize(quadratic_loss(C), 0.3, d=2, max_iter=k)
    longer = gcg_minimize(quadratic_loss(C), 0.3, d=2, max_iter=k + 1)
    assert capped.iterations == k and len(longer.trace) == k + 2
    assert capped.gap == longer.trace[k + 1]["gap"]
    assert capped.converged == (capped.gap < 1e-6)


def test_gcg_matches_convex_reference(rng):
    X = rng.normal(size=(6, 3))
    alpha = 0.3
    ref_val, _ = cvxpy_norm_regularized(X, alpha, 3)
    res = gcg_minimize(quadratic_loss(X), alpha, d=3, tol=1e-10, max_iter=2000)
    assert res.objective == pytest.approx(ref_val, abs=1e-4)


def test_gcg_trace_monotone_and_tracker_majorizes(rng):
    X = rng.normal(size=(7, 4))
    res = gcg_minimize(quadratic_loss(X), 0.2, d=3, tol=1e-10, max_iter=300)
    objs = [row["objective"] for row in res.trace]
    assert all(objs[i + 1] <= objs[i] + 1e-10 for i in range(len(objs) - 1))
    # the traced objective uses the tracker s, the final one norm(T):
    # they differ by (alpha/2)(s^2 - norm(T)^2), so s majorizes the norm
    assert res.trace[-1]["objective"] >= res.objective - 1e-6


def test_gcg_certified_solves_meet_optimality_identities():
    # at the optimum of L(T) + (alpha/2) norm(T)^2 with G = grad L(T):
    # dual(G) = alpha norm(T) and <G, T> = -alpha norm(T)^2 (no cvxpy needed)
    rng = np.random.default_rng(3)
    instances = [((6, 3), 0.8, 2), ((6, 3), 0.3, 2), ((8, 4), 0.5, 2),
                 ((5, 3), 2.0, 3), ((7, 4), 0.2, 3), ((6, 3), 0.3, 3)]
    certified = 0
    for shape, alpha, d in instances:
        C = rng.normal(size=shape)
        res = gcg_minimize(quadratic_loss(C), alpha, d=d, tol=1e-10, max_iter=2000)
        if not res.converged:
            continue  # a stopped solve is off by about its gap
        certified += 1
        G = res.T - C
        scale = 1e-9 * max(1.0, alpha * res.norm**2)
        assert abs(cluster_norm_dual(G, d) - alpha * res.norm) <= scale
        assert abs(np.sum(G * res.T) + alpha * res.norm**2) <= scale
    assert certified >= 3, certified


def test_gcg_sublinear_rate(rng):
    # majorized-objective error vs the convex reference decays like C/k
    # with a constant on the scale of the problem, and keeps shrinking
    X = rng.normal(size=(6, 3))
    alpha = 0.25
    ref_val, _ = cvxpy_norm_regularized(X, alpha, 3)
    res = gcg_minimize(quadratic_loss(X), alpha, d=3, tol=0.0, max_iter=200)
    errs = [max(row["objective"] - ref_val, 0.0) for row in res.trace[1:]]
    scaled = [k * e for k, e in enumerate(errs, start=1)]
    assert max(scaled) <= 10.0 * max(1.0, ref_val)
    assert errs[199] <= 0.8 * errs[99] + 1e-12


def test_gcg_raises_on_nonfinite():
    def value_and_grad(T):
        if np.any(T):  # blow up once the iterate leaves the origin
            return np.nan, np.full_like(T, np.nan)
        return 1.0, np.ones_like(T)

    def segment(T, S):
        return lambda a, b: (value_and_grad(a * T + b * S)[0], np.zeros(2), np.zeros((2, 2)))

    problem = SmoothProblem(shape=(3, 2), value_and_grad=value_and_grad, segment=segment)
    with pytest.raises(SolverDivergence):
        gcg_minimize(problem, 0.5, d=2, max_iter=10)


def test_gcg_requires_a_segment():
    problem = SmoothProblem(shape=(3, 2), value_and_grad=lambda T: (0.0, np.zeros_like(T)))
    with pytest.raises(ValueError, match="segment"):
        gcg_minimize(problem, 0.5, d=2)


# ------------------------------------------------- accelerated proximal gradient


def test_prox_low_rank_target_takes_one_exact_step(rng):
    # 0.5 ||T - C||^2 has curvature 1, so the first step, from 0 with L = 1,
    # is the prox of C itself; for rank(C) <= d - 1 that is C / (1 + alpha)
    C = rng.normal(size=(6, 1)) @ rng.normal(size=(1, 4))
    alpha = 1e-2
    res = prox_minimize(quadratic_loss(C), alpha, d=3)
    assert res.iterations == 1 and res.converged and res.gap < 1e-12
    assert np.allclose(res.T, C / (1.0 + alpha), rtol=0, atol=1e-12)
    assert res.objective == pytest.approx(0.5 * alpha * np.sum(C * C) / (1.0 + alpha), rel=1e-12)


def test_prox_zero_start_is_fixed_point():
    res = prox_minimize(quadratic_loss(np.zeros((4, 3))), 0.5, d=3)
    assert res.iterations == 0 and res.converged and res.gap == 0.0
    assert not np.any(res.T)


def test_prox_capped_at_zero_iterations_returns_zero():
    C = np.random.default_rng(5).normal(size=(5, 3))
    res = prox_minimize(quadratic_loss(C), 0.3, d=2, max_iter=0)
    assert res.iterations == 0 and not np.any(res.T) and res.norm == 0.0
    assert not res.converged
    assert res.gap == pytest.approx(cluster_norm_dual(C, 2) ** 2 / 0.6, rel=1e-12)
    assert res.trace == [{"iteration": 0, "objective": 0.5 * np.sum(C * C), "gap": res.gap}]


def test_prox_trace_keeps_its_keys_and_descends(rng):
    # the bernoulli loss is not quadratic: backtracking and momentum both run
    X = rng.uniform(0.05, 0.95, size=(9, 4))
    res = prox_minimize(bernoulli_cond_loss(X), 1e-2, d=3, tol=1e-9)
    assert res.converged and res.iterations > 1
    assert [row["iteration"] for row in res.trace] == list(range(res.iterations + 1))
    assert all(set(row) == {"iteration", "objective", "gap"} for row in res.trace)
    objs = [row["objective"] for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert res.trace[-1]["objective"] == res.objective and res.trace[-1]["gap"] == res.gap
    assert res.norm == pytest.approx(cluster_norm(res.T, 3), rel=1e-10)


def test_prox_certified_solves_meet_optimality_identities():
    # GCG's instances, every one certified here: dual(G) = alpha norm(T)
    # and <G, T> = -alpha norm(T)^2 at the optimum, with G = T - C
    rng = np.random.default_rng(3)
    instances = [((6, 3), 0.8, 2), ((6, 3), 0.3, 2), ((8, 4), 0.5, 2),
                 ((5, 3), 2.0, 3), ((7, 4), 0.2, 3), ((6, 3), 0.3, 3)]
    for shape, alpha, d in instances:
        C = rng.normal(size=shape)
        res = prox_minimize(quadratic_loss(C), alpha, d=d, tol=1e-10)
        assert res.converged and res.gap < 1e-10
        G = res.T - C
        scale = 1e-9 * max(1.0, alpha * res.norm**2)
        assert abs(cluster_norm_dual(G, d) - alpha * res.norm) <= scale
        assert abs(np.sum(G * res.T) + alpha * res.norm**2) <= scale


def test_prox_raises_on_nonfinite():
    def value_and_grad(T):
        if np.any(T):  # blow up once the iterate leaves the origin
            return np.nan, np.full_like(T, np.nan)
        return 1.0, np.ones_like(T)

    problem = SmoothProblem(shape=(3, 2), value_and_grad=value_and_grad)
    with pytest.raises(SolverDivergence, match="non-finite"):
        prox_minimize(problem, 0.5, d=2, max_iter=10)
    with pytest.raises(SolverDivergence, match="iteration 0"):
        prox_minimize(SmoothProblem(shape=(3, 2), value_and_grad=lambda T: (np.inf, T)),
                      0.5, d=2)


def row_steps(fam, X, anchors, mu):
    """ADMM row step from uniform rows, as ``admm_solve`` starts: (M, defect)."""
    t, fam = X.shape[0], family(fam)
    return _admm_rows_pg(fam, X, np.full((t, t), 1.0 / t), anchors, mu, _row_curvature(fam, X))


def test_row_step_zero_loss_is_projection(rng):
    # X = 0 makes every row loss D(0, m X) vanish, leaving the proximal term,
    # which one step of length mu minimizes exactly
    anchors = rng.normal(size=(5, 5))
    out, defect = row_steps("euclidean", np.zeros((5, 2)), anchors, mu=0.7)
    for i in range(5):
        assert np.allclose(out[i], simplex_project(anchors[i]), atol=1e-8)
    assert np.max(np.abs(defect)) <= 1e-12


def test_row_step_feasible(rng):
    X = rng.uniform(0.1, 0.9, size=(6, 4))
    out, _ = row_steps("bernoulli", X, rng.normal(size=(6, 6)), mu=1.0)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-10)


SIMPLEX_GRID = np.array([(i, j, 200 - i - j) for i in range(201)
                         for j in range(201 - i)], dtype=float) / 200


def assert_shifted_optimal(total, grad, out, defect):
    # the row step's M exactly minimizes each row objective minus
    # <defect_i, m>: it is a fixed point of the projected gradient step on
    # that shifted objective, and no point of a barycentric sweep of the
    # 2-simplex (t = 3) beats it; total and grad map rows of m to values
    for i in range(3):
        shifted_step = out[i] - (grad(i, out[i]) - defect[i])
        assert np.allclose(simplex_project(shifted_step), out[i], atol=1e-9)
        best = np.min(total(i, SIMPLEX_GRID) - SIMPLEX_GRID @ defect[i])
        assert total(i, out[i]) - defect[i] @ out[i] <= best + 1e-4


def test_row_step_matches_grid_oracle(rng):
    X = rng.normal(size=(3, 2))
    anchors = rng.normal(size=(3, 3))
    mu = 0.8
    lip = float(np.linalg.eigvalsh(X.T @ X)[-1])

    def total(i, m):
        r = m @ X - X[i]
        return 0.5 * np.sum(r * r, axis=-1) + 0.5 * np.sum((m - anchors[i]) ** 2, axis=-1) / mu

    def grad(i, m):
        return (m @ X - X[i]) @ X.T + (m - anchors[i]) / mu

    out, defect = row_steps("euclidean", X, anchors, mu)
    assert_shifted_optimal(total, grad, out, defect)
    # h = 1, so every euclidean step is the plain projected step of length
    # 1 / (lam_max(X'X) + 1/mu), bit for bit
    plain = np.full((3, 3), 1.0 / 3.0)
    for _ in range(solvers.ADMM_ROW_STEPS):
        plain = simplex_project_rows(plain - (1.0 / (lip + 1.0 / mu))
                                     * ((plain @ X - X) @ X.T + (plain - anchors) / mu))
    assert np.array_equal(out, plain)


def test_row_step_bernoulli_matches_shifted_grid_oracle(rng):
    # curvature bounds, and so steps and the defect's factor, differ per row
    fam = family("bernoulli")
    X = rng.uniform(0.1, 0.9, size=(3, 2))
    anchors = rng.normal(size=(3, 3))
    mu = 0.8

    def total(i, m):
        y = m @ X  # inside the data hull, so inside (0, 1)
        loss = fam.potential(X[i]) - fam.potential(y) - (X[i] - y) * fam.transfer(y)
        return np.sum(loss, axis=-1) + 0.5 * np.sum((m - anchors[i]) ** 2, axis=-1) / mu

    def grad(i, m):
        y = m @ X
        return ((y - X[i]) / (y * (1.0 - y))) @ X.T + (m - anchors[i]) / mu

    assert_shifted_optimal(total, grad, *row_steps("bernoulli", X, anchors, mu))


def test_admm_bernoulli_certifies_criterion_07_grid():
    # criterion 07's cond-jc grid on planted_bernoulli data: every instance
    # certifies; a step count, not a timing, about 16% above the 5,075 taken
    certified = iterations = 0
    for d, t in ((2, 16), (3, 18)):
        for seed in range(10):
            X, _ = planted_bernoulli(t, d, np.random.default_rng(100 * d + seed))
            res = admm_solve(X, d, "bernoulli", tol=1e-5, max_iter=1000)
            certified += res.converged
            iterations += res.iterations
    assert certified == 20
    assert iterations <= 5900, iterations


def test_admm_two_clouds_recovers_partition(rng):
    X, truth = planted_euclidean(8, 2, rng)
    res = admm_solve(X, 2, "euclidean", tol=1e-6, max_iter=3000)
    assert res.converged
    labels = spectral_round(res.M, 2, rng=np.random.default_rng(0)).labels
    opt_val, opt_labels = exhaustive_hard_optimum(X, 2)
    assert cond_objective(X, labels) == pytest.approx(opt_val, rel=1e-8)
    assert cond_objective(X, truth) == pytest.approx(opt_val, rel=1e-8)


def test_admm_identity_budget_zero_loss(rng):
    X = rng.normal(size=(3, 4))
    res = admm_solve(X, 3, "euclidean", tol=1e-7, max_iter=4000)
    assert res.converged
    assert res.objective <= 1e-5
    assert np.max(np.abs(res.M - np.eye(3))) <= 0.05


def test_admm_iterates_do_not_depend_on_the_scale_of_X():
    # the penalty comes from the row step's curvature bound, which scales
    # with X'X as the loss does, so 10 X runs the same iterates at one mu
    X, _ = planted_euclidean(16, 2, np.random.default_rng(3))
    runs = [admm_solve(X, 2, max_iter=60), admm_solve(10 * X, 2, max_iter=60)]
    primal = [[row["primal"] for row in res.trace] for res in runs]
    assert len(primal[0]) == len(primal[1])
    assert np.max(np.abs(np.subtract(*primal))) <= 1e-10
    assert np.max(np.abs(runs[0].M - runs[1].M)) <= 1e-10
    assert all(len({row["mu"] for row in res.trace}) == 1 for res in runs)


def test_admm_zero_data_certifies():
    # X = 0 has no curvature to scale the penalty by, and every M is optimal
    res = admm_solve(np.zeros((4, 2)), 2, max_iter=50)
    assert res.converged and res.objective == 0.0


def test_admm_termination_contract(rng):
    X, _ = planted_euclidean(10, 2, rng)
    tol = 1e-6
    res = admm_solve(X, 2, "euclidean", tol=tol, max_iter=4000)
    assert res.converged
    assert max(res.trace[-1]["primal"], res.trace[-1]["dual"]) < tol * np.sqrt(10)
    assert res.iterations <= 4000


def test_admm_exit_feasibility(rng):
    X, _ = planted_euclidean(9, 3, rng)
    res = admm_solve(X, 3, "euclidean", tol=1e-6, max_iter=4000)
    assert np.all(res.M >= 0.0)
    assert np.allclose(res.M.sum(axis=1), 1.0, atol=1e-9)
    assert check_membership(res.Z, 3, "rowsum", tol=1e-7)


@pytest.mark.parametrize("fam", ["euclidean", "bernoulli"])
def test_admm_certified_M_in_simplex_set(rng, fam):
    from conftest import planted_bernoulli

    planted = planted_euclidean if fam == "euclidean" else planted_bernoulli
    for d, t in ((2, 12), (3, 15)):
        X, _ = planted(t, d, rng)
        res = admm_solve(X, d, fam, tol=1e-5, max_iter=2000)
        assert res.converged
        # ||M - Z||_F = primal, so M's eigenvalues lie within primal of Z's
        # and its trace within sqrt(t) * primal; Z is in the rowsum set
        tol = np.sqrt(t) * res.trace[-1]["primal"] + 1e-9
        assert check_membership(0.5 * (res.M + res.M.T), d, "simplex", tol=tol)


def test_admm_bernoulli_instance(rng):
    from conftest import planted_bernoulli

    X, _ = planted_bernoulli(10, 2, rng)
    res = admm_solve(X, 2, "bernoulli", tol=1e-5, max_iter=3000)
    assert res.converged
    assert np.isfinite(res.objective)
    assert np.all(res.M >= 0.0)


def test_admm_bernoulli_clamps_predictions_on_binary_data():
    # on 0/1 data, projection roundoff pushes M X past 1, where the
    # bernoulli potential's log1p(-y) is undefined; the family clamps it
    X = (np.random.default_rng(0).random((20, 5)) < 0.3).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = admm_solve(X, 2, "bernoulli", max_iter=30)
    assert np.isfinite(res.objective)
    assert all(np.isfinite([e["primal"], e["dual"], e["defect"]]).all() for e in res.trace)


def test_admm_trace_records_residuals(rng):
    X, _ = planted_euclidean(8, 2, rng)
    res = admm_solve(X, 2, "euclidean", tol=1e-5, max_iter=2000)
    assert len(res.trace) == res.iterations
    assert {"iteration", "objective", "primal", "dual", "defect", "mu"} <= set(res.trace[0])


def recording(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records (args, result) of each call."""
    calls, original = [], getattr(module, name)

    def record(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(([np.copy(a) if isinstance(a, np.ndarray) else a for a in args],
                      np.copy(out[0] if isinstance(out, tuple) else out)))
        return out

    monkeypatch.setattr(module, name, record)
    return calls


def test_admm_safeguard_rejects_extrapolation_and_still_certifies(monkeypatch):
    # on this instance some extrapolated point's step grows ||F(x) - x||, so
    # the solve resumes from the F value before it: a row step whose input M
    # is the output of the step before last rather than of the last one
    X, _ = planted_bernoulli(12, 2, np.random.default_rng(0))
    steps = recording(monkeypatch, solvers, "_admm_rows_pg")
    res = admm_solve(X, 2, "bernoulli", tol=1e-5, max_iter=1000)
    M_in = [args[2] for args, _ in steps]
    M_out = [out for _, out in steps]
    assert any(np.array_equal(M_in[k + 1], M_out[k - 1])
               and not np.array_equal(M_in[k + 1], M_out[k]) for k in range(1, len(steps) - 1))
    assert any(np.min(M) < 0.0 for M in M_in)  # an extrapolated M leaves the simplex
    assert res.converged and len(res.trace) == res.iterations == len(steps)
    assert np.linalg.norm(res.M - res.Z) == res.trace[-1]["primal"]
    assert np.all(res.M >= 0.0) and np.allclose(res.M.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert check_membership(res.Z, 2, "rowsum")


def test_admm_certifies_criterion_07_d3_seed6():
    # criterion 07's closest instance: plain ADMM ends its 1000 steps with
    # the dual residual just over the threshold
    X, _ = planted_euclidean(18, 3, np.random.default_rng(306))
    assert admm_solve(X, 3, "euclidean", tol=1e-5, max_iter=1000).converged


@pytest.mark.parametrize("seed", [1, 2])
def test_admm_certifies_tight_tolerance(seed):
    # plain ADMM is still uncertified here after 4000 steps
    X, _ = planted_euclidean(30, 3, np.random.default_rng(seed))
    assert admm_solve(X, 3, "euclidean", tol=1e-6, max_iter=4000).converged


@pytest.mark.parametrize("fam", ["euclidean", "bernoulli"])
def test_every_admm_projection_meets_its_variational_inequality(monkeypatch, fam):
    # the row-simplex and eigenvalue projections of a run, extrapolated
    # steps included, each checked by its linear-program oracle
    planted = planted_euclidean if fam == "euclidean" else planted_bernoulli
    X, _ = planted(12, 2, np.random.default_rng(0))
    rows = recording(monkeypatch, solvers, "simplex_project_rows")
    eigs = recording(monkeypatch, geometry, "capped_box_simplex_project")
    res = admm_solve(X, 2, fam, tol=1e-5, max_iter=60)
    assert len(eigs) == res.iterations and len(rows) >= res.iterations * solvers.ADMM_ROW_STEPS
    # the result is the last step's output, not the extrapolated point after it
    assert np.linalg.norm(res.M - res.Z) == res.trace[-1]["primal"]
    assert rowwise_objective(fam, X, res.M) == res.trace[-1]["objective"]
    assert np.all(res.M >= 0.0) and check_membership(res.Z, 2, "rowsum")
    for (V,), P in rows:
        assert_simplex_projection(V, P)
    for (sigma, budget), p in eigs:
        assert_box_budget_projection(sigma, budget, p)


def test_rowwise_objective_mean_matrix(rng):
    X = rng.normal(size=(6, 3))
    M = np.full((6, 6), 1.0 / 6.0)
    want = 0.5 * np.sum((X - X.mean(axis=0)) ** 2)
    assert rowwise_objective("euclidean", X, M) == pytest.approx(want, rel=1e-12)


def test_rowwise_objective_nonfinite_raises():
    X = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverDivergence, match="row 0"):
            rowwise_objective("euclidean", X, np.eye(2))
