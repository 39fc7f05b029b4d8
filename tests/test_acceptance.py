"""End-to-end acceptance checks, one test per numbered criterion.

Run ``pytest tests/test_acceptance.py -v`` for a per-criterion pass/fail
line.  Criteria 8 and 9 evaluate the real benchmark datasets and skip
with instructions when the files are not present under ``data/``.
Criteria 3 and 6 also run without cvxpy: 3 through the projection
variational inequality, and both halves of 6, GCG, the proximal solver and
the closed-form prox against a reference reduced to singular values, and
ADMM against its own residuals.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from bregrelax import (
    ExperimentSpec,
    ModelConfig,
    admm_solve,
    capped_box_simplex_project,
    check_membership,
    cluster_norm,
    cluster_norm_dual,
    cluster_norm_dual_subgradient,
    cluster_prox,
    cond_objective,
    emit_table,
    family,
    gcg_minimize,
    load_dataset,
    matched_accuracy,
    preprocess,
    project_rowsum,
    prox_minimize,
    run_experiment,
    run_grid,
    solve_cond_jc,
    solve_relaxation,
    spectral_round,
    stratified_subsample,
)
from bregrelax.models import _cond_problem, _disc_problem, _disc_terms, _joint_problem

from conftest import (
    cvxpy_norm_regularized,
    cvxpy_project_rowsum,
    equivalence_from_assignment,
    exhaustive_hard_optimum,
    finite_difference_gradient,
    grid_norm_squared,
    indicator,
    planted_bernoulli,
    planted_euclidean,
    quadratic_loss,
    random_feasible_sigma,
    require_cvxpy,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
ALL_DATASETS = ("balance", "breast", "diabetes", "heart", "spam", "orl", "yale")


def _need_datasets(names):
    missing = [n for n in names if not (DATA_DIR / f"{n}.csv").exists()]
    if missing:
        pytest.skip(
            "needs benchmark dataset files "
            + ", ".join(f"data/{m}.csv" for m in missing)
            + " (delimited numeric text, labels in the last column); "
            "drop them in to run this criterion"
        )


def test_criterion_01_norm_oracle_equivalence():
    rng = np.random.default_rng(11)
    start = time.time()
    for _ in range(100):
        t = int(rng.integers(2, 13))
        n = int(rng.integers(1, 9))
        d = int(rng.choice([2, 3, 4]))
        T = rng.normal(size=(t, n)) * rng.uniform(0.2, 3.0)
        val = cluster_norm(T, d) ** 2
        ref = grid_norm_squared(np.linalg.svd(T, compute_uv=False), d)
        assert val == pytest.approx(ref, rel=1e-5, abs=1e-8)
    assert time.time() - start < 60.0


def test_criterion_02_duality_tightness():
    rng = np.random.default_rng(12)
    for _ in range(100):
        t = int(rng.integers(2, 10))
        n = int(rng.integers(1, 7))
        d = int(rng.choice([2, 3, 4]))
        R = rng.normal(size=(t, n))
        S = cluster_norm_dual_subgradient(R, d)
        dual = cluster_norm_dual(R, d)
        assert float(np.sum(R * S)) == pytest.approx(dual, abs=1e-8 * max(1.0, dual))
        assert cluster_norm(S, d) == pytest.approx(1.0, abs=1e-8)
    for _ in range(1000):
        t = int(rng.integers(2, 8))
        n = int(rng.integers(1, 6))
        d = int(rng.choice([2, 3, 4]))
        A = rng.normal(size=(t, n))
        B = rng.normal(size=(t, n))
        inner = float(np.sum(A * B))
        bound = cluster_norm(A, d) * cluster_norm_dual(B, d)
        assert inner <= bound + 1e-10 * max(1.0, bound)


def test_criterion_03_projection_oracle():
    require_cvxpy()
    rng = np.random.default_rng(13)
    probes = []
    for _ in range(10):
        labels = rng.integers(0, 3, size=8)
        labels[:3] = [0, 1, 2]
        Y = np.zeros((8, 3))
        Y[np.arange(8), labels] = 1.0
        probes.append(equivalence_from_assignment(Y))
    probes.append(np.full((8, 8), 1.0 / 8.0))
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        A = 0.5 * (A + A.T)
        P = project_rowsum(A, 3)
        ref = cvxpy_project_rowsum(A, 3)
        assert np.max(np.abs(P - ref)) <= 1e-6
        # idempotence: feasible points are their own projection
        assert np.max(np.abs(project_rowsum(P, 3) - P)) <= 1e-7
        # first-order optimality against feasible probes
        for Z in probes:
            assert float(np.sum((A - P) * (Z - P))) <= 1e-7


def _rowsum_maximizer(G, d):
    """argmax of <G, Z> over the ``rowsum`` set: 11'/t plus the top d - 1
    positive eigenvectors of the double-centred G."""
    t = G.shape[0]
    H = np.eye(t) - 1.0 / t
    w, V = np.linalg.eigh(H @ G @ H)
    keep = w > 1e-10 * (1.0 + np.max(np.abs(w)))  # drops the constant direction
    top = V[:, keep][:, ::-1][:, : d - 1]
    return np.full((t, t), 1.0 / t) + top @ top.T


def _box_budget_maximizer(g, budget):
    """argmax of <g, z> over z in [0, 1]^r with sum z <= budget."""
    z = np.zeros_like(g)
    left = budget
    for i in np.argsort(-g):
        if g[i] <= 0.0 or left <= 0.0:
            break
        z[i] = min(1.0, left)
        left -= z[i]
    return z


def test_criterion_03_projection_variational_inequality():
    # P(A) is the Euclidean projection of A onto a convex set exactly when
    # <A - P(A), Z - P(A)> <= 0 for every Z in the set.  The probes are
    # hard equivalence matrices, 11'/t, their mixtures, random feasible
    # points and the maximizer of <A - P(A), Z>; no cvxpy needed
    rng = np.random.default_rng(13)
    for t, d in ((8, 3), (12, 4), (6, 2)):
        hard = []
        for _ in range(10):
            labels = rng.integers(0, d, size=t)
            labels[:d] = np.arange(d)  # no empty cluster: rows sum to 1
            hard.append(equivalence_from_assignment(indicator(labels, d)))
        vertices = hard + [np.full((t, t), 1.0 / t)]
        mixed = [np.tensordot(rng.dirichlet(np.ones(len(vertices))), vertices, axes=1)
                 for _ in range(10)]
        mixed += [0.5 * (vertices[i] + vertices[-1]) for i in range(3)]
        for k in range(20):
            A = rng.normal(scale=rng.uniform(0.1, 3.0), size=(t, t))
            A = 0.5 * (A + A.T)
            if k % 2:
                A += hard[k % len(hard)]  # lands near a vertex of the set
            P = project_rowsum(A, d)
            probes = vertices + mixed + [_rowsum_maximizer(A - P, d)]
            for Z in [P] + probes:
                assert check_membership(Z, d, "rowsum", tol=1e-9)
            bound = 1e-9 * (1.0 + float(np.sum(A * A)))
            for Z in probes:
                assert float(np.sum((A - P) * (Z - P))) <= bound

    # the eigenvalue step: box [0, 1] with sum <= budget
    for _ in range(200):
        r = int(rng.integers(1, 10))
        budget = float(rng.uniform(0.5, r + 1.0))
        sigma = rng.normal(scale=rng.uniform(0.2, 3.0), size=r) + 0.5
        P = capped_box_simplex_project(sigma, budget)
        probes = [random_feasible_sigma(r, budget, rng) for _ in range(20)]
        probes.append(_box_budget_maximizer(sigma - P, budget))
        bound = 1e-9 * (1.0 + float(sigma @ sigma))
        for z in [P] + probes:
            assert np.all(z >= 0.0) and np.all(z <= 1.0) and z.sum() <= budget + 1e-12
        for z in probes:
            assert float((sigma - P) @ (z - P)) <= bound


def test_criterion_04_gradient_suite():
    # the gradients the solvers descend, against central differences of
    # the values the same evaluators return
    rng = np.random.default_rng(14)

    def check(value_and_grad, x):
        g = value_and_grad(x)[1]
        fd = finite_difference_gradient(lambda y: value_and_grad(y)[0], x)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    for name in ("euclidean", "bernoulli"):
        fam = family(name)
        A = rng.normal(size=(4, 3))
        X = fam.inverse_transfer(rng.normal(size=(4, 3)))
        check(_cond_problem(X, fam).value_and_grad, A)

    X = rng.uniform(0.15, 0.85, size=(5, 3))
    V = 0.4 * rng.normal(size=(5, 3))
    tau = 0.3 * rng.normal(size=5)  # one bias per point
    check(_disc_problem(X)[0].value_and_grad, V)  # bias minimized out
    Z0 = X @ V.T / len(X)

    def bias_value_and_grad(s):
        value, P = _disc_terms(Z0, s)
        return value, (P.sum(axis=0) - 1.0) / len(X)

    check(bias_value_and_grad, tau)

    for name in ("euclidean", "bernoulli"):
        loss = _joint_problem(X, family(name), np.sqrt(0.5), np.sqrt(0.2))
        check(loss.value_and_grad, 0.5 * rng.normal(size=loss.shape))


def test_criterion_05_relaxation_lower_bound():
    rng = np.random.default_rng(15)
    for _ in range(20):
        t = int(rng.integers(5, 9))
        X = rng.normal(size=(t, 2))
        hard, _ = exhaustive_hard_optimum(X, 2)
        sol = solve_cond_jc(X, ModelConfig(d=2, admm_tol=1e-6))
        assert sol.objective <= hard + 1e-6


def _criterion_06_instances():
    """The GCG cases (C, alpha, d) and ADMM cases (X, d, family) of
    criterion 06, drawn from one generator in a fixed order."""
    rng = np.random.default_rng(16)
    gcg = [(rng.normal(size=(6, 3)), alpha, d) for alpha, d in ((0.3, 3), (0.8, 2))]
    admm = [
        (rng.normal(size=(10, 3)), 2, "euclidean"),
        (rng.normal(size=(12, 4)), 3, "euclidean"),
        (rng.uniform(0.1, 0.9, size=(8, 4)), 2, "bernoulli"),
    ]
    return gcg, admm


def _check_criterion_06_gcg(reference):
    # GCG and accelerated proximal gradient: monotone trace and agreement
    # with a high-precision reference; the proximal solve also certifies
    for C, alpha, d in _criterion_06_instances()[0]:
        want = reference(C, alpha, d)
        res = gcg_minimize(quadratic_loss(C), alpha, d=d, tol=1e-10, max_iter=2000)
        prox = prox_minimize(quadratic_loss(C), alpha, d=d, tol=1e-10, max_iter=2000)
        for solved in (res, prox):
            objs = [row["objective"] for row in solved.trace]
            assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))
            assert solved.objective == pytest.approx(want, abs=1e-4)
        assert prox.converged


def test_criterion_06_gcg_convergence():
    require_cvxpy()
    _check_criterion_06_gcg(lambda C, alpha, d: cvxpy_norm_regularized(C, alpha, d)[0])


def _spectral_reference(C, alpha, d):
    """min over W of 0.5 ||W - C||^2 + (alpha/2) Omega^2(W), without cvxpy.

    Omega is unitarily invariant, so by von Neumann's trace inequality the
    minimizer shares C's singular vectors and the problem reduces to its
    singular values w: 0.5 ||w - sigma(C)||^2 + (alpha/2) Omega^2(diag w),
    with Omega^2 from the grid oracle.  Nelder-Mead from a few starts.
    """
    s = np.linalg.svd(C, compute_uv=False)

    def value(w):
        return 0.5 * float(np.sum((w - s) ** 2)) + 0.5 * alpha * grid_norm_squared(w, d)

    options = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000}
    return min(scipy.optimize.minimize(value, x0, method="Nelder-Mead", options=options).fun
               for x0 in (s, s / (1.0 + alpha), 0.5 * s))


def test_criterion_06_gcg_convergence_without_cvxpy():
    _check_criterion_06_gcg(_spectral_reference)


def test_criterion_06_cluster_prox_is_the_spectral_reference():
    # 0.5 ||T - C||^2 + (alpha/2) Omega^2(T) is minimized by the prox of C
    # with weight alpha, in closed form
    for C, alpha, d in _criterion_06_instances()[0]:
        T, norm2 = cluster_prox(C, alpha, d)
        assert norm2 == pytest.approx(cluster_norm(T, d) ** 2, rel=1e-12)
        value = 0.5 * float(np.sum((T - C) ** 2)) + 0.5 * alpha * norm2
        assert value == pytest.approx(_spectral_reference(C, alpha, d), abs=1e-9)


def test_criterion_06_admm_convergence():
    # ADMM: terminates inside the iteration budget at the stated residual
    for X, d, fam in _criterion_06_instances()[1]:
        res = admm_solve(X, d, fam, tol=1e-5, max_iter=1000)
        assert res.converged and res.iterations <= 1000
        bound = 1e-5 * np.sqrt(X.shape[0])
        assert max(res.trace[-1]["primal"], res.trace[-1]["dual"]) < bound


def test_criterion_07_planted_partition_recovery():
    start = time.time()
    results = {}
    certified_jc = iterations_jc = 0
    for model in ("cond-jc", "cond", "disc", "joint"):
        for d, t in ((2, 16), (3, 18)):
            hits = 0
            for seed in range(10):
                rng = np.random.default_rng(100 * d + seed)
                if model == "disc":
                    X, truth = planted_bernoulli(t, d, rng)
                    cfg = ModelConfig(d=d, family="bernoulli", gamma=1e-4, tol=1e-6)
                elif model == "joint":
                    # weak regularization makes the conditional-gradient tail
                    # crawl; recovery only needs the coarse geometry
                    X, truth = planted_euclidean(t, d, rng)
                    cfg = ModelConfig(d=d, alpha=1e-2, beta=1e-2, tol=1e-5)
                else:
                    X, truth = planted_euclidean(t, d, rng)
                    cfg = ModelConfig(d=d, alpha=1e-3, beta=1e-3, tol=1e-6)
                sol = solve_relaxation(model, X, cfg)
                if model == "cond-jc":
                    certified_jc += sol.converged
                    iterations_jc += sol.iterations
                rounded = spectral_round(sol.M, d, restarts=5,
                                         rng=np.random.default_rng(seed))
                if matched_accuracy(rounded.labels, truth) == 1.0:
                    hits += 1
            results[(model, d)] = hits
    assert all(hits >= 9 for hits in results.values()), results
    # ADMM certifies its residuals on all but at most one planted instance
    assert certified_jc >= 19, certified_jc
    # a step count, not a timing: it repeats exactly; plain ADMM took 12,311
    # steps here, Anderson with residual balancing 8,191, and Anderson at the
    # fixed curvature-scaled penalty takes 4,874
    assert iterations_jc <= 5300, iterations_jc
    assert time.time() - start < 120.0


def test_criterion_08_paper_scale_reproduction():
    _need_datasets(["breast", "orl", "spam"])
    # breast cancer, linear transfer, jointly convex conditional model
    rec = run_experiment(ExperimentSpec(dataset=str(DATA_DIR / "breast.csv"),
                                        model="cond-jc", transfer="linear"))
    assert abs(rec.obj_mean - 160.0) <= 16.0
    assert rec.acc_mean >= 0.75
    # ORL faces, sigmoid transfer, conditional model
    rec = run_experiment(ExperimentSpec(dataset=str(DATA_DIR / "orl.csv"),
                                        model="cond", transfer="sigmoid", clusters=40))
    assert rec.acc_mean >= 0.55
    # spam e-mail, sigmoid transfer, discriminative model
    ds = load_dataset(DATA_DIR / "spam.csv")
    sub = 1000 if ds.t > 1000 else None
    rec = run_experiment(ExperimentSpec(dataset=str(DATA_DIR / "spam.csv"),
                                        model="disc", transfer="sigmoid",
                                        subsample=sub))
    assert rec.acc_mean >= 0.75


def test_criterion_09_convex_beats_alternating_baseline():
    _need_datasets(ALL_DATASETS)
    wins = 0
    for name in ALL_DATASETS:
        path = str(DATA_DIR / f"{name}.csv")
        ds = load_dataset(path)
        sub = 1000 if ds.t > 1000 else None
        convex = run_experiment(ExperimentSpec(dataset=path, model="cond-jc",
                                               transfer="linear", subsample=sub))
        # best-of-30 alternating baseline on identical preprocessed data
        alt = run_experiment(ExperimentSpec(dataset=path, model="alt-hard",
                                            transfer="linear", subsample=sub,
                                            restarts=30))
        prep = preprocess(stratified_subsample(load_dataset(path), sub)
                          if sub else load_dataset(path), "linear")
        best_alt = min(cond_objective(prep.X, a) for a in alt.assignments)
        best_convex = min(cond_objective(prep.X, a) for a in convex.assignments)
        if best_convex <= best_alt * 1.01:
            wins += 1
    assert wins >= 5, f"convex pipeline won on {wins} of 7 datasets"


def test_criterion_10_benchmark_determinism(tmp_path):
    rng = np.random.default_rng(17)
    paths = []
    for k, (t, d) in enumerate(((16, 2), (18, 3))):
        X, labels = planted_euclidean(t, d, rng)
        p = tmp_path / f"synth{k}.csv"
        with open(p, "w") as fh:
            for row, lab in zip(X, labels):
                fh.write(",".join(f"{v:.6f}" for v in row) + f",{lab}\n")
        paths.append(p)

    def one_run(out):
        specs = []
        for p in paths:
            for model in ("cond-jc", "alt-hard", "soft-em"):
                specs.append(ExperimentSpec(dataset=str(p), model=model,
                                            seed=9,
                                            restarts=3 if model == "cond-jc" else 4,
                                            out=str(out / "cells")))
        records, failures = run_grid(specs)
        assert not failures
        emit_table(records, "csv", out / "results.csv")
        return (out / "results.csv").read_bytes()

    first = one_run(tmp_path / "run_a")
    second = one_run(tmp_path / "run_b")
    assert first == second
    # the table parses and covers every cell
    rows = list(csv.DictReader((tmp_path / "run_a" / "results.csv").open()))
    assert len(rows) == 6
