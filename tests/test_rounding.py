"""Rounding and scoring: spectral embedding, k-means, reoptimization,
matching-based accuracies.

Matching oracles enumerate permutations; hard-objective oracles scan all
assignments on small instances.
"""

import itertools
import warnings

import numpy as np
import pytest

from bregrelax import (
    ModelConfig,
    cond_objective,
    family,
    hard_reopt,
    joint_hard_reopt,
    kmeans,
    matched_accuracy,
    soft_accuracy,
    solve_relaxation,
    spectral_embedding,
    spectral_round,
)
from bregrelax.rounding import _max_matching, cluster_means, lloyd

from conftest import (
    equivalence_from_assignment,
    exhaustive_hard_optimum,
    lloyd_reference,
    planted_bernoulli,
    planted_euclidean,
    spectral_embedding_reference,
)


def equivalence_of(labels, d):
    Y = np.zeros((len(labels), d))
    Y[np.arange(len(labels)), labels] = 1.0
    return equivalence_from_assignment(Y)


# ----------------------------------------------------------- matched accuracy


def test_matched_accuracy_identical_labels(rng):
    truth = rng.integers(0, 3, size=30)
    truth[:3] = [0, 1, 2]  # every cluster occupied
    assert matched_accuracy(truth, truth) == 1.0


def test_matched_accuracy_relabel_invariance(rng):
    truth = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 4, size=50)
    base = matched_accuracy(pred, truth)
    for _ in range(10):
        perm = rng.permutation(4)
        assert matched_accuracy(perm[pred], truth) == base


def test_matched_accuracy_contingency_example():
    # contingency [[3, 1], [0, 4]]: cluster 0 holds 3 of class 0 and 1 of
    # class 1, cluster 1 holds 4 of class 1
    pred = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    truth = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    acc = matched_accuracy(pred, truth)
    assert acc == pytest.approx(7.0 / 8.0)
    # exhaustive check over both 2x2 matchings
    table = np.zeros((2, 2))
    np.add.at(table, (pred, truth), 1.0)
    assert acc == max(table[0, 0] + table[1, 1], table[0, 1] + table[1, 0]) / 8.0


def test_matched_accuracy_rectangular():
    # more clusters than classes: the extra cluster stays unmatched
    pred = np.array([0, 0, 1, 1, 2, 2])
    truth = np.array([0, 0, 1, 1, 0, 1])
    assert matched_accuracy(pred, truth) == pytest.approx(4.0 / 6.0)
    # more classes than clusters: the extra class goes unmatched
    acc = matched_accuracy(np.array([0, 0, 1, 1]), np.array([0, 1, 2, 2]))
    assert acc == pytest.approx(3.0 / 4.0)


def test_matched_accuracy_dominates_fixed_matchings(rng):
    # maximization certificate: any fixed cluster->class permutation scores
    # no better than the solved matching
    pred = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 4, size=60)
    best = matched_accuracy(pred, truth)
    for _ in range(100):
        perm = rng.permutation(4)
        fixed = float(np.mean(perm[pred] == truth))
        assert best >= fixed - 1e-12


def test_matched_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        matched_accuracy([0, 1], [0, 1, 1])


def test_matched_accuracy_rejects_negative_labels():
    # a one-hot row of -1 would be read as the last cluster
    with pytest.raises(ValueError, match="nonnegative"):
        matched_accuracy([0, 1, -1, 1], [0, 1, 2, 1])


# -------------------------------------------------------------- soft accuracy


def test_soft_accuracy_one_hot_reduces_to_matched(rng):
    # matched_accuracy is soft_accuracy on one-hot labels, so check both
    # against every cluster -> class permutation rather than each other
    truth = rng.integers(0, 3, size=24)
    pred = rng.integers(0, 3, size=24)
    best = max(np.mean(np.array(perm)[pred] == truth)
               for perm in itertools.permutations(range(3)))
    P = np.zeros((24, 3))
    P[np.arange(24), pred] = 1.0
    for val in (soft_accuracy(P, truth), matched_accuracy(pred, truth)):
        assert val == pytest.approx(best, rel=1e-12)


def test_matched_accuracy_is_soft_accuracy_of_one_hot_labels_exactly(rng):
    # the bincount contingency table is the one-hot GEMM's, so both pick the
    # same matching; empty clusters and classes, and more or fewer clusters
    # than classes, included
    for _ in range(200):
        t, k, c = rng.integers(1, 40), rng.integers(1, 7), rng.integers(1, 7)
        pred, truth = rng.integers(0, k, size=t), rng.integers(0, c, size=t)
        assert matched_accuracy(pred, truth) == soft_accuracy(np.eye(pred.max() + 1)[pred], truth)
    pred = np.array([0, 0, 3, 3, 3, 5])  # clusters 1, 2 and 4 empty
    truth = np.array([1, 1, 1, 0, 0, 0])
    assert matched_accuracy(pred, truth) == soft_accuracy(np.eye(6)[pred], truth) == 4.0 / 6.0


def test_soft_accuracy_uniform_posterior(rng):
    for d in (2, 3, 5):
        truth = rng.integers(0, d, size=20)
        P = np.full((20, d), 1.0 / d)
        assert soft_accuracy(P, truth) == pytest.approx(1.0 / d, rel=1e-12)


def test_soft_accuracy_random_brute_force(rng):
    # d = 2: only two matchings exist, enumerate them
    P = rng.uniform(0.1, 1.0, size=(6, 2))
    P /= P.sum(axis=1, keepdims=True)
    truth = np.array([0, 1, 0, 1, 1, 0])
    credit = np.zeros((2, 2))
    for j, c in itertools.product(range(2), range(2)):
        credit[j, c] = P[truth == c, j].sum()
    expected = max(credit[0, 0] + credit[1, 1], credit[0, 1] + credit[1, 0]) / 6.0
    assert soft_accuracy(P, truth) == pytest.approx(expected, rel=1e-12)


def test_soft_accuracy_row_sum_validation(rng):
    P = rng.uniform(size=(5, 2))  # rows not normalized
    with pytest.raises(ValueError, match="sum to one"):
        soft_accuracy(P, np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match="rows"):
        soft_accuracy(np.full((4, 2), 0.5), np.zeros(5, dtype=int))


def test_soft_accuracy_rejects_negative_truth():
    P = np.full((4, 2), 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        soft_accuracy(P, [0, 1, -1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        matched_accuracy([0, 1, 0, 1], [0, 1, -1, 1])


def test_soft_accuracy_rejects_negative_posterior_entries():
    # rows sum to one, but negative mass would credit 2.0 to class 0
    with pytest.raises(ValueError, match="nonnegative"):
        soft_accuracy([[2.0, -1.0], [2.0, -1.0]], [0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_soft_accuracy_rejects_non_finite_posterior_entries(bad):
    # a NaN row passes the row-sum check (NaN compares false), so it would
    # reach the matching solver
    P = np.full((3, 2), 0.5)
    P[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        soft_accuracy(P, [0, 1, 0])


def test_accuracies_reject_empty_inputs():
    with pytest.raises(ValueError, match="no points"):
        soft_accuracy(np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match="no points"):
        matched_accuracy([], [])


# --------------------------------------------------------------- the matching


def _best_matching_value(table):
    # every injective map of the shorter side into the longer, its pairs
    # summed in ascending row order, as the matching's are
    k, c = table.shape
    best = -np.inf
    for chosen in itertools.permutations(range(max(k, c)), min(k, c)):
        rows, cols = (np.arange(k), np.array(chosen)) if k <= c else (np.array(chosen), np.arange(c))
        order = np.argsort(rows)
        best = max(best, table[rows[order], cols[order]].sum())
    return best


@pytest.mark.parametrize("integer", [False, True], ids=["continuous", "integer-ties"])
def test_max_matching_attains_the_best_permutation(rng, integer):
    shapes = [(1, 1)] + [tuple(map(int, s)) for s in rng.integers(1, 7, size=(60, 2))]
    assert any(k < c for k, c in shapes) and any(k > c for k, c in shapes)
    for k, c in shapes:
        table = rng.integers(0, 4, size=(k, c)).astype(float) if integer else rng.random((k, c))
        rows, cols = _max_matching(table)
        assert rows.tolist() == sorted(set(rows.tolist()))  # distinct and ascending
        assert len(rows) == len(set(cols.tolist())) == min(k, c)
        assert table[rows, cols].sum() == _best_matching_value(table)


def test_max_matching_pairs_are_scipys(rng):
    optimize = pytest.importorskip("scipy.optimize")
    for k, c in rng.integers(1, 7, size=(100, 2)):
        table = rng.random((k, c))
        rows, cols = _max_matching(table)
        expected_rows, expected_cols = optimize.linear_sum_assignment(table, maximize=True)
        assert rows.tolist() == expected_rows.tolist() and cols.tolist() == expected_cols.tolist()


# -------------------------------------------------------------------- k-means


def test_kmeans_k_equals_t_zero_inertia(rng):
    X = rng.normal(size=(6, 3))
    res = kmeans(X, 6, rng=0)
    assert res.objective == pytest.approx(0.0, abs=1e-20)
    assert len(set(res.labels.tolist())) == 6


def test_kmeans_recovers_separated_blobs(rng):
    X, truth = planted_euclidean(40, 2, rng)
    assert matched_accuracy(kmeans(X, 2, rng=1).labels, truth) == 1.0


def test_kmeans_objective_monotone_in_iterations(rng):
    X = rng.normal(size=(30, 2))
    # the trace holds the objective after each Lloyd sweep: extra sweeps
    # cannot hurt
    vals = kmeans(X, 3, rng=7).trace
    assert len(vals) > 1
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_kmeans_deterministic_per_seed(rng):
    X = rng.normal(size=(25, 2))
    a, b = kmeans(X, 3, rng=42), kmeans(X, 3, rng=42)
    assert np.array_equal(a.labels, b.labels) and a.objective == b.objective


def test_kmeans_inertia_is_squared_distance_to_returned_centers(rng):
    X = rng.normal(size=(30, 2))
    # the objective is half the inertia, also for a loop cut by max_iter
    labels0 = np.arange(30) % 3
    for res in [kmeans(X, 3, rng=5)] + [lloyd(X, [labels0], max_iter=m)[0] for m in (1, 2)]:
        expected = float(np.sum((X - res.centers[res.labels]) ** 2))
        assert 2.0 * res.objective == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------- hard reopt


def test_hard_reopt_fixed_point_unchanged(rng):
    X, truth = planted_euclidean(12, 2, rng)
    res = hard_reopt(X, truth)
    assert np.array_equal(res.labels, truth)
    assert res.objective == pytest.approx(cond_objective(X, truth), rel=1e-12)


def test_hard_reopt_never_increases(rng):
    for fam_name in ("euclidean", "bernoulli"):
        for trial in range(5):
            if fam_name == "euclidean":
                X = rng.normal(size=(15, 3))
            else:
                X = rng.uniform(0.1, 0.9, size=(15, 3))
            labels0 = rng.integers(0, 3, size=15)
            res = hard_reopt(X, labels0, fam_name)
            assert res.objective <= cond_objective(X, labels0, fam_name) + 1e-12


def test_hard_reopt_repairs_single_flip(rng):
    X, truth = planted_euclidean(8, 2, rng)
    best, best_labels = exhaustive_hard_optimum(X, 2)
    corrupted = truth.copy()
    corrupted[0] = 1 - corrupted[0]
    res = hard_reopt(X, corrupted)
    assert res.objective == pytest.approx(best, rel=1e-10)
    assert matched_accuracy(res.labels, best_labels) == 1.0


def test_hard_reopt_trace_nonincreasing(rng):
    X = rng.normal(size=(20, 2))
    res = hard_reopt(X, rng.integers(0, 4, size=20))
    diffs = np.diff(res.trace)
    assert np.all(diffs <= 1e-12)


def test_hard_reopt_objective_reproducible(rng):
    X = rng.uniform(0.1, 0.9, size=(14, 4))
    res = hard_reopt(X, rng.integers(0, 3, size=14), "bernoulli")
    assert res.objective == pytest.approx(
        cond_objective(X, res.labels, "bernoulli"), abs=1e-10
    )


@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_hard_reopt_objective_is_cond_objective_bit_for_bit(fam_name):
    # Lloyd records the cost cond_objective reads, so the two agree exactly
    for seed in range(10):
        rng = np.random.default_rng(seed)
        if fam_name == "euclidean":
            X = rng.normal(size=(30, 4))
        else:
            X = rng.uniform(0.05, 0.95, size=(30, 4))
        res = hard_reopt(X, rng.integers(0, 3, size=30), fam_name, d=3)
        assert cond_objective(X, res.labels, fam_name) == res.objective


def test_hard_reopt_label_validation(rng):
    X = rng.normal(size=(5, 2))
    with pytest.raises(ValueError, match="entries"):
        hard_reopt(X, [0, 1, 0])
    with pytest.raises(ValueError, match="entries"):
        lloyd(X, np.zeros((3, 4), dtype=int))  # a stack of starts of the wrong width
    with pytest.raises(ValueError, match="nonnegative"):
        hard_reopt(X, [0, -1, 0, 1, 1])


def test_empty_cluster_start_revives_every_cluster(rng):
    # labels0 uses 2 of d = 3 clusters; the point farthest from its own
    # center moves into the empty one, which cannot raise the objective
    X = rng.normal(size=(15, 2))
    labels0 = np.arange(15) % 2
    res = hard_reopt(X, labels0, d=3)
    assert sorted(set(res.labels.tolist())) == [0, 1, 2]
    assert np.all(np.diff(res.trace) <= 1e-12)
    assert res.trace[0] <= cond_objective(X, labels0) + 1e-12
    # two distinct points for three clusters: the third kmeans++ seed
    # duplicates one of the first two and leaves its cluster empty
    X = np.array([[1.0, 0.0]] * 3 + [[-1.0, 0.0]] * 3)
    res = kmeans(X, 3, rng=0)
    assert sorted(set(res.labels.tolist())) == [0, 1, 2]
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_reopt_results_belong_to_returned_labels(rng):
    # a sweep cap can cut the loop before a fixed point; whatever labels
    # come back, the centers, weights and objective must be theirs
    X = rng.normal(size=(20, 2))
    labels0 = rng.integers(0, 3, size=20)
    for max_iter in (1, 2):
        res = lloyd(X, [labels0], max_iter=max_iter, d=3)[0]
        assert np.allclose(res.centers, cluster_means(X, res.labels, 3)[0])
        assert res.objective == pytest.approx(cond_objective(X, res.labels), rel=1e-12)
        res = lloyd(X, [labels0], max_iter=max_iter, d=3, log_prior=True)[0]
        centers, counts = cluster_means(X, res.labels, 3)
        assert np.allclose(res.centers, centers)
        assert np.allclose(res.weights, np.log(counts / 20))


# each case runs the lloyd loop that the named reopt runs
@pytest.mark.parametrize(
    "log_prior", [False, True], ids=["hard_reopt", "joint_hard_reopt"]
)
def test_lloyd_rejects_max_iter_below_one(rng, log_prior):
    with pytest.raises(ValueError, match="max_iter"):
        lloyd(rng.normal(size=(10, 2)), [np.arange(10) % 2], max_iter=0,
              log_prior=log_prior)


@pytest.mark.parametrize("log_prior", [False, True])
@pytest.mark.parametrize("fam_name", ["euclidean", "bernoulli"])
def test_lloyd_matches_the_per_sweep_oracle_bit_for_bit(fam_name, log_prior):
    # one stack of starts must give, start by start, what a fresh
    # pairwise_divergence gives in every sweep of a lone run; odd seeds
    # start with cluster 3 empty, and the starts stop at different sweeps
    rng = np.random.default_rng(0)
    if fam_name == "euclidean":
        X = rng.normal(size=(40, 3))
    else:
        X = rng.uniform(0.02, 0.98, size=(40, 3))
    starts = [np.random.default_rng(seed).integers(0, 3 if seed % 2 else 4, size=40)
              for seed in range(8)]
    for max_iter in (2, 200):
        results = lloyd(X, starts, fam_name, max_iter, 4, log_prior)
        assert len(results) == len(starts)
        for res, labels0 in zip(results, starts):
            labels, centers, weights, trace, iterations = lloyd_reference(
                X, labels0, fam_name, max_iter, 4, log_prior
            )
            assert np.array_equal(res.labels, labels)
            assert np.array_equal(res.centers, centers)
            assert np.array_equal(res.weights, weights)
            assert res.trace == trace
            assert res.objective == trace[-1]
            assert res.iterations == iterations
    sweeps = [res.iterations for res in results]
    assert len(set(sweeps)) > 2 and sum(sweeps) > 8 * 3


@pytest.mark.parametrize("log_prior", [False, True])
def test_lloyd_breaks_exact_ties_to_the_first_cluster_like_argmin(log_prior):
    # symmetric integer data whose cluster means coincide: every point ties
    # between clusters, and the assignment step must pick argmin's first index
    X = np.array([[-1.0], [1.0], [-2.0], [2.0], [-3.0], [3.0]])
    starts = [[0, 0, 1, 1, 2, 2], [1, 1, 0, 0, 2, 2], [2, 2, 1, 1, 0, 0], [0, 1, 0, 1, 0, 1]]
    for res, labels0 in zip(lloyd(X, starts, d=3, log_prior=log_prior), starts):
        labels, centers, _, trace, iterations = lloyd_reference(X, labels0, "euclidean", 200,
                                                                3, log_prior)
        assert np.array_equal(res.labels, labels) and np.array_equal(res.centers, centers)
        assert res.trace == trace and res.iterations == iterations


# ---------------------------------------------------------- spectral rounding


def test_spectral_embedding_exact_equivalence():
    labels = np.array([0, 0, 1, 1, 1])
    V = spectral_embedding(equivalence_of(labels, 2), 2)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0)
    # same cluster -> identical embedded rows, different -> orthogonal
    assert np.allclose(V[0], V[1]) and np.allclose(V[2], V[3])
    assert abs(float(V[0] @ V[2])) <= 1e-10


def test_spectral_embedding_degenerate_warns():
    M = np.full((6, 6), 1.0 / 6.0)  # rank one: supports a single dimension
    with pytest.warns(RuntimeWarning, match="embedding dimensions"):
        V = spectral_embedding(M, 2)
    assert V.shape == (6, 1)


@pytest.mark.parametrize("t, d, rank", [(6, 2, 6), (30, 3, 30), (30, 9, 30), (40, 12, 40),
                                        (20, 4, 2)])
def test_dense_embedding_is_the_reference_bit_for_bit(rng, t, d, rank):
    # the dense path copies only the kept columns, the reference reorders all
    # t first; also on an asymmetric M (as ADMM returns) and a rank-deficient one
    A = rng.normal(size=(t, rank))
    M = A @ A.T / t + 1e-6 * rng.normal(size=(t, t))
    if rank < d:
        M = 0.5 * (M + M.T) - 1e-5 * np.eye(t)  # no spurious positive tail
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        V = spectral_embedding(M, d)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        ref = spectral_embedding_reference(M, d)
    assert np.array_equal(V, ref)
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert bool(want) == (rank < d)


def test_zero_T_solution_embeds_densely_with_the_same_warning_and_bits(rng):
    # a GCG solve stopped at T = 0 (max_iter=0, as perfbench's smoke disc
    # cell runs) has no factor; the dense path warns and embeds as the reference
    X, _ = planted_bernoulli(12, 3, rng)
    sol = solve_relaxation("disc", X, ModelConfig(d=3, family="bernoulli", max_iter=0))
    assert sol.eigenpairs is None
    with pytest.warns(RuntimeWarning, match="supports 0 of 3"):
        V = spectral_embedding(sol.M, 3, sol.eigenpairs)
    with pytest.warns(RuntimeWarning, match="supports 0 of 3"):
        ref = spectral_embedding_reference(sol.M, 3)
    assert np.array_equal(V, ref)


def test_spectral_round_exact_partition(rng):
    labels = np.array([0, 0, 1, 1, 1, 0, 1])
    M = equivalence_of(labels, 2)
    res = spectral_round(M, 2, rng=rng)
    assert matched_accuracy(res.labels, labels) == 1.0


def test_spectral_round_rejects_zero_restarts(rng):
    M = equivalence_of(np.arange(6) % 2, 2)
    with pytest.raises(ValueError, match="restarts"):
        spectral_round(M, 2, restarts=0, rng=rng)


def test_spectral_round_uninformative_matrix_warns(rng):
    with pytest.warns(RuntimeWarning):
        res = spectral_round(np.full((8, 8), 0.125), 2, rng=rng)
    assert set(res.labels.tolist()) <= {0, 1}


def test_spectral_round_noisy_equivalence(rng):
    labels = np.arange(18) % 3
    M = equivalence_of(labels, 3)
    E = 0.02 * rng.normal(size=M.shape)
    res = spectral_round(M + 0.5 * (E + E.T), 3, rng=rng)
    assert matched_accuracy(res.labels, labels) == 1.0


def test_spectral_round_permutation_equivariance(rng):
    labels = np.arange(12) % 2
    M = equivalence_of(labels, 2)
    perm = rng.permutation(12)
    res = spectral_round(M, 2, rng=np.random.default_rng(5))
    res_p = spectral_round(M[np.ix_(perm, perm)], 2, rng=np.random.default_rng(5))
    # permuted input, permuted assignment; k-means tie-breaks may relabel,
    # so compare partitions and objectives rather than raw labels
    assert matched_accuracy(res_p.labels, res.labels[perm]) == 1.0
    assert res_p.objective == pytest.approx(res.objective, abs=1e-9)


def test_spectral_round_embedding_reuse(rng):
    labels = np.arange(10) % 2
    M = equivalence_of(labels, 2)
    V = spectral_embedding(M, 2)
    res_a = spectral_round(M, 2, rng=np.random.default_rng(3))
    res_b = spectral_round(M, 2, rng=np.random.default_rng(3), embedding=V)
    assert np.array_equal(res_a.labels, res_b.labels)


def test_cluster_means_counts_and_empty_rows():
    X = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
    centers, counts = cluster_means(X, np.array([0, 0, 2]), 3)
    assert np.allclose(centers[0], [1.0, 1.0])
    assert np.allclose(centers[1], 0.0)  # empty cluster stays at zero
    assert np.allclose(centers[2], [4.0, 4.0])
    assert counts.tolist() == [2.0, 0.0, 1.0]
