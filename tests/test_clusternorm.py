import numpy as np
import pytest

from bregrelax import (
    check_membership,
    cluster_norm,
    cluster_norm_dual,
    cluster_norm_dual_subgradient,
    cluster_prox,
    recover_equivalence,
    waterfill,
)

from conftest import grid_norm_squared, pinv_quadratic_form, random_feasible_sigma


def squared_norm(s, sigma):
    """The program's value at sigma: sum s_i^2 / sigma_i over sigma_i > 0."""
    s, live = np.asarray(s, dtype=float), sigma > 0
    return float(np.sum(s[live] ** 2 / sigma[live]))


def saturated(sigma):
    """Indices of the entries at the box bound sigma = 1."""
    return np.flatnonzero(np.abs(sigma - 1.0) <= 1e-12).tolist()


def test_waterfill_three_two_one():
    sigma = waterfill([3.0, 2.0, 1.0], 0.0, 3)
    assert saturated(sigma) == [0]  # the level meets the box exactly at the head
    assert squared_norm([3.0, 2.0, 1.0], sigma) == pytest.approx(18.0, rel=1e-12)
    assert np.allclose(sigma, [1.0, 2.0 / 3.0, 1.0 / 3.0])


def test_waterfill_two_one():
    sigma = waterfill([2.0, 1.0], 0.0, 2)
    assert squared_norm([2.0, 1.0], sigma) == pytest.approx(9.0, rel=1e-12)
    assert np.allclose(sigma, [2.0 / 3.0, 1.0 / 3.0])


def test_waterfill_saturated_head():
    # large head saturates at 1, tail splits the leftover budget
    sigma = waterfill([10.0, 1.0, 1.0], 0.0, 3)
    assert saturated(sigma) == [0]
    assert sigma[0] == pytest.approx(1.0)
    assert squared_norm([10.0, 1.0, 1.0], sigma) == pytest.approx(100.0 + 4.0, rel=1e-12)


def test_waterfill_low_rank_is_frobenius():
    sigma = waterfill([2.0, 1.0, 0.0, 0.0], 0.0, 4)
    assert squared_norm([2.0, 1.0, 0.0, 0.0], sigma) == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(sigma[:2], 1.0)


def test_waterfill_zero_spectrum():
    sigma = waterfill(np.zeros(4), 0.0, 3)
    assert squared_norm(np.zeros(4), sigma) == 0.0


def test_waterfill_pads_short_spectra():
    # a spectrum shorter than d - 1: the budget does not bind
    assert squared_norm([5.0], waterfill([5.0], 0.0, 4)) == pytest.approx(25.0)


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill([1.0, -0.5], 0.0, 3)
    with pytest.raises(ValueError):
        waterfill([1.0], 0.0, 1)


def test_waterfill_of_a_permuted_spectrum_is_the_permuted_sigma(rng):
    # no order is assumed: permuting the spectrum permutes the allocation
    for _ in range(40):
        d = int(rng.integers(2, 6))
        s = np.sort(rng.uniform(0.05, 4.0, size=int(rng.integers(1, 9))))[::-1]
        s[rng.random(s.size) < 0.2] = 0.0
        perm = rng.permutation(s.size)
        for w in (0.0, float(rng.uniform(0.01, 2.0))):
            got, want = waterfill(s[perm], w, d), waterfill(s, w, d)[perm]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_waterfill_matches_grid_oracle(rng):
    for _ in range(40):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, 7))
        s = np.sort(rng.uniform(0.05, 4.0, size=r))[::-1]
        value = squared_norm(s, waterfill(s, 0.0, d))
        ref = grid_norm_squared(s, d)
        assert value == pytest.approx(ref, rel=1e-5)


def test_waterfill_feasible_probe_certificates(rng):
    # the closed form lower-bounds every feasible allocation
    for _ in range(40):
        d = int(rng.integers(2, 5))
        s = np.sort(rng.uniform(0.1, 3.0, size=5))[::-1]
        sigma = waterfill(s, 0.0, d)
        assert sigma.max() <= 1.0 + 1e-12
        assert sigma.sum() <= d - 1 + 1e-9
        probe = random_feasible_sigma(5, d - 1, rng)
        mask = probe > 1e-12
        val = np.sum(s[mask] ** 2 / probe[mask]) + (np.inf if np.any(s[~mask] > 0) else 0.0)
        assert squared_norm(s, sigma) <= val + 1e-8


def test_norm_axioms(rng):
    d = 3
    for _ in range(25):
        T = rng.normal(size=(6, 4))
        S = rng.normal(size=(6, 4))
        a = float(rng.normal())
        nT = cluster_norm(T, d)
        assert nT >= 0.0
        assert cluster_norm(a * T, d) == pytest.approx(abs(a) * nT, rel=1e-9, abs=1e-12)
        assert cluster_norm(T + S, d) <= nT + cluster_norm(S, d) + 1e-9
    assert cluster_norm(np.zeros((5, 3)), d) == 0.0


def test_norm_unitary_invariance(rng):
    T = rng.normal(size=(5, 4))
    Qt, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    Qn, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert cluster_norm(Qt @ T @ Qn, 3) == pytest.approx(cluster_norm(T, 3), rel=1e-10)


def test_norm_frobenius_sandwich(rng):
    # uniform allocation sigma = (d-1)/r is always feasible, so the norm
    # sits between ||T||_F and sqrt(r/(d-1)) ||T||_F with r = min(t, n)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        T = rng.normal(size=(7, 5))
        fro = np.linalg.norm(T)
        val = cluster_norm(T, d)
        assert val >= fro - 1e-9
        assert val <= np.sqrt(5.0 / (d - 1)) * fro + 1e-9


def test_norm_equals_frobenius_on_low_rank(rng):
    U = rng.normal(size=(8, 2))
    V = rng.normal(size=(2, 5))
    T = U @ V  # rank 2 <= d - 1 for d = 3
    assert cluster_norm(T, 3) == pytest.approx(np.linalg.norm(T), rel=1e-10)


def test_dual_norm_top_block(rng):
    R = rng.normal(size=(6, 5))
    s = np.linalg.svd(R, compute_uv=False)
    assert cluster_norm_dual(R, 3) == pytest.approx(np.linalg.norm(s[:2]), rel=1e-12)
    assert cluster_norm_dual(R, 2) == pytest.approx(s[0], rel=1e-12)


def test_dual_subgradient_identities(rng):
    for _ in range(30):
        d = int(rng.integers(2, 5))
        R = rng.normal(size=(7, 4))
        S = cluster_norm_dual_subgradient(R, d)
        assert float(np.sum(R * S)) == pytest.approx(cluster_norm_dual(R, d), rel=1e-10)
        assert cluster_norm(S, d) == pytest.approx(1.0, rel=1e-9)


def test_dual_subgradient_rejects_zero():
    with pytest.raises(ValueError):
        cluster_norm_dual_subgradient(np.zeros((3, 3)), 3)


def test_primal_dual_cauchy_schwarz(rng):
    # |<T, R>| <= ||T|| * ||R||_dual for many random pairs
    for _ in range(200):
        d = int(rng.integers(2, 5))
        T = rng.normal(size=(5, 4))
        R = rng.normal(size=(5, 4))
        lhs = abs(float(np.sum(T * R)))
        assert lhs <= cluster_norm(T, d) * cluster_norm_dual(R, d) + 1e-9


def test_recover_equivalence_membership(rng):
    for _ in range(10):
        T = rng.normal(size=(6, 4))
        M, (sigma, U) = recover_equivalence(T, 3)
        assert check_membership(M, 3, "centered", tol=1e-8)
        val = pinv_quadratic_form(M, T)
        assert val == pytest.approx(cluster_norm(T, 3) ** 2, rel=1e-8)
        # the eigenpairs are T's left singular vectors under the water-filled spectrum
        assert np.array_equal((U * sigma) @ U.T, M)
        assert np.allclose(U, np.linalg.svd(T, full_matrices=False)[0])


def test_recover_equivalence_rank_bound(rng):
    T = rng.normal(size=(8, 5))
    M, (sigma, U) = recover_equivalence(T, 3)
    eigs = np.linalg.eigvalsh(M)
    assert np.sum(eigs) <= 2.0 + 1e-8
    assert U.shape == (8, 5) and sigma.shape == (5,) and np.sum(sigma) <= 2.0 + 1e-12


def test_recover_equivalence_gives_roundoff_no_budget():
    # a rank-1 T: its roundoff singular values get no eigenvalue budget, so M
    # is the projector onto Im(T) and the norm is Frobenius
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 1))
    T = a @ rng.normal(size=(1, 5))
    M, (sigma, U) = recover_equivalence(T, 4)
    assert np.array_equal(sigma, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(M, a @ a.T / np.sum(a * a), rtol=0.0, atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(M), [0.0] * 7 + [1.0], rtol=0.0, atol=1e-12)
    assert cluster_norm(T, 4) == pytest.approx(np.linalg.norm(T), rel=1e-12)


def test_recover_equivalence_zero_is_zero_matrix():
    M, eigenpairs = recover_equivalence(np.zeros((4, 2)), 3)
    assert M.shape == (4, 4) and not np.any(M)
    assert eigenpairs is None


def test_prox_of_low_rank_input_is_a_uniform_shrink(rng):
    # rank <= d - 1: the norm is Frobenius there, so the prox is Y / (1 + w)
    for rank, d in ((1, 2), (1, 3), (2, 3), (3, 4)):
        Y = rng.normal(size=(7, rank)) @ rng.normal(size=(rank, 5))
        T, norm2 = cluster_prox(Y, 0.7, d)
        assert np.array_equal(T, Y / 1.7)
        assert norm2 == pytest.approx(np.sum(T * T), rel=1e-12)


def test_prox_norm_is_the_waterfill_of_its_output(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        Y = rng.normal(scale=rng.uniform(0.2, 3.0), size=(int(rng.integers(d, 9)), 4))
        w = float(rng.uniform(1e-4, 2.0))
        T, norm2 = cluster_prox(Y, w, d)
        s = np.linalg.svd(T, compute_uv=False)
        assert norm2 == pytest.approx(squared_norm(s, waterfill(s, 0.0, d)), rel=1e-10, abs=1e-14)
        # first-order optimality: Y - T is w times a subgradient of norm^2 / 2 at T
        assert cluster_norm_dual(Y - T, d) == pytest.approx(w * np.sqrt(norm2), rel=1e-8)
        assert np.sum((Y - T) * T) == pytest.approx(w * norm2, rel=1e-8)


def test_prox_of_zero_is_zero():
    T, norm2 = cluster_prox(np.zeros((5, 3)), 0.4, 3)
    assert T.shape == (5, 3) and not np.any(T) and norm2 == 0.0
