import numpy as np
import pytest

from bregrelax import capped_box_simplex_project, check_membership, project_rowsum
from bregrelax.geometry import clip_level, simplex_project_rows

from conftest import (
    RangeError,
    assert_box_budget_projection,
    assert_simplex_projection,
    cvxpy_project_rowsum,
    equivalence_from_assignment,
    indicator,
    pinv_quadratic_form,
    require_cvxpy,
    simplex_project,
)


def test_equivalence_singletons_is_identity():
    Y = np.eye(3)
    assert np.allclose(equivalence_from_assignment(Y), np.eye(3))


def test_equivalence_two_pair_blocks():
    Y = indicator([0, 0, 1, 1], 2)
    M = equivalence_from_assignment(Y)
    block = np.full((2, 2), 0.5)
    want = np.zeros((4, 4))
    want[:2, :2] = block
    want[2:, 2:] = block
    assert np.allclose(M, want)


def test_equivalence_idempotent_projector():
    Y = indicator([0, 0, 1], 2)
    M = equivalence_from_assignment(Y)
    assert np.allclose(M @ M, M, atol=1e-12)
    assert np.allclose(M, M.T)
    assert np.trace(M) == pytest.approx(2.0)
    assert np.allclose(M.sum(axis=1), 1.0)
    assert np.all(M >= 0.0)


def test_equivalence_empty_cluster_blocks_allowed():
    Y = indicator([0, 0, 0], 2)  # cluster 1 empty
    M = equivalence_from_assignment(Y)
    assert np.allclose(M, np.full((3, 3), 1.0 / 3.0))
    assert np.trace(M) == pytest.approx(1.0)


def test_equivalence_rejects_bad_rows():
    Y = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        equivalence_from_assignment(Y)


def test_membership_uniform_matrix_in_rowsum():
    t = 5
    M = np.full((t, t), 1.0 / t)
    assert check_membership(M, 2, "rowsum")
    assert check_membership(M, 2, "simplex")


def test_membership_identity_fails_trace():
    report = check_membership(np.eye(5), 2, "rowsum")
    assert not report
    assert "trace" in report.violations
    assert report.worst == pytest.approx(3.0)


def test_membership_from_assignment(rng):
    labels = rng.integers(0, 3, size=7)
    labels[:3] = [0, 1, 2]
    M = equivalence_from_assignment(indicator(labels, 3))
    assert check_membership(M, 3, "simplex")
    assert check_membership(M, 3, "rowsum")


def test_membership_centered_budget():
    M = np.diag([1.0, 1.0, 0.0, 0.0])
    assert check_membership(M, 3, "centered")
    assert not check_membership(M, 2, "centered")


def test_membership_rejects_unknown_set():
    with pytest.raises(ValueError):
        check_membership(np.eye(2), 2, "m9")


def test_clip_level_meets_the_budget(rng):
    # slopes spanning eight decades, offsets drawn from a few repeated values
    # or spread, and every third budget placed exactly on a kink of the sum
    for trial in range(1500):
        t = int(rng.integers(1, 40))
        slope = 10.0 ** rng.uniform(-4.0, 4.0, size=t)
        if trial % 2:
            offset = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0], size=t)
        else:
            offset = rng.normal(size=t) * rng.choice([0.3, 3.0, 30.0])
        if trial % 3 == 0:
            kinks = np.concatenate([-offset, 1.0 - offset]) / np.concatenate([slope, slope])
            budget = float(np.clip(slope * rng.choice(kinks) + offset, 0.0, 1.0).sum())
        elif trial % 3 == 1:
            budget = float(rng.integers(1, t + 1))  # integers: the plateaus' own values
        else:
            budget = float(rng.uniform(0.0, t))
        if not 0.0 < budget < t:
            continue
        c = clip_level(slope, offset, budget)
        assert np.clip(slope * c + offset, 0.0, 1.0).sum() == pytest.approx(budget, rel=1e-12)


def test_clip_level_on_spectra_spanning_sixteen_decades(rng):
    # water-filling slopes: O(1) singular values beside ones near roundoff,
    # with integer budgets that make the small ones carry the level
    for _ in range(3000):
        t = int(rng.integers(2, 9))
        x = rng.uniform(0.1, 5.0, size=t)
        small = rng.permutation(t)[: int(rng.integers(1, t))]
        x[small] *= rng.choice([1e-16, 1e-14, 1e-12], size=small.size)
        w = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        budget = float(rng.integers(1, t))
        c = clip_level(x, -w, budget)
        assert np.clip(x * c - w, 0.0, 1.0).sum() == pytest.approx(budget, rel=1e-12)


def test_clip_level_rejects_an_unreachable_budget():
    for budget in (0.0, 3.0, -1.0):
        with pytest.raises(ValueError):
            clip_level([1.0, 2.0, 3.0], 0.0, budget)


def test_capped_box_interior_point():
    out = capped_box_simplex_project([0.2, 0.3], 2.0)
    assert np.allclose(out, [0.2, 0.3])


def test_capped_box_vertex_case():
    out = capped_box_simplex_project([1.5, 0.5, -0.2], 1.0)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)


def test_capped_box_symmetric_split():
    out = capped_box_simplex_project([2.0, 2.0], 1.0)
    assert np.allclose(out, [0.5, 0.5])


def test_capped_box_rejects_bad_budget():
    with pytest.raises(ValueError):
        capped_box_simplex_project([0.5], 0.0)


def test_capped_box_kkt(rng):
    for _ in range(50):
        t = rng.integers(2, 9)
        sigma = rng.normal(size=t) * 2.0
        budget = float(rng.uniform(0.5, t - 0.5))
        mu = capped_box_simplex_project(sigma, budget)
        assert np.all(mu >= -1e-12) and np.all(mu <= 1.0 + 1e-12)
        assert mu.sum() <= budget + 1e-8
        interior = (mu > 1e-9) & (mu < 1.0 - 1e-9)
        if interior.sum() >= 2:
            shifts = mu[interior] - sigma[interior]
            assert np.ptp(shifts) <= 1e-8
        if interior.any():
            lam = float(np.mean(sigma[interior] - mu[interior]))
            assert lam >= -1e-8
            # complementary slackness
            assert lam * (budget - mu.sum()) == pytest.approx(0.0, abs=1e-8)


def _dense_scan_project(sigma, budget):
    """The O(t^2) scan: the clipped sum evaluated at every breakpoint at once."""
    sigma = np.asarray(sigma, dtype=float)
    clipped = np.clip(sigma, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    points = np.unique(np.concatenate([sigma, sigma - 1.0]))
    points = np.concatenate([[0.0], points[points > 0.0]])
    values = np.clip(sigma - points[:, None], 0.0, 1.0).sum(axis=1)
    k = int(np.argmax(values <= budget))
    lo, hi, glo, ghi = points[k - 1], points[k], values[k - 1], values[k]
    lam = hi if ghi == budget else lo + (glo - budget) * (hi - lo) / (glo - ghi)
    return np.clip(sigma - lam, 0.0, 1.0)


def test_capped_box_sorted_scan_matches_dense_scan(rng):
    for trial in range(3000):
        t = int(rng.integers(1, 40))
        if trial % 3 == 0:
            # half-integer grid: repeated entries and breakpoints one apart
            sigma = rng.integers(-4, 8, size=t) / 2.0
        else:
            sigma = rng.normal(size=t) * rng.choice([0.3, 1.0, 3.0])
        # budgets from well below the clipped sum to above it
        budget = float(rng.uniform(0.1, t + 1.0))
        if trial % 7 == 0:
            budget = float(rng.integers(1, t + 2))
        got = capped_box_simplex_project(sigma, budget)
        want = _dense_scan_project(sigma, budget)
        assert np.max(np.abs(got - want)) <= 1e-12, (sigma, budget)


def test_capped_box_matches_qp_oracle(rng):
    cp = require_cvxpy()
    for _ in range(5):
        sigma = rng.normal(size=6) * 1.5
        budget = float(rng.uniform(1.0, 4.0))
        mu = cp.Variable(6)
        prob = cp.Problem(
            cp.Minimize(cp.sum_squares(mu - sigma)),
            [mu >= 0, mu <= 1, cp.sum(mu) <= budget],
        )
        prob.solve(solver="CLARABEL")
        assert np.allclose(capped_box_simplex_project(sigma, budget), mu.value, atol=1e-7)


def test_simplex_project_fixed_point():
    v = np.array([0.25, 0.5, 0.25])
    assert np.allclose(simplex_project_rows([v])[0], v)


def test_simplex_project_vertex():
    assert np.allclose(simplex_project_rows([[2.0, 0.0]])[0], [1.0, 0.0])


def test_simplex_project_threshold_case():
    out = simplex_project_rows([[0.8, 0.6, -0.1]])[0]
    assert np.allclose(out, [0.6, 0.4, 0.0], atol=1e-12)
    assert out.sum() == pytest.approx(1.0)


def test_simplex_project_matches_qp_oracle(rng):
    cp = require_cvxpy()
    for _ in range(5):
        v = rng.normal(size=5) * 2.0
        m = cp.Variable(5)
        prob = cp.Problem(cp.Minimize(cp.sum_squares(m - v)), [m >= 0, cp.sum(m) == 1])
        prob.solve(solver="CLARABEL")
        assert np.allclose(simplex_project_rows([v])[0], m.value, atol=1e-7)


def test_simplex_project_rows_consistency(rng):
    V = rng.normal(size=(6, 4))
    rows = simplex_project_rows(V)
    for i in range(6):
        assert np.allclose(rows[i], simplex_project(V[i]), atol=1e-12)
    assert np.allclose(rows.sum(axis=1), 1.0)


def test_simplex_project_rows_variational_inequality(rng):
    # independent of the sorted-threshold algorithm: the linear-program
    # optimality oracle, on spreads of scale, ties and single columns
    for trial in range(300):
        r = int(rng.integers(1, 30))
        V = rng.normal(size=(8, r)) * rng.choice([1e-3, 0.3, 1.0, 30.0])
        if trial % 4 == 0:
            V = rng.integers(-3, 4, size=(8, r)) / 2.0  # repeated entries
        assert_simplex_projection(V, simplex_project_rows(V))


def test_capped_box_variational_inequality(rng):
    for trial in range(2000):
        r = int(rng.integers(1, 40))
        if trial % 3 == 0:
            sigma = rng.integers(-4, 8, size=r) / 2.0
        else:
            sigma = rng.normal(size=r) * rng.choice([0.3, 1.0, 3.0, 50.0])
        budget = float(rng.uniform(0.1, r + 1.0))
        if trial % 7 == 0:
            budget = float(rng.integers(1, r + 2))  # integer budgets, some above r
        assert_box_budget_projection(sigma, budget, capped_box_simplex_project(sigma, budget))


def test_project_rowsum_uniform_fixed_point():
    t = 6
    A = np.full((t, t), 1.0 / t)
    assert np.allclose(project_rowsum(A, 3), A, atol=1e-10)


def test_project_rowsum_fixed_point_on_members(rng):
    A = rng.normal(size=(6, 6))
    Z = project_rowsum(0.5 * (A + A.T), 3)
    assert np.allclose(project_rowsum(Z, 3), Z, atol=1e-8)
    assert check_membership(Z, 3, "rowsum")


def test_project_rowsum_matches_convex_oracle(rng):
    for _ in range(3):
        A = rng.normal(size=(6, 6))
        A = 0.5 * (A + A.T)
        Z_ref = cvxpy_project_rowsum(A, 3)
        Z = project_rowsum(A, 3)
        assert np.max(np.abs(Z - Z_ref)) <= 1e-6


def test_project_rowsum_optimality_against_probes(rng):
    A = rng.normal(size=(7, 7))
    A = 0.5 * (A + A.T)
    Z = project_rowsum(A, 3)
    dist = np.linalg.norm(Z - A)
    for _ in range(25):
        B = rng.normal(size=(7, 7))
        member = project_rowsum(0.5 * (B + B.T), 3)
        assert dist <= np.linalg.norm(member - A) + 1e-8


def test_project_rowsum_symmetrizes_input(rng):
    A = rng.normal(size=(5, 5))
    assert np.allclose(project_rowsum(A, 2), project_rowsum(0.5 * (A + A.T), 2), atol=1e-12)


def test_centered_shift_lands_in_rowsum(rng):
    # affine correspondence between the centered and row-sum sets
    t = 6
    for _ in range(10):
        G = rng.normal(size=(t, t - 1))
        Q, _ = np.linalg.qr(G)
        lam = np.clip(rng.uniform(-0.2, 1.2, size=t - 1), 0.0, 1.0)
        lam *= min(1.0, 2.0 / max(lam.sum(), 1e-12))  # trace <= d-1 with d=3
        M3 = (Q * lam) @ Q.T
        H = np.eye(t) - np.full((t, t), 1.0 / t)
        M2 = H @ M3 @ H + np.full((t, t), 1.0 / t)
        assert check_membership(M2, 3, "rowsum", tol=1e-8)


def test_pinv_quadratic_form_identity(rng):
    T = rng.normal(size=(4, 3))
    val = pinv_quadratic_form(np.eye(4), T)
    assert val == pytest.approx(np.linalg.norm(T) ** 2, rel=1e-12)


def test_pinv_quadratic_form_projector_case(rng):
    M = equivalence_from_assignment(indicator([0, 0, 1], 2))
    A = rng.normal(size=(3, 2))
    T = M @ A
    val = pinv_quadratic_form(M, T)
    assert val == pytest.approx(float(np.trace(A.T @ M @ A)), rel=1e-10)


def test_pinv_quadratic_form_range_error():
    M = np.diag([1.0, 1.0, 0.0])
    T = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(RangeError) as err:
        pinv_quadratic_form(M, T)
    assert err.value.residual > 0.0
