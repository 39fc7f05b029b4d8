import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from bregrelax import (
    BERNOULLI_CLIP,
    DomainError,
    conjugate_divergence,
    family,
    pairwise_divergence,
)
from bregrelax.divergences import pairwise_cost, row_divergence, softmax_rows
from bregrelax.models import _cond_problem

from conftest import finite_difference_gradient


def test_family_lookup():
    assert family("euclidean").name == "euclidean"
    assert family("bernoulli").name == "bernoulli"
    fam = family("euclidean")
    assert family(fam) is fam
    with pytest.raises(ValueError):
        family("poisson")


def pair(fam, x, y):
    """D_F(x, y) of two vectors, from ``pairwise_divergence``."""
    return float(pairwise_divergence(fam, [x], [y])[0, 0])


def test_euclidean_divergence_halved_square():
    assert pair("euclidean", [1.0], [0.0]) == pytest.approx(0.5)


def test_divergence_zero_at_equal_arguments():
    assert pair("bernoulli", [0.5], [0.5]) == 0.0


def test_bernoulli_divergence_value():
    # 0.5 ln(4/3) + 0.5 ln(2/3): KL of a fair coin from a 1/4 coin
    want = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
    got = pair("bernoulli", [0.5], [0.25])
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.5 * np.log(4.0 / 3.0), rel=1e-3)


def test_divergence_domain_error_reports_index():
    with pytest.raises(DomainError) as err:
        pair("bernoulli", [0.5, 1.5], [0.5, 0.5])
    assert "1" in str(err.value)


def test_bernoulli_boundary_grazing_is_clamped():
    # entries within the clip band are accepted and pulled inside
    val = pair("bernoulli", [BERNOULLI_CLIP / 2], [0.5])
    assert np.isfinite(val)
    with pytest.raises(DomainError):
        pair("bernoulli", [-1e-3], [0.5])


def test_transfer_inverse_roundtrip(rng):
    for name in ("euclidean", "bernoulli"):
        fam = family(name)
        x = rng.uniform(0.05, 0.95, size=200)
        if name == "euclidean":
            x = rng.normal(size=200) * 3.0
        z = rng.normal(size=200) * 3.0
        assert np.allclose(fam.transfer(fam.inverse_transfer(z)), z, rtol=1e-10, atol=1e-10)
        assert np.allclose(fam.inverse_transfer(fam.transfer(x)), x, rtol=1e-10, atol=1e-10)


def test_divergence_nonnegative_zero_iff_equal(rng):
    for name in ("euclidean", "bernoulli"):
        fam = family(name)
        for _ in range(250):
            if name == "euclidean":
                x, y = rng.normal(size=4), rng.normal(size=4)
            else:
                x, y = rng.uniform(0.02, 0.98, size=4), rng.uniform(0.02, 0.98, size=4)
            val = pair(fam, x, y)
            assert val >= 0.0
            assert pair(fam, x, x) <= 1e-12


def test_divergence_matrix_matches_per_row_sum(rng):
    # the divergence of paired rows is the diagonal of the pairwise one
    fam = family("bernoulli")
    X = rng.uniform(0.05, 0.95, size=(3, 2))
    Y = rng.uniform(0.05, 0.95, size=(3, 2))
    rows = row_divergence(fam, X, Y)
    assert rows == pytest.approx([pair(fam, X[i], Y[i]) for i in range(3)], rel=1e-12)
    assert np.all(row_divergence(fam, X, X) == 0.0)


def test_divergence_matrix_euclidean_sum_case():
    X = np.array([[1.0], [0.0]])
    Y = np.zeros((2, 1))
    assert np.sum(row_divergence(family("euclidean"), X, Y)) == pytest.approx(0.5)


def test_divergence_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        pairwise_divergence("euclidean", np.zeros((2, 2)), np.zeros((3, 3)))


def test_conjugate_identity(rng):
    for name in ("euclidean", "bernoulli"):
        fam = family(name)
        if name == "euclidean":
            X = rng.normal(size=(4, 3))
            Y = rng.normal(size=(4, 3))
        else:
            X = rng.uniform(0.05, 0.95, size=(4, 3))
            Y = rng.uniform(0.05, 0.95, size=(4, 3))
        lhs = np.sum(row_divergence(fam, X, Y))
        rhs = conjugate_divergence(fam, fam.transfer(Y), fam.transfer(X))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conjugate_divergence_euclidean_self_conjugate():
    assert conjugate_divergence("euclidean", np.array([[1.0]]), np.array([[0.0]])) == pytest.approx(0.5)


def test_conjugate_divergence_bernoulli_value():
    a, b = 0.0, np.log(3.0)
    sig = 1.0 / (1.0 + np.exp(-b))
    want = np.log(2.0) - np.log(1.0 + 3.0) + (b - a) * sig
    got = conjugate_divergence("bernoulli", np.array([[a]]), np.array([[b]]))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.1308, abs=1e-4)
    # swap identity: equals the primal divergence of the sigmoid images
    assert got == pytest.approx(pair("bernoulli", [sig], [0.5]), rel=1e-10)


def test_conjugate_divergence_zero_at_equal(rng):
    A = rng.normal(size=(3, 3))
    assert conjugate_divergence("bernoulli", A, A) == pytest.approx(0.0, abs=1e-14)


# The gradient of D_F*(T, f(X)) in T is the one ``cond`` descends:
# f_inv(T) - X, from ``_cond_problem``.


def test_conjugate_grad_euclidean_is_difference(rng):
    A = rng.normal(size=(3, 2))
    X = rng.normal(size=(3, 2))
    loss = _cond_problem(X, family("euclidean"))
    assert np.allclose(loss.value_and_grad(A)[1], A - X)
    assert np.allclose(loss.value_and_grad(X)[1], 0.0)


def test_conjugate_grad_matches_finite_differences(rng):
    for name in ("euclidean", "bernoulli"):
        fam = family(name)
        A = rng.normal(size=(4, 3))
        X = fam.inverse_transfer(rng.normal(size=(4, 3)))
        loss = _cond_problem(X, fam)
        value, grad = loss.value_and_grad(A)
        assert value == conjugate_divergence(fam, A, fam.transfer(X))
        fd = finite_difference_gradient(lambda Z: loss.value_and_grad(Z)[0], A)
        assert np.linalg.norm(fd - grad) <= 1e-5 * (1.0 + np.linalg.norm(grad))


@pytest.mark.parametrize("name", ["euclidean", "bernoulli"])
def test_curvature_is_the_second_derivative_in_y(rng, name):
    # one column per row, so each row divergence is one entry's D_F(x, y)
    fam = family(name)
    x = rng.uniform(0.05, 0.95, size=(20, 1))
    y = rng.uniform(0.1, 0.9, size=(20, 1))
    h = 1e-4
    fd = (row_divergence(fam, x, y + h) - 2.0 * row_divergence(fam, x, y)
          + row_divergence(fam, x, y - h)) / (h * h)
    assert np.allclose(fam.curvature(x, y)[:, 0], fd, rtol=1e-5, atol=1e-6)


def test_conjugate_divergence_convex_in_first_argument(rng):
    for name in ("euclidean", "bernoulli"):
        for _ in range(50):
            A1 = rng.normal(size=(3, 2))
            A2 = rng.normal(size=(3, 2))
            B = rng.normal(size=(3, 2))
            lam = rng.uniform(0.1, 0.9)
            mix = conjugate_divergence(name, lam * A1 + (1 - lam) * A2, B)
            bound = lam * conjugate_divergence(name, A1, B) + (1 - lam) * conjugate_divergence(name, A2, B)
            assert mix <= bound + 1e-10


def test_joint_midpoint_convexity(rng):
    for name in ("euclidean", "bernoulli"):
        for _ in range(50):
            if name == "euclidean":
                pairs = rng.normal(size=(4, 5))
                x1, y1, x2, y2 = pairs[0], pairs[1], pairs[2], pairs[3]
            else:
                pairs = rng.uniform(0.05, 0.95, size=(4, 5))
                x1, y1, x2, y2 = pairs[0], pairs[1], pairs[2], pairs[3]
            mid = pair(name, (x1 + x2) / 2, (y1 + y2) / 2)
            avg = 0.5 * pair(name, x1, y1) + 0.5 * pair(name, x2, y2)
            assert mid <= avg + 1e-10


def test_pairwise_divergence_matches_loops(rng):
    X = rng.uniform(0.1, 0.9, size=(5, 3))
    C = rng.uniform(0.1, 0.9, size=(2, 3))
    D = pairwise_divergence("bernoulli", X, C)
    assert D.shape == (5, 2)
    for i in range(5):
        for j in range(2):
            want = np.sum(row_divergence(family("bernoulli"), X[i:i + 1], C[j:j + 1]))
            assert D[i, j] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["euclidean", "bernoulli"])
def test_pairwise_cost_is_pairwise_divergence_bit_for_bit(rng, name):
    # the cost is cluster-major (k, t); pairwise_divergence is its C-ordered transpose
    draw = rng.normal if name == "euclidean" else lambda size: rng.uniform(0.02, 0.98, size)
    X = draw(size=(40, 6))
    cost = pairwise_cost(name, X)
    for k in (1, 3, 5):
        C = draw(size=(k, 6))
        D = pairwise_divergence(name, X, C)
        assert D.shape == (40, k) and D.flags.c_contiguous
        assert np.array_equal(cost(C), D.T)


def test_pairwise_cost_validates_every_center_matrix(rng):
    cost = pairwise_cost("bernoulli", rng.uniform(0.1, 0.9, size=(5, 3)))
    with pytest.raises(DomainError):
        cost(np.array([[0.5, 1.5, 0.5]]))
    for shape in ((3,), (2, 2, 2, 3), (2, 4), (2, 2, 4)):  # rank 1 or 4, or the wrong width
        with pytest.raises(ValueError, match="incompatible"):
            cost(np.full(shape, 0.5))
    with pytest.raises(ValueError, match="2-d"):
        pairwise_cost("euclidean", np.zeros(3))


@pytest.mark.parametrize("name", ["euclidean", "bernoulli"])
@pytest.mark.parametrize("n", [2, 9, 57])
def test_stacked_pairwise_cost_is_each_set_alone_bit_for_bit(rng, name, n):
    # every set of the stack gets the BLAS product it gets alone; at n = 57
    # and t = 60 one flat GEMM over the whole stack rounds differently, at
    # n = 57 and t = 300 or 683 the (k, n)(n, t) cross term rounds unlike a
    # (t, k) product, and k = 1 (_fill_empty's one live cluster) does so at
    # most shapes
    draw = rng.normal if name == "euclidean" else lambda size: rng.uniform(0.02, 0.98, size)
    for t in (60, 300, 683, 1000) if n == 57 else (60,):
        X = draw(size=(t, n))
        cost = pairwise_cost(name, X)
        for k in (1, 2, 3, 5):
            for R in (1, 3, 30):
                C = draw(size=(R, k, n))
                stacked = cost(C)
                assert stacked.shape == (R, k, t) and stacked.flags.c_contiguous
                for r in range(R):
                    assert np.array_equal(stacked[r], cost(C[r]))


def test_logsumexp_value_grad_stability():
    lse, P = softmax_rows(np.array([[1000.0, 1000.0, -1000.0], [-1000.0, -1001.0, -1000.0]]))
    assert lse == pytest.approx([1000.0 + np.log(2.0), -1000.0 + np.log(2.0 + np.exp(-1.0))],
                               rel=1e-12)
    assert P[0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    assert np.all(P >= 0.0)


def test_logsumexp_value_grad_gradient(rng):
    w = rng.normal(size=5) * 4.0
    _, (grad,) = softmax_rows(w[None, :])
    fd = finite_difference_gradient(lambda v: softmax_rows(v[None, :])[0][0], w)
    assert np.linalg.norm(fd - grad) <= 1e-6 * (1.0 + np.linalg.norm(grad))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("d", range(1, 13))
def test_softmax_rows_is_scipys(rng, d):
    # d below and from 8 covers numpy's sequential and pairwise row sums;
    # lse is scipy's to 1e-14 (scipy counts tied maxima, softmax_rows does
    # not), relative above 1 and absolute below: on a row such as
    # [0, -30, -30] lse is ~1e-13, where log(s) keeps less than scipy's
    # log1p; P is scipy's softmax bit for bit, its rows summing to 1
    for scale in (1e-3, 1.0, 30.0, 1e4):
        S = rng.normal(scale=scale, size=(50, d))
        ties = np.round(S / scale) * scale  # several tied row maxima
        for A in (S, ties, S[:1], np.asfortranarray(S)):
            lse, P = softmax_rows(A)
            want = logsumexp(A, axis=1)
            assert lse.shape == want.shape
            assert np.all(np.abs(lse - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))
            assert _same_bits(P, softmax(A, axis=1))
            assert np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-14)


@pytest.mark.parametrize("d", [1, 3, 9])
def test_logsumexp_rows_non_finite_rows_are_scipys(rng, d):
    # a row with +inf, a row of -inf and a row with NaN get scipy's lse;
    # the finite rows around them keep their bits
    S = rng.normal(size=(5, d))
    S[1, 0] = np.inf
    S[2] = -np.inf
    S[3, -1] = np.nan
    with np.errstate(all="ignore"):
        want = logsumexp(S, axis=1)
    lse, P = softmax_rows(S)
    assert _same_bits(lse, want)
    assert lse[1] == np.inf and lse[2] == -np.inf and np.isnan(lse[3])
    finite = [0, 4]
    lse_alone, P_alone = softmax_rows(S[finite])
    assert _same_bits(lse[finite], lse_alone) and _same_bits(P[finite], P_alone)


def test_logsumexp_rows_one_row_is_the_vector_logsumexp(rng):
    # joint's prior block: lse(w) = m + log(sum(exp(w - m))) and its softmax e / z
    for w in (np.log(np.array([3.0, 5.0, 2.0]) / 10.0), rng.normal(scale=50.0, size=9),
              rng.normal(size=60)):
        m = np.max(w)
        e = np.exp(w - m)
        z = np.sum(e)
        (lse,), (P,) = softmax_rows(w[None, :])
        assert _same_bits(lse, m + np.log(z)) and _same_bits(P, e / z)
