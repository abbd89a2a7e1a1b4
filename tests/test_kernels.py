from fractions import Fraction

import numpy as np
import pytest

from splitkern.estimator import KernelExpansion
from splitkern.kernels import (DenseOperator, SobolevMinOperator, gram,
                               kernel_operator, rkhs_norm_sq, sobolev_min,
                               user_kernel)


@pytest.fixture
def kernel():
    return sobolev_min()


def test_eval_hand_values(kernel):
    assert kernel.fn(0.5, 0.5) == 0.25
    assert kernel.fn(0.25, 0.75) == 0.0625
    assert gram(kernel, [0.25, 0.75])[0, 1] == 0.0625


def test_eval_vanishes_at_left_endpoint(kernel):
    t = np.array([0.0, 0.3, 0.5, 0.99, 1.0])
    assert np.array_equal(kernel.fn(0.0, t), np.zeros(5))
    assert np.array_equal(gram(kernel, np.r_[0.0, t])[0], np.zeros(6))


def test_eval_rejects_out_of_domain(kernel, dense_sobolev):
    for k in (kernel, dense_sobolev):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                gram(k, [0.5, bad])
            with pytest.raises(ValueError):
                kernel_operator(k, [bad, 0.5])


def test_kappa_values(kernel):
    assert kernel.kappa == 0.5
    zero = user_kernel(lambda x, t: np.zeros_like(x * t), kappa=0.0)
    assert zero.kappa == 0.0
    other = user_kernel(lambda x, t: np.minimum(x, t), kappa=1.0)
    assert other.kappa == 1.0


def test_gram_hand_values(kernel):
    assert np.array_equal(gram(kernel, [0.5]), [[0.25]])
    assert np.array_equal(gram(kernel, [0.0, 1.0]), np.zeros((2, 2)))
    G = gram(kernel, [0.25, 0.75])
    assert np.allclose(G, [[0.1875, 0.0625], [0.0625, 0.1875]], atol=0)


def test_gram_rejects_empty(kernel):
    with pytest.raises(ValueError):
        gram(kernel, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_rejects_non_finite(kernel, bad):
    with pytest.raises(ValueError):
        gram(kernel, [0.1, bad, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_anchor(kernel, dense_sobolev, bad):
    for k in (kernel, dense_sobolev):
        with pytest.raises(ValueError):
            kernel_operator(k, [0.2, bad, 0.7])
    with pytest.raises(ValueError):
        kernel_operator(kernel, [])


def test_symmetry_exact(kernel):
    rng = np.random.default_rng(1)
    x = rng.random(1000)
    t = rng.random(1000)
    assert np.array_equal(kernel.fn(x, t), kernel.fn(t, x))
    # the symmetrizing pass leaves an exactly symmetric rule bit for bit
    G = gram(kernel, x[:200])
    assert np.array_equal(G, kernel.fn(x[:200, None], x[None, :200]))
    assert np.array_equal(G, G.T)


def test_gram_symmetrizes_user_rule():
    # a rule that is not symmetric in floating point
    skew = user_kernel(lambda x, t: np.minimum(x, t) - x * t + 1e-3 * (x - t),
                       kappa=1.0)
    pts = np.random.default_rng(9).random(50)
    G = gram(skew, pts)
    K = skew.fn(pts[:, None], pts[None, :])
    assert not np.array_equal(K, K.T)
    assert np.array_equal(G, G.T)
    assert np.array_equal(G, 0.5 * (K + K.T))


def test_gram_positive_semidefinite(kernel):
    rng = np.random.default_rng(2)
    for size in [1, 2, 7, 33, 64]:
        G = gram(kernel, rng.random(size))
        ev = np.linalg.eigvalsh(G)
        assert ev.min() >= -1e-10 * max(ev.max(), 1e-30)


def test_kappa_bounds_diagonal(kernel):
    rng = np.random.default_rng(3)
    x = rng.random(1000)
    assert np.all(kernel.fn(x, x) <= kernel.kappa ** 2 + 1e-15)
    assert np.all(np.diag(gram(kernel, x)) <= kernel.kappa ** 2 + 1e-15)


def test_reproducing_property(kernel):
    # <f_hat, K_x> via the coefficient formula equals pointwise evaluation
    rng = np.random.default_rng(4)
    pts = rng.random(32)
    alpha = rng.standard_normal(32)
    fhat = KernelExpansion(alpha, kernel_operator(kernel, pts))
    for x in rng.random(50):
        inner = float(alpha @ kernel.fn(pts, np.full_like(pts, x)))
        assert abs(inner - fhat(x)) < 1e-12


def test_rkhs_norm_sq_values(kernel):
    zero = KernelExpansion(np.zeros(3), kernel_operator(
        kernel, np.array([0.1, 0.5, 0.9])))
    assert rkhs_norm_sq(zero) == 0.0
    single = KernelExpansion(np.array([2.0]), kernel_operator(
        kernel, np.array([0.5])))
    assert rkhs_norm_sq(single) == pytest.approx(1.0, abs=0)
    cancel = KernelExpansion(np.array([1.0, -1.0]), kernel_operator(
        kernel, np.array([0.3, 0.3])))
    assert rkhs_norm_sq(cancel) == pytest.approx(0.0, abs=1e-15)


def test_rkhs_norm_matches_derivative_integral(kernel):
    # independent check: ||f||^2 = int f'^2 for f in the expansion span,
    # with f' piecewise constant between anchors
    rng = np.random.default_rng(5)
    pts = rng.random(12)
    alpha = rng.standard_normal(12)
    exp = KernelExpansion(alpha, kernel_operator(kernel, pts))

    edges = np.unique(np.concatenate([[0.0], np.sort(pts), [1.0]]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        deriv = float(np.sum(alpha * (mid < pts)) - alpha @ pts)
        total += deriv ** 2 * (b - a)
    assert rkhs_norm_sq(exp) == pytest.approx(total, rel=1e-10)


def test_operator_version_follows_kernel(kernel, dense_sobolev):
    pts = [0.2, 0.6]
    assert isinstance(kernel_operator(kernel, pts), SobolevMinOperator)
    assert isinstance(kernel_operator(dense_sobolev, pts), DenseOperator)


ANCHORS = {
    "unsorted": np.random.default_rng(6).random(200),
    "tied": np.array([0.3, 0.7, 0.3, 0.5, 0.7, 0.7, 0.1, 0.3]),
    "endpoints": np.array([0.0, 1.0, 0.5, 0.0, 0.25, 1.0, 0.75]),
    "single": np.array([0.4]),
}


@pytest.mark.parametrize("name", list(ANCHORS))
def test_structured_operator_matches_dense_gram(kernel, name):
    # error measured against the rounding scale |G| |a| of each result
    pts = ANCHORS[name]
    op = kernel_operator(kernel, pts)
    G = gram(kernel, pts)
    rng = np.random.default_rng(pts.size)
    t = np.concatenate([rng.random(50), pts, [0.0, 1.0]])
    K = kernel.fn(pts[:, None], t[None, :])
    for _ in range(5):
        a = rng.standard_normal(pts.size)
        scale = np.max(np.abs(G) @ np.abs(a))
        assert np.max(np.abs(op.matvec(a) - G @ a)) <= 1e-12 * scale
        scale = np.max(np.abs(a) @ np.abs(K))
        assert np.max(np.abs(op.cross(a, t) - a @ K)) <= 1e-12 * scale
        scale = float(np.abs(a) @ np.abs(G) @ np.abs(a))
        assert abs(op.quad_form(a) - float(a @ G @ a)) <= 1e-12 * scale


@pytest.mark.parametrize("name", list(ANCHORS))
def test_cross_rows_match_row_by_row(kernel, dense_sobolev, name):
    # a 2-D coef holds one expansion per row; the structured operator adds
    # in the same order as for one row, the dense one multiplies matrices
    pts = ANCHORS[name]
    rng = np.random.default_rng(pts.size + 1)
    t = np.concatenate([rng.random(40), pts, [0.0, 1.0]])
    coef = rng.standard_normal((6, pts.size))
    op = kernel_operator(kernel, pts)
    got = op.cross(coef, t)
    assert got.shape == (6, t.size)
    for row, c in zip(got, coef):
        assert np.array_equal(row, op.cross(c, t))
    dense = kernel_operator(dense_sobolev, pts)
    got = dense.cross(coef, t)
    K = np.abs(dense_sobolev.fn(pts[:, None], t[None, :]))
    assert got.shape == (6, t.size)
    for row, c in zip(got, coef):
        scale = np.max(np.abs(c) @ K)
        assert np.max(np.abs(row - dense.cross(c, t))) <= 1e-13 * scale


def test_dense_operator_is_the_gram(dense_sobolev):
    pts = ANCHORS["unsorted"]
    op = kernel_operator(dense_sobolev, pts)
    G = gram(dense_sobolev, pts)
    a = np.random.default_rng(7).standard_normal(pts.size)
    assert np.array_equal(op.matvec(a), G @ a)
    assert op.quad_form(a) == float(a @ (G @ a))


_PAIRS = np.random.default_rng(8).random(24)
SOLVE_ANCHORS = {
    **ANCHORS,
    "all-endpoints": np.array([1.0, 0.0, 0.0, 1.0]),
    "pairs-1e-13": np.concatenate([_PAIRS, _PAIRS + 1e-13]),
}


@pytest.mark.parametrize("name", list(SOLVE_ANCHORS))
def test_solve_shifted_matches_dense_solve(kernel, name):
    # relative to the largest coefficient; the dense LU solve itself is
    # only good to about 1e-11 on the near-tied pairs
    pts = SOLVE_ANCHORS[name]
    G = gram(kernel, pts)
    y = np.random.default_rng(pts.size).standard_normal(pts.size)
    c = np.array([1.0, 1e-2, 1e-4, 1e-6]) * kernel.kappa ** 2 * pts.size
    got = kernel_operator(kernel, pts).solve_shifted(c, y)
    assert got.shape == (c.size, pts.size)
    for row, ci in zip(got, c):
        ref = np.linalg.solve(G + ci * np.eye(pts.size), y)
        assert np.max(np.abs(row - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_solve_shifted_rejects_bad_input(kernel):
    op = kernel_operator(kernel, [0.2, 0.6])
    for c in ([0.0], [-1.0], [np.nan], [[1.0]]):
        with pytest.raises(ValueError):
            op.solve_shifted(np.array(c), [1.0, 2.0])
    with pytest.raises(ValueError):
        op.solve_shifted([1.0], [1.0, 2.0, 3.0])


def _exact_solve(pts, c, y):
    """``(G + c I)^{-1} y`` in exact rational arithmetic (the floats are
    exact rationals), rounded once at the end."""
    n = len(pts)
    P = [Fraction(float(p)) for p in pts]
    M = [[min(P[i], P[j]) - P[i] * P[j] + (Fraction(float(c)) if i == j
                                           else 0) for j in range(n)]
         + [Fraction(float(y[i]))] for i in range(n)]
    for k in range(n):
        for r in range(k + 1, n):
            f = M[r][k] / M[k][k]
            M[r] = [a - f * b for a, b in zip(M[r], M[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))) \
            / M[k][k]
    return np.array([float(v) for v in x])


_P = np.random.default_rng(3).random(5)


@pytest.mark.parametrize("pts", [
    np.concatenate([_P, [1e-12, 1.0 - 1e-12, 0.5, 0.25, 0.75]]),
    np.concatenate([_P, _P + 1e-13]),
], ids=["near-both-ends", "pairs-1e-13"])
def test_solve_shifted_matches_exact_solve(kernel, pts):
    # to 1e-13 of the largest coefficient: the dense LU solve misses this
    # by 6e-12 on the pairs, and a Sherman-Morrison denominator formed as
    # 1 - h'A^{-1}h (cancelling to about 1e-12 here) by 1e-11 near the ends
    y = np.random.default_rng(4).standard_normal(pts.size)
    c = np.array([1.0, 1e-2, 1e-4, 1e-6]) * kernel.kappa ** 2 * pts.size
    got = kernel_operator(kernel, pts).solve_shifted(c, y)
    for row, ci in zip(got, c):
        ref = _exact_solve(pts, ci, y)
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))
