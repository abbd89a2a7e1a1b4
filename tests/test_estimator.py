import numpy as np
import pytest

from splitkern.estimator import (KernelExpansion, fit_iterative, fit_spectral,
                                 predict, spectral_model)
from splitkern.filters import (LAMBDA_MIN, MAX_STEPS, filter_values, landweber,
                               nu_method, spectral_cutoff, tikhonov)
from splitkern.kernels import (BlockLayoutOperator, DenseOperator, gram,
                               kernel_operator, sobolev_min, user_kernel)

from reference import axiom_maxima


@pytest.fixture
def kernel():
    return sobolev_min()


def _data(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = rng.standard_normal(n)
    return x, y


def test_zero_outputs_give_zero_fit(kernel):
    x, _ = _data(16)
    est = fit_spectral(kernel, tikhonov(), 0.3, x, np.zeros(16))
    assert np.array_equal(est.coefficients, np.zeros(16))


def test_single_point_hand_computation(kernel):
    # x = 0.5: M = [[1.0]], Tikhonov lam=1 gives g = 1/2, alpha = 2 y
    est = fit_spectral(kernel, tikhonov(), 1.0, [0.5], [3.0])
    assert est.coefficients[0] == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_tikhonov_equals_ridge_solve(kernel, n):
    x, y = _data(n, seed=n)
    lam = 0.05
    est = fit_spectral(kernel, tikhonov(), lam, x, y)
    M = gram(kernel, x) / (kernel.kappa ** 2 * n)
    expected = np.linalg.solve(M + lam * np.eye(n), y) / (kernel.kappa ** 2 * n)
    assert np.max(np.abs(est.coefficients - expected)) < 1e-8


def test_landweber_single_step(kernel):
    x, y = _data(16, seed=3)
    est = fit_iterative(kernel, landweber(), 1.0, x, y)
    assert np.allclose(est.coefficients, y / (kernel.kappa ** 2 * 16),
                       atol=0, rtol=1e-15)


@pytest.mark.parametrize("k", [1, 3, 10, 42, 100])
def test_landweber_paths_agree(kernel, k):
    x, y = _data(64, seed=k)
    lam = 1.0 / k
    it = fit_iterative(kernel, landweber(), lam, x, y)
    sp = fit_spectral(kernel, landweber(), lam, x, y)
    assert np.max(np.abs(it.coefficients - sp.coefficients)) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 5, 20, 100])
def test_nu_method_paths_agree(kernel, k):
    x, y = _data(16, seed=k + 100)
    lam = float(k) ** -2
    it = fit_iterative(kernel, nu_method(), lam, x, y)
    sp = fit_spectral(kernel, nu_method(), lam, x, y)
    assert np.max(np.abs(it.coefficients - sp.coefficients)) < 1e-6


@pytest.mark.parametrize("filt,lam", [(landweber(), 1.0 / 300),
                                      (nu_method(), 1.0 / 40 ** 2)])
def test_fit_iterative_structured_matches_dense(kernel, dense_sobolev,
                                                filt, lam):
    x, y = _data(500, seed=21)
    x[::7] = x[1::7]                         # tied anchors
    fast = fit_iterative(kernel, filt, lam, x, y).coefficients
    ref = fit_iterative(dense_sobolev, filt, lam, x, y).coefficients
    assert np.max(np.abs(fast - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_fit_iterative_rejects_too_many_steps(kernel):
    x, y = _data(8)
    for filt, lam in ((landweber(), 1.0 / (MAX_STEPS + 1)),
                      (nu_method(), LAMBDA_MIN)):
        assert filt.steps(lam) > MAX_STEPS
        with pytest.raises(ValueError, match="steps"):
            fit_iterative(kernel, filt, lam, x, y)
    # the default oracle grid floor is still within reach, and the
    # closed forms take any step count
    assert landweber().steps(1e-6) == MAX_STEPS
    vals = filter_values(landweber(), LAMBDA_MIN, np.linspace(0, 1, 11))
    assert np.isfinite(vals).all()


@pytest.mark.parametrize("filt", [landweber(), nu_method()])
def test_fit_iterative_products(kernel, monkeypatch, filt):
    # k steps make k - 1 products with the Gram operator
    products = []
    real = BlockLayoutOperator.level_matvec
    monkeypatch.setattr(BlockLayoutOperator, "level_matvec",
                        lambda self, v: products.append(1) or real(self, v))
    x, y = _data(30, seed=6)
    for k in (1, 2, 17):
        products.clear()
        lam = 1.0 / k if filt.kind == "landweber" else float(k) ** -2
        fit_iterative(kernel, filt, lam, x, y)
        assert len(products) == k - 1


def test_fit_iterative_rejects_non_iterative(kernel):
    x, y = _data(8)
    with pytest.raises(ValueError):
        fit_iterative(kernel, tikhonov(), 0.5, x, y)


def test_size_mismatch_rejected(kernel):
    with pytest.raises(ValueError):
        fit_spectral(kernel, tikhonov(), 0.5, [0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        fit_spectral(kernel, tikhonov(), 0.5, [], [])


def test_non_finite_data_rejected(kernel):
    x = [0.1, 0.5, 0.9]
    with pytest.raises(ValueError):
        fit_spectral(kernel, tikhonov(), 0.5, x, [1.0, np.inf, 0.0])
    with pytest.raises(ValueError):
        fit_iterative(kernel, nu_method(), 0.5, [0.1, np.nan, 0.9],
                      [1.0, 2.0, 0.0])


def test_predict_matches_dense_kernel(kernel, dense_sobolev):
    rng = np.random.default_rng(10)
    pts, alpha = rng.random(40), rng.standard_normal(40)
    xs = np.concatenate([rng.random(30), pts, [0.0, 1.0]])
    fast = predict(KernelExpansion(alpha, kernel_operator(kernel, pts)), xs)
    ref = predict(KernelExpansion(alpha, kernel_operator(
        dense_sobolev, pts)), xs)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.sum(np.abs(alpha))


@pytest.mark.parametrize("gaussian", [False, True],
                         ids=["block-layout", "dense"])
def test_predict_rejects_points_outside_the_domain(kernel, gaussian):
    # the fit would evaluate them silently: -2.29 at 1.5, -1.46 at -0.5 for
    # the built-in kernel, and NaN at NaN
    if gaussian:
        kernel = user_kernel(lambda x, t: np.exp(-(x - t) ** 2 / 0.02), 1.0)
    rng = np.random.default_rng(4)
    x = np.linspace(0.05, 0.95, 20)
    est = fit_spectral(kernel, tikhonov(), 0.01, x, rng.standard_normal(20))
    assert isinstance(est.operator,
                      DenseOperator if gaussian else BlockLayoutOperator)
    for t in (1.5, -0.5, [0.5, 1.0 + 1e-12]):
        with pytest.raises(ValueError, match=r"outside kernel domain"):
            predict(est, t)
    for t in (np.nan, [0.5, np.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            est(t)
    assert np.isfinite(est(np.array([[0.0, 1.0]]))).all()


def test_predict_values(kernel):
    zero = KernelExpansion(np.zeros(2), kernel_operator(
        kernel, np.array([0.2, 0.8])))
    assert predict(zero, 0.5) == 0.0
    single = KernelExpansion(np.array([2.0]), kernel_operator(
        kernel, np.array([0.5])))
    assert predict(single, 0.5) == pytest.approx(0.5, abs=0)


def test_predict_additivity(kernel):
    rng = np.random.default_rng(9)
    pts = rng.random(10)
    a1, a2 = rng.standard_normal(10), rng.standard_normal(10)
    xs = rng.random(20)
    e1 = KernelExpansion(a1, kernel_operator(kernel, pts))
    e2 = KernelExpansion(a2, kernel_operator(kernel, pts))
    e12 = KernelExpansion(a1 + a2, kernel_operator(kernel, pts))
    assert np.allclose(predict(e12, xs), predict(e1, xs) + predict(e2, xs),
                       rtol=1e-12, atol=1e-15)


def test_scale_covariance(kernel):
    # a power-of-two factor scales every intermediate exactly, so the
    # linearity in y holds bitwise
    x, y = _data(32, seed=11)
    for filt, lam in [(tikhonov(), 0.05), (landweber(), 0.02),
                      (nu_method(), 0.04), (spectral_cutoff(), 0.1)]:
        base = fit_spectral(kernel, filt, lam, x, y)
        scaled = fit_spectral(kernel, filt, lam, x, 2.0 * y)
        assert np.array_equal(scaled.coefficients, 2.0 * base.coefficients)
        general = fit_spectral(kernel, filt, lam, x, 3.0 * y)
        assert np.allclose(general.coefficients, 3.0 * base.coefficients,
                           rtol=1e-11, atol=1e-14)


def test_spectral_model_invariants(kernel):
    x, _ = _data(48, seed=13)
    ev, V = spectral_model(kernel, x)
    assert np.all(np.diff(ev) <= 0)
    assert ev.min() >= 0.0 and ev.max() <= 1.0
    assert np.max(np.abs(V.T @ V - np.eye(48))) < 1e-8


def test_filtered_spectrum_respects_axioms(kernel):
    x, _ = _data(40, seed=17)
    ev, _ = spectral_model(kernel, x)
    pos = ev[ev > 0]
    for filt, lam in [(tikhonov(), 0.03), (landweber(), 0.01),
                      (nu_method(), 0.04), (spectral_cutoff(), 0.02)]:
        maxima = axiom_maxima(filt, [lam], pos)
        assert all(value <= bound + 1e-12
                   for value, bound in maxima.values()), maxima


def test_predict_keeps_2d_shape(kernel, dense_sobolev):
    rng = np.random.default_rng(12)
    pts, alpha = rng.random(10), rng.standard_normal(10)
    xs = np.array([[0.1, 0.5], [0.9, 0.0]])
    fast = predict(KernelExpansion(alpha, kernel_operator(kernel, pts)), xs)
    ref = predict(KernelExpansion(alpha, kernel_operator(
        dense_sobolev, pts)), xs)
    assert fast.shape == ref.shape == (2, 2)
    flat = predict(KernelExpansion(alpha, kernel_operator(
        dense_sobolev, pts)), xs.ravel())
    assert np.array_equal(ref.ravel(), flat)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.sum(np.abs(alpha))


@pytest.mark.parametrize("lam", [LAMBDA_MIN, 1e-6])
def test_tikhonov_solve_matches_eigh_path(kernel, dense_sobolev, lam):
    # the shifted solve against the eigendecomposition of the same Gram
    # (the dense kernel); at lam = LAMBDA_MIN both stay finite
    x, y = _data(64, seed=19)
    x[:4] = [0.0, 1.0, x[10], x[10]]           # endpoint and tied anchors
    fast = fit_spectral(kernel, tikhonov(), lam, x, y).coefficients
    ref = fit_spectral(dense_sobolev, tikhonov(), lam, x, y).coefficients
    assert np.isfinite(fast).all() and np.isfinite(ref).all()
    assert np.max(np.abs(fast - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_lambda_below_floor_rejected_on_both_paths(kernel, dense_sobolev):
    x, y = _data(8, seed=21)
    below = np.nextafter(LAMBDA_MIN, 0.0)
    for k in (kernel, dense_sobolev):
        for lam in (below, 5e-324):
            with pytest.raises(ValueError):
                fit_spectral(k, tikhonov(), lam, x, y)
