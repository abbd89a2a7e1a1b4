import numpy as np
import pytest

from splitkern import distributed, estimator
from splitkern.distributed import (AveragedEstimator, diagnostic_split,
                                   fit_distributed, partition)
from splitkern.estimator import fit_iterative, fit_spectral
from splitkern.filters import (LAMBDA_MIN, MAX_STEPS, iterate, landweber,
                               nu_method, spectral_cutoff, tikhonov)
from splitkern.kernels import BlockLayoutOperator, sobolev_min
from splitkern.smoothness import quadratic_bump, zero_target


@pytest.fixture
def kernel():
    return sobolev_min()


def test_partition_contiguous():
    part = partition(6, 3)
    assert [list(b) for b in part.blocks] == [[0, 1], [2, 3], [4, 5]]
    assert partition(6, 1).blocks[0].tolist() == list(range(6))


def test_partition_balanced_remainder():
    part = partition(7, 3)
    assert [len(b) for b in part.blocks] == [3, 2, 2]
    all_idx = np.sort(np.concatenate(part.blocks))
    assert np.array_equal(all_idx, np.arange(7))


def test_partition_validation():
    with pytest.raises(ValueError):
        partition(3, 4)
    with pytest.raises(ValueError):
        partition(0, 1)
    with pytest.raises(ValueError):
        partition(5, 0)


def test_partition_shuffle_deterministic():
    a = partition(40, 4, shuffle_seed=7)
    b = partition(40, 4, shuffle_seed=7)
    c = partition(40, 4, shuffle_seed=8)
    assert np.array_equal(np.concatenate(a.blocks), np.concatenate(b.blocks))
    assert not np.array_equal(np.concatenate(a.blocks),
                              np.concatenate(c.blocks))
    for part in (a, c):
        assert np.array_equal(
            np.sort(np.concatenate(part.blocks)), np.arange(40))


def _data(n, seed=0, sigma=0.1):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = 0.5 * x * (1 - x) + sigma * rng.standard_normal(n)
    return x, y


def test_m1_identity(kernel):
    x, y = _data(64)
    single = fit_spectral(kernel, tikhonov(), 0.1, x, y)
    avg = fit_distributed(kernel, tikhonov(), 0.1, x, y, partition(64, 1))
    assert avg.m == 1
    assert np.array_equal(avg.block_fits[0].coefficients, single.coefficients)


@pytest.mark.parametrize("filt,lam,fit", [
    (nu_method(), 1.0 / 12 ** 2, fit_iterative),
    (landweber(), 1.0 / 40, fit_iterative),
    (tikhonov(), 0.01, fit_spectral),
    (spectral_cutoff(), 0.01, fit_spectral),
], ids=["nu-method", "landweber", "tikhonov", "cutoff"])
def test_block_fit_path_follows_filter(kernel, filt, lam, fit):
    # iterative filters iterate, the others filter the spectrum
    x, y = _data(90, seed=4)
    part = partition(90, 3)
    avg = fit_distributed(kernel, filt, lam, x, y, part)
    for ix, block in zip(part.blocks, avg.block_fits):
        ref = fit(kernel, filt, lam, x[ix], y[ix])
        assert np.array_equal(block.coefficients, ref.coefficients)


def test_prediction_is_mean_of_local_predictions(kernel):
    x, y = _data(64, seed=1)
    part = partition(64, 2)
    avg = fit_distributed(kernel, tikhonov(), 0.1, x, y, part)
    rng = np.random.default_rng(2)
    xs = rng.random(100)
    locals_ = np.stack([f(xs) for f in avg.block_fits])
    assert np.max(np.abs(avg(xs) - locals_.mean(axis=0))) < 1e-12
    assert abs(avg(0.3) - 0.5 * (avg.block_fits[0](0.3)
                                 + avg.block_fits[1](0.3))) < 1e-12


def test_identical_blocks_average_to_local(kernel):
    x_half, y_half = _data(16, seed=3)
    x = np.concatenate([x_half, x_half])
    y = np.concatenate([y_half, y_half])
    avg = fit_distributed(kernel, tikhonov(), 0.2, x, y, partition(32, 2))
    local = avg.block_fits[0]
    for xs in np.linspace(0, 1, 17):
        assert abs(avg(xs) - local(xs)) < 1e-13


def test_block_order_permutation_invariance(kernel):
    x, y = _data(60, seed=4)
    avg = fit_distributed(kernel, tikhonov(), 0.05, x, y, partition(60, 5))
    reordered = AveragedEstimator(block_fits=avg.block_fits[::-1])
    xs = np.random.default_rng(5).random(100)
    assert np.max(np.abs(avg(xs) - reordered(xs))) < 1e-12


def test_as_expansion_matches_mean(kernel):
    x, y = _data(48, seed=6)
    avg = fit_distributed(kernel, tikhonov(), 0.05, x, y, partition(48, 3))
    exp = avg.as_expansion()
    xs = np.random.default_rng(7).random(25)
    assert np.allclose(exp(xs), avg(xs), atol=1e-14)


def test_iterative_blocks_match_dense_kernel(kernel, dense_sobolev):
    x, y = _data(120, seed=8)
    part = partition(120, 4, shuffle_seed=3)
    fast = fit_distributed(kernel, nu_method(), 1.0 / 15 ** 2, x, y, part)
    ref = fit_distributed(dense_sobolev, nu_method(), 1.0 / 15 ** 2, x, y,
                          part)
    for a, b in zip(fast.block_fits, ref.block_fits):
        assert np.max(np.abs(a.coefficients - b.coefficients)) \
            <= 1e-10 * np.max(np.abs(b.coefficients))


def test_diagnostic_split_matches_dense_kernel(kernel, dense_sobolev):
    target = quadratic_bump()
    rng = np.random.default_rng(13)
    x = rng.random(96)
    y = target(x) + 0.01 * rng.standard_normal(96)
    part = partition(96, 3, shuffle_seed=5)
    fast = diagnostic_split(kernel, tikhonov(), 0.01, x, y, part, target)
    ref = diagnostic_split(dense_sobolev, tikhonov(), 0.01, x, y, part,
                           target)
    assert fast.approximation_norm == pytest.approx(ref.approximation_norm,
                                                    rel=1e-9)
    assert fast.sample_norm == pytest.approx(ref.sample_norm, rel=1e-9)


def test_variance_reduction_through_averaging(kernel):
    # pure-noise target, underregularized fits: averaging m = 8 nearly
    # interpolating blocks shrinks the prediction variance vs m = 1
    lam = 1e-4
    preds1, preds8 = [], []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        x = rng.random(256)
        y = rng.standard_normal(256)
        one = fit_distributed(kernel, tikhonov(), lam, x, y, partition(256, 1))
        eight = fit_distributed(kernel, tikhonov(), lam, x, y,
                                partition(256, 8))
        preds1.append(one(0.5))
        preds8.append(eight(0.5))
    assert np.var(preds8) < np.var(preds1)


def test_diagnostic_split_zero_target(kernel):
    x = np.random.default_rng(9).random(32)
    target = zero_target()
    split = diagnostic_split(kernel, tikhonov(), 0.1, x, target(x),
                             partition(32, 2), target)
    assert split.approximation_norm == pytest.approx(0.0, abs=1e-12)
    assert split.sample_norm == pytest.approx(0.0, abs=1e-12)


def test_diagnostic_split_noise_free_sample_part_vanishes(kernel):
    target = quadratic_bump()
    x = np.random.default_rng(10).random(64)
    split = diagnostic_split(kernel, tikhonov(), 0.05, x, target(x),
                             partition(64, 4), target)
    assert split.sample_norm < 1e-10
    assert split.approximation_norm > 0


def test_diagnostic_split_approximation_decreases_with_lambda(kernel):
    # cut-off surrogate at m = 1 is an orthogonal spectral projection of
    # the target, so its bias shrinks monotonically as lambda decreases
    target = quadratic_bump()
    rng = np.random.default_rng(11)
    x = rng.random(64)
    y = target(x) + 0.01 * rng.standard_normal(64)
    lams = np.logspace(0, -6, 13)
    norms = [diagnostic_split(kernel, spectral_cutoff(), lam, x, y,
                              partition(64, 1), target).approximation_norm
             for lam in lams]
    assert np.all(np.diff(norms) <= 1e-12)
    # with several blocks the trend still points down across the grid
    norms2 = [diagnostic_split(kernel, spectral_cutoff(), lam, x, y,
                               partition(64, 2), target).approximation_norm
              for lam in lams]
    assert norms2[-1] < norms2[0]


def test_diagnostic_split_requires_norm(kernel):
    x = np.random.default_rng(12).random(16)
    with pytest.raises(ValueError):
        diagnostic_split(kernel, tikhonov(), 0.1, x, np.zeros(16),
                         partition(16, 2), lambda z: np.zeros_like(z))


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff(), landweber(),
                                  nu_method()])
def test_diagnostic_split_fits_are_fit_distributed(kernel, dense_sobolev,
                                                   filt):
    # both halves are fit_distributed fits, bit for bit: to y and to the
    # noise-free f_true(x), on the structured and the dense operators
    # (the level fit and the block-by-block one for iterative filters),
    # with contiguous and shuffled blocks
    target = quadratic_bump()
    rng = np.random.default_rng(21)
    x = rng.random(300)
    y = target(x) + 0.01 * rng.standard_normal(300)
    for kern in (kernel, dense_sobolev):
        for part in (partition(300, 4), partition(300, 7, shuffle_seed=2)):
            split = diagnostic_split(kern, filt, 1e-3, x, y, part, target)
            for est, values in ((split.fitted, y),
                                (split.surrogate, target(x))):
                ref = fit_distributed(kern, filt, 1e-3, x, values, part)
                for a, b in zip(est.block_fits, ref.block_fits, strict=True):
                    assert np.array_equal(a.coefficients, b.coefficients)


def test_diagnostic_split_eigendecomposes_each_block_once(kernel,
                                                          monkeypatch):
    # the fit and the surrogate filter the same spectral model per block
    calls = []
    spectral_model = estimator.spectral_model
    monkeypatch.setattr(estimator, "spectral_model",
                        lambda *a: calls.append(a) or spectral_model(*a))
    target = quadratic_bump()
    rng = np.random.default_rng(22)
    x = rng.random(200)
    y = target(x) + 0.01 * rng.standard_normal(200)
    diagnostic_split(kernel, spectral_cutoff(), 1e-3, x, y, partition(200, 4),
                     target)
    assert len(calls) == 4


@pytest.mark.parametrize("filt", [landweber(), nu_method()],
                         ids=["landweber", "nu-method"])
@pytest.mark.parametrize("bad", ["nan-y", "inf-y", "x-below-0", "x-above-1"])
def test_level_fit_rejects_bad_input_as_block_fits_do(kernel, dense_sobolev,
                                                      monkeypatch, filt, bad):
    # the level fit of the built-in kernel raises the block-by-block fit's
    # ValueError (CLI exit 2), and before it takes any step
    steps = []
    monkeypatch.setattr(distributed, "iterate",
                        lambda *a: steps.append(1) or iterate(*a))
    x, y = _data(40, seed=14)
    if bad.endswith("-y"):
        y[7] = np.nan if bad == "nan-y" else -np.inf
    else:
        x[21] = -1e-9 if bad == "x-below-0" else 1.5
    part = partition(40, 4)
    lam = filt.step_lambda(6)
    with pytest.raises(ValueError) as block_by_block:
        fit_distributed(dense_sobolev, filt, lam, x, y, part)
    with pytest.raises(ValueError) as level:
        fit_distributed(kernel, filt, lam, x, y, part)
    assert str(level.value) == str(block_by_block.value)
    assert steps == []


def test_level_fit_rejects_too_many_steps_first(kernel, monkeypatch):
    # the step count is checked before the level operator is built
    def refuse(*a):
        raise AssertionError("level operator built")
    monkeypatch.setattr(BlockLayoutOperator, "__init__", refuse)
    x, y = _data(40, seed=15)
    for filt, lam in ((landweber(), 1.0 / (MAX_STEPS + 1)),
                      (nu_method(), LAMBDA_MIN)):
        assert filt.steps(lam) > MAX_STEPS
        with pytest.raises(ValueError, match="steps"):
            fit_distributed(kernel, filt, lam, x, y, partition(40, 4))
