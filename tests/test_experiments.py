import math
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from splitkern import _parallel, experiments
from splitkern.distributed import fit_distributed, partition
from splitkern.estimator import KernelExpansion, fit_iterative, fit_spectral
from splitkern.experiments import (ExperimentConfig, RESULT_HEADER,
                                   SETTINGS, _error_curves, _gl_nodes, gen_data,
                                   hk_error, l2_error, oracle_select,
                                   results_csv, run_rng, simulate,
                                   summary_csv, sweep_alpha, sweep_n)
from splitkern.filters import MAX_STEPS, landweber, nu_method, tikhonov
from splitkern.kernels import (BlockLayoutOperator, KernelOperator,
                               kernel_operator, rkhs_norm_sq, sobolev_min,
                               user_kernel)
from splitkern.smoothness import quadratic_bump

from reference import DERIVATIVES


@pytest.fixture
def kernel():
    return sobolev_min()


@pytest.fixture
def bump():
    return quadratic_bump()


# ---------------------------------------------------------------------------
# data generation


def test_gen_data_exact_when_noiseless(bump):
    x, y = gen_data(bump, 100, 0.0, 3)
    assert np.array_equal(y, bump(x))


def test_gen_data_deterministic(bump):
    x1, y1 = gen_data(bump, 64, 0.1, 42)
    x2, y2 = gen_data(bump, 64, 0.1, 42)
    x3, _ = gen_data(bump, 64, 0.1, 43)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(x1, x3)


def test_gen_data_uniform_mean(bump):
    x, _ = gen_data(bump, 100_000, 0.0, 12345)
    assert 0.497 <= x.mean() <= 0.503


def test_gen_data_validation(bump):
    with pytest.raises(ValueError):
        gen_data(bump, 0, 0.1, 0)
    with pytest.raises(ValueError):
        gen_data(bump, 10, -0.1, 0)
    with pytest.raises(ValueError):
        gen_data(bump, 10, math.nan, 0)


# ---------------------------------------------------------------------------
# error metrics


def test_hk_error_zero_estimator_is_target_norm(kernel, bump):
    zero = KernelExpansion(np.zeros(4), kernel_operator(
        kernel, np.array([0.1, 0.3, 0.5, 0.7])))
    assert hk_error(zero, bump) == pytest.approx(math.sqrt(1 / 12), rel=1e-12)


def test_hk_error_zero_target_is_estimator_norm(kernel):
    from splitkern.kernels import rkhs_norm_sq
    from splitkern.smoothness import zero_target
    rng = np.random.default_rng(1)
    est = KernelExpansion(rng.standard_normal(12), kernel_operator(
        kernel, rng.random(12)))
    assert hk_error(est, zero_target()) == pytest.approx(
        math.sqrt(rkhs_norm_sq(est)), rel=1e-12)


def _segment_quadrature_oracle(est, target, nodes=24):
    """Independent RKHS error: integrate (est' - target')^2 segment by
    segment, with est' reconstructed by brute force from the kernel."""
    exp = est.as_expansion() if hasattr(est, "as_expansion") else est
    pts, alpha = exp.points, exp.coefficients
    edges = np.unique(np.concatenate([[0.0], np.sort(pts), [1.0]]))
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    target_deriv = DERIVATIVES[target.name]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (a + b) + 0.5 * (b - a) * xg
        ws = 0.5 * (b - a) * wg
        deriv = np.array([float(np.sum(alpha * ((x < pts) - pts)))
                          for x in xs])
        total += float(np.sum(ws * (deriv - target_deriv(xs)) ** 2))
    return math.sqrt(total)


def test_hk_error_matches_quadrature_oracle(kernel, bump):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.random(64)
        y = bump(x) + 0.05 * rng.standard_normal(64)
        est = fit_spectral(kernel, tikhonov(), 0.01, x, y)
        direct = hk_error(est, bump)
        oracle = _segment_quadrature_oracle(est, bump)
        assert direct == pytest.approx(oracle, abs=1e-6)


def test_hk_error_matches_dense_kernel(kernel, dense_sobolev, bump):
    rng = np.random.default_rng(7)
    x = rng.random(2000)
    y = bump(x) + 0.005 * rng.standard_normal(2000)
    alpha = fit_iterative(kernel, nu_method(), 1.0 / 30 ** 2, x, y).coefficients
    fast = hk_error(KernelExpansion(alpha, kernel_operator(kernel, x)), bump)
    ref = hk_error(KernelExpansion(alpha, kernel_operator(
        dense_sobolev, x)), bump)
    assert fast == pytest.approx(ref, rel=1e-9)


def test_hk_error_averaged_equals_concatenated_expansion(kernel, bump):
    rng = np.random.default_rng(8)
    x = rng.random(60)
    y = bump(x) + 0.01 * rng.standard_normal(60)
    avg = fit_distributed(kernel, tikhonov(), 0.05, x, y, partition(60, 3))
    assert hk_error(avg, bump) == pytest.approx(
        hk_error(avg.as_expansion(), bump), rel=1e-12)


def test_block_fits_keep_their_operator(kernel, bump, monkeypatch):
    # the fit builds one block-layout operator for the level (Tikhonov and
    # iterative alike), and predictions build none
    builds = []
    real = BlockLayoutOperator.__init__
    monkeypatch.setattr(BlockLayoutOperator, "__init__",
                        lambda self, *a: builds.append(1) or real(self, *a))
    x, y = gen_data(bump, 96, 0.01, 9)
    for filt, lam in [(tikhonov(), 1e-3), (nu_method(), 1.0 / 8 ** 2)]:
        builds.clear()
        est = fit_distributed(kernel, filt, lam, x, y, partition(96, 4))
        assert len(builds) == 1
        l2_error(est, bump)
        assert len(builds) == 1


def test_one_block_scoring_builds_no_operator(kernel, dense_sobolev, bump,
                                              monkeypatch):
    # a level of one block is its own average, so scoring it builds no
    # operator of either class
    builds = []
    real = KernelOperator.__init__
    monkeypatch.setattr(KernelOperator, "__init__",
                        lambda self, *a: builds.append(1) or real(self, *a))
    x, y = gen_data(bump, 96, 0.01, 9)
    for k in (kernel, dense_sobolev):
        for est in (fit_spectral(k, tikhonov(), 1e-3, x, y),
                    fit_distributed(k, nu_method(), 1.0 / 8 ** 2, x, y,
                                    partition(96, 1))):
            builds.clear()
            assert est.as_expansion() is est
            hk_error(est, bump)
            l2_error(est, bump)
            rkhs_norm_sq(est)
            assert builds == []


def test_study_computes_quadrature_nodes_once(monkeypatch, pooled):
    # the nodes are computed before the runs fan out, not by each pool
    # thread that finds the cache empty
    calls = []
    real = experiments.gauss_legendre
    monkeypatch.setattr(experiments, "gauss_legendre",
                        lambda n: calls.append(n) or real(n))
    _gl_nodes.cache_clear()
    cfg = ExperimentConfig(filter="nu-method", n=64, sigma=0.01,
                           lam="oracle", k_max=8, runs=4, seed=3, workers=2)
    sweep_alpha(cfg, [0.0, 0.3])
    assert calls == [512]
    assert pooled == [2, 2]


def _tied_sample(target, n, sigma, rng):
    """`gen_data`'s draw with exact ties and anchors at 0 and 1 mixed in."""
    x, _ = gen_data(target, n, sigma, rng)
    x[:40] = x[40:80]
    x[80:90], x[90:100] = 0.0, 1.0
    x[100:110] = x[110]
    return x, target(x) + sigma * rng.standard_normal(n)


@pytest.mark.parametrize("filt, lam", [(nu_method(), 1.0 / 12 ** 2),
                                       (tikhonov(), 1e-4)])
def test_assessment_l2_is_the_block_average_l2(bump, monkeypatch, filt, lam):
    # the harness scores L2 on one expansion over the whole sample; that is
    # the block average's L2 to rounding, and bit for bit at m = 1
    fits = {}
    real = experiments.fit_distributed

    def recording(*args):
        est = real(*args)
        fits[args[-1].m] = est
        return est

    monkeypatch.setattr(experiments, "gen_data", _tied_sample)
    monkeypatch.setattr(experiments, "fit_distributed", recording)
    cfg = ExperimentConfig(n=600, sigma=0.01, seed=4)
    levels = [(0.5, 28), (0.0, 1), (0.2, 2), (0.3, 5), (0.8, 147)]
    rows = experiments._assess_run(cfg, sobolev_min(), filt, bump, lam, 0,
                                   levels)
    assert [(r.alpha, r.m) for r in rows] == levels
    for row in rows:
        ref = l2_error(fits[row.m], bump, cfg.quad_nodes)
        if row.m == 1:
            assert row.l2_error == ref
        else:
            assert row.l2_error == pytest.approx(ref, rel=1e-10, abs=0)


@pytest.mark.parametrize("alphas", [[0.0, 0.3], [0.3, 0.0], [0.3, 0.6]])
def test_study_run_sorts_its_sample_once(monkeypatch, alphas):
    # a run's sample is laid out once: by its level of one block when it
    # has one, whichever level comes first, else by the scoring operator
    full = []
    real = BlockLayoutOperator.__init__

    def counting(self, kernel, points, sizes):
        full.append(sizes.size == 1)
        real(self, kernel, points, sizes)

    monkeypatch.setattr(BlockLayoutOperator, "__init__", counting)
    cfg = ExperimentConfig(filter="nu-method", n=64, sigma=0.01,
                           lam=1.0 / 8 ** 2, runs=3, seed=3)
    sweep_alpha(cfg, alphas)
    assert sum(full) == cfg.runs


def test_gl_nodes_cached_and_read_only():
    xg, wg = _gl_nodes(128)
    assert _gl_nodes(128)[0] is xg
    assert not xg.flags.writeable and not wg.flags.writeable
    with pytest.raises(ValueError):
        xg[0] = 0.5
    assert float(np.sum(wg)) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("filt", [landweber(), nu_method()])
def test_curves_iterative_structured_matches_dense(kernel, dense_sobolev,
                                                   bump, filt):
    x, y = gen_data(bump, 400, 0.005, 4)
    ks = np.arange(1, 41)
    fast = _error_curves(kernel, filt, x, y, bump, ks)
    ref = _error_curves(dense_sobolev, filt, x, y, bump, ks)
    assert np.allclose(fast, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("filt", [landweber(), nu_method()])
def test_curves_iterative_products(kernel, bump, monkeypatch, filt):
    # a curve to k_max makes k_max products with the Gram operator and
    # keeps the requested steps only
    products = []
    real = BlockLayoutOperator.matvec
    monkeypatch.setattr(BlockLayoutOperator, "matvec",
                        lambda self, v: products.append(1) or real(self, v))
    x, y = gen_data(bump, 50, 0.005, 6)
    curves = _error_curves(kernel, filt, x, y, bump, np.array([2, 5, 9]))
    assert len(products) == 9
    assert curves.shape == (3,)
    full = _error_curves(kernel, filt, x, y, bump, np.arange(1, 10))
    assert np.array_equal(curves, full[[1, 4, 8]])


@pytest.mark.parametrize("filt, grid", [(tikhonov(), [0.1, 0.01]),
                                        (landweber(), [1, 2, 3])],
                         ids=["tikhonov", "landweber"])
def test_curves_reject_a_kernel_that_is_not_psd(bump, filt, grid):
    # the negated built-in kernel makes a' G a < 0, so the squared error
    # formula goes far below zero: an error, not a curve clamped to 0
    negated = user_kernel(lambda x, t: x * t - np.minimum(x, t), kappa=0.5)
    x, y = gen_data(bump, 50, 0.005, 6)
    with pytest.raises(ArithmeticError, match="negative squared error"):
        _error_curves(negated, filt, x, y, bump, np.array(grid))


@pytest.mark.parametrize("seed", range(4))
def test_curves_spectral_solve_matches_eigh(kernel, dense_sobolev, bump,
                                            seed):
    # Tikhonov on the built-in kernel takes the shifted solve; the dense
    # kernel takes the eigendecomposition of the same Gram
    grid = np.logspace(0, -6, 40)
    fast, ref = [], []
    for r in range(3):
        x, y = gen_data(bump, 512, 0.005, run_rng(seed, r))
        fast.append(_error_curves(kernel, tikhonov(), x, y, bump, grid))
        ref.append(_error_curves(dense_sobolev, tikhonov(), x, y, bump, grid))
        assert np.allclose(fast[-1], ref[-1], rtol=1e-9, atol=0)
    rms = [np.sqrt(np.mean(cs, axis=0)) for cs in (fast, ref)]
    assert np.argmin(rms[0]) == np.argmin(rms[1])


def test_l2_error_values(kernel, bump):
    assert l2_error(bump, bump) == 0.0
    zero = KernelExpansion(np.zeros(2), kernel_operator(
        kernel, np.array([0.4, 0.6])))
    assert l2_error(zero, bump) == pytest.approx(math.sqrt(1 / 120), rel=1e-10)
    with pytest.raises(ValueError):
        l2_error(zero, bump, quad_nodes=32)


def test_l2_bounded_by_kappa_times_hk(kernel, bump):
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x = rng.random(32)
        y = bump(x) + 0.1 * rng.standard_normal(32)
        est = fit_spectral(kernel, tikhonov(), 0.02, x, y)
        assert l2_error(est, bump) <= kernel.kappa * hk_error(est, bump) + 1e-8


# ---------------------------------------------------------------------------
# oracle selection


def test_oracle_single_point_grid(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=48, sigma=0.01, runs=2,
                           seed=1, workers=1, grid_size=1)
    sel = oracle_select(cfg)
    assert sel.lam == 1.0 and sel.index == 0


def test_oracle_noiseless_cutoff_prefers_least_smoothing(bump):
    cfg = ExperimentConfig(filter="cutoff", n=96, sigma=0.0, runs=1, seed=2,
                           workers=1, grid_min=1e-6, grid_size=20)
    sel = oracle_select(cfg)
    curve = sel.rms_curve
    assert np.all(np.diff(curve) <= 1e-12)          # monotone in the sweep
    assert curve[sel.index] == pytest.approx(curve[-1], abs=1e-15)


def test_oracle_interior_minimum_tikhonov():
    cfg = ExperimentConfig(filter="tikhonov", n=512, sigma=0.005, runs=5,
                           seed=3, grid_min=1e-6, grid_size=40)
    sel = oracle_select(cfg)
    assert 0 < sel.index < len(sel.lambdas) - 1


def test_oracle_iterative_grid_semantics():
    cfg = ExperimentConfig(filter="nu-method", n=64, sigma=0.01, runs=2,
                           seed=4, workers=1, k_max=12)
    sel = oracle_select(cfg)
    assert sel.steps is not None and sel.steps[0] == 1 and sel.steps[-1] == 12
    assert sel.lam == pytest.approx(float(sel.k) ** -2)
    assert nu_method().steps(sel.lam) == sel.k
    for bad in (0, MAX_STEPS + 1):
        with pytest.raises(ValueError, match="steps"):
            oracle_select(replace(cfg, k_max=bad))


@pytest.mark.parametrize("filt", [landweber(), nu_method()],
                         ids=["landweber", "nu-method"])
def test_oracle_sigma0_curve_matches_refit(kernel, bump, filt):
    # curve errors at step k equal an explicit iterative fit at k
    cfg = ExperimentConfig(filter=filt.kind, n=40, sigma=0.01, runs=1,
                           seed=5, workers=1, k_max=8)
    sel = oracle_select(cfg)
    x, y = gen_data(bump, 40, 0.01, np.random.default_rng(
        np.random.SeedSequence(entropy=5, spawn_key=(0,))))
    for k in [1, 4, 8]:
        est = fit_iterative(kernel, filt, sel.lambdas[k - 1], x, y)
        assert filt.steps(sel.lambdas[k - 1]) == k
        assert sel.rms_curve[k - 1] == pytest.approx(
            hk_error(est, bump), rel=1e-9, abs=1e-12)


def test_oracle_tikhonov_curve_matches_refit(kernel, bump):
    # every point of the shifted-solve curve is the error of the one-lambda
    # fit at that point, bit for bit
    cfg = ExperimentConfig(filter="tikhonov", n=200, sigma=0.01, runs=1,
                           seed=5, workers=1)
    sel = oracle_select(cfg)
    x, y = gen_data(bump, 200, 0.01, run_rng(5, 0))
    for lam, rms in zip(sel.lambdas, sel.rms_curve):
        est = fit_spectral(kernel, tikhonov(), lam, x, y)
        assert rms == hk_error(est, bump)


# ---------------------------------------------------------------------------
# sweeps and reproducibility


def test_simulate_rows_and_csv(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=64, sigma=0.01, lam=0.05,
                           runs=3, seed=6, workers=1)
    rows = simulate(cfg).rows
    assert len(rows) == 3 and all(r.m == 1 for r in rows)
    csv = results_csv(rows)
    assert csv.splitlines()[0] == RESULT_HEADER
    assert len(csv.splitlines()) == 4


def test_sweep_alpha_alpha0_matches_single_machine(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=96, sigma=0.01, lam=0.02,
                           runs=3, seed=7, workers=1)
    sweep = sweep_alpha(cfg, [0.0, 0.5])
    single = simulate(replace(cfg, alpha=0.0)).rows
    sw0 = [r for r in sweep.rows if r.alpha == 0.0]
    assert len(sw0) == len(single) == 3
    for a, b in zip(sw0, single):
        assert a.hk_error == b.hk_error and a.l2_error == b.l2_error


def test_sweep_alpha_block_counts(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=100, sigma=0.01, lam=0.05,
                           runs=2, seed=8, workers=1)
    sweep = sweep_alpha(cfg, [0.0, 0.3, 0.5])
    got = {(g.alpha, g.m) for g in sweep.summary}
    assert got == {(0.0, 1), (0.3, 4), (0.5, 10)}


def test_sweep_n_slope_present(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=64, sigma=0.01, lam=0.05,
                           runs=2, seed=9, workers=1)
    result = sweep_n(cfg, [64, 128, 256])
    assert 0.0 in result.slopes
    ns = sorted({g.n for g in result.summary})
    assert ns == [64, 128, 256]


def test_reproducible_across_worker_counts(bump, pooled):
    base = ExperimentConfig(filter="nu-method", n=64, sigma=0.01, lam="oracle",
                            runs=4, seed=10, k_max=16)
    out = []
    for workers in (1, 2, 4):
        sweep = sweep_alpha(replace(base, workers=workers), [0.0, 0.4])
        out.append((results_csv(sweep.rows),
                    summary_csv(sweep.summary, sweep.slopes)))
    assert out[0] == out[1] == out[2]
    assert pooled == [2, 2, 4, 4]


def _no_thread(target):
    raise AssertionError("started a helper thread")


def test_small_studies_run_inline(bump, monkeypatch):
    # one run's numpy calls hold n values: two threads would spend their
    # time handing the GIL over
    monkeypatch.setattr(_parallel, "Thread", _no_thread)
    nu = ExperimentConfig(filter="nu-method", n=1024, sigma=0.01,
                          lam="oracle", k_max=16, runs=2, seed=1, workers=2)
    assert len(sweep_alpha(nu, [0.0, 0.5]).rows) == 4
    # a level vector of 8192 values, where two threads still lose
    oracle_select(replace(nu, n=8192, k_max=4))
    tik = replace(nu, filter="tikhonov", lam=1e-3)
    assert len(sweep_n(tik, [512, 2048], [0.0, 0.5]).rows) == 8


@pytest.mark.parametrize("filt,n", [("cutoff", 128), ("nu-method", 16384)])
def test_oracles_with_large_calls_use_the_pool(bump, pool_starts, filt, n):
    # cut-off eigendecomposes n x n, the nu-method steps a level vector of
    # n values: at least POOL_VALUES values per call
    assert n * (n if filt == "cutoff" else 1) >= _parallel.POOL_VALUES
    cfg = ExperimentConfig(filter=filt, n=n, sigma=0.01, runs=2, seed=1,
                           k_max=4, workers=2)
    oracle_select(cfg)
    assert pool_starts == [2]


@pytest.mark.parametrize("n", [204, 205, 256, 4096, 40000])
def test_tikhonov_runs_never_pool(n):
    # the shifted solve is many short numpy calls at any n, which two
    # threads would spend handing the GIL over
    cfg = ExperimentConfig(filter="tikhonov", n=n, workers=2)
    assert experiments._run_workers(cfg, tikhonov()) == 1
    assert experiments._run_workers(replace(cfg, n=n * n), tikhonov()) == 1


def test_tikhonov_oracle_runs_inline_at_paper_scale(bump, monkeypatch):
    monkeypatch.setattr(_parallel, "Thread", _no_thread)
    cfg = ExperimentConfig(filter="tikhonov", n=16384, sigma=0.01, runs=2,
                           seed=1, workers=2)
    assert 0 < oracle_select(cfg).index < 39


def test_pool_workers_checks_workers_before_the_size_rule():
    limit = _parallel.POOL_VALUES
    assert _parallel._pool_workers(3, limit) == 3
    assert _parallel._pool_workers(3, limit - 1) == 1
    for workers in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            _parallel._pool_workers(workers, 1)


def test_default_workers_counts_the_usable_cpus(monkeypatch, pool_starts):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7},
                        raising=False)
    assert _parallel.default_workers() == 2
    assert _parallel.parallel_map(abs, range(-5, 5)) == [5, 4, 3, 2, 1,
                                                         0, 1, 2, 3, 4]
    assert pool_starts == [2]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _parallel.default_workers() == 64


def test_config_from_mapping_round_trip():
    cfg = ExperimentConfig.from_mapping({
        "target": "scaled-sine", "filter": "landweber", "n": "256",
        "alpha": "0.2", "sigma": "0.01", "lambda": "theory", "runs": "5",
        "seed": "3", "r": "0.6", "R": "2.0", "b": "2.5", "timing": "false",
    })
    assert cfg.target == "scaled-sine" and cfg.lam == "theory"
    assert cfg.r == 0.6 and cfg.R == 2.0 and cfg.n == 256
    from splitkern.experiments import _levels_for
    assert _levels_for(cfg.n, [cfg.alpha]) == [(0.2, 3)]
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"mystery": 1})


def test_theory_lambda_resolution(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=1024, sigma=1.0, lam="theory",
                           runs=1, seed=1, workers=1, r=0.5, b=2.0, R=1.0)
    from splitkern.experiments import resolve_lambda
    lam = resolve_lambda(cfg)
    assert lam == pytest.approx(1 / 16, rel=1e-12)


def test_wall_ms_off_by_default_on_when_asked(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=32, sigma=0.01, lam=0.1,
                           runs=1, seed=2, workers=1)
    rows = simulate(cfg).rows
    assert rows[0].wall_ms is None
    rows_t = simulate(replace(cfg, timing=True)).rows
    assert rows_t[0].wall_ms is not None and rows_t[0].wall_ms > 0


def test_sweep_alpha_memory_bounded():
    # a dense Gram at n = 8192 alone is 512 MiB
    cfg = ExperimentConfig(filter="nu-method", n=8192, runs=1, k_max=8,
                           seed=2, workers=1)
    tracemalloc.start()
    try:
        res = sweep_alpha(cfg, [0.0, 0.5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.rows) == 2
    assert peak < 64 * 2 ** 20


def test_tikhonov_oracle_memory_bounded():
    # oracle curves over 40 lambdas plus the assessment fit at n = 8192;
    # a dense Gram alone is 512 MiB
    cfg = ExperimentConfig(filter="tikhonov", n=8192, runs=1, seed=3,
                           workers=1)
    tracemalloc.start()
    try:
        rows = simulate(cfg).rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 1 and math.isfinite(rows[0].hk_error)
    assert peak < 64 * 2 ** 20


def test_tikhonov_oracle_run_memory_bounded_at_paper_scale():
    """One oracle run at n = 65536 over the default 40-point grid peaks
    below 96 MiB of traced numpy memory, a bound fixed before the shifted
    solve was chunked: it peaked at 242 MiB solving all 40 shifts at once,
    and at 45 MiB a chunk of `kernels.SHIFT_CHUNK` values at a time, the
    kept (40, n) coefficients (20 MiB) included."""
    cfg = ExperimentConfig(filter="tikhonov", n=65536, runs=1, seed=3,
                           workers=1)
    tracemalloc.start()
    try:
        sel = oracle_select(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < sel.index < 39
    assert peak < 96 * 2 ** 20


def test_sweep_alpha_equals_sweep_n_at_one_size(bump):
    cfg = ExperimentConfig(filter="nu-method", n=96, sigma=0.01,
                           lam="oracle", k_max=12, runs=3, seed=5,
                           workers=2)
    alphas = [0.0, 0.3, 0.5]
    by_alpha = sweep_alpha(cfg, alphas)
    by_n = sweep_n(cfg, [cfg.n], alphas)
    assert results_csv(by_alpha.rows) == results_csv(by_n.rows)
    assert summary_csv(by_alpha.summary, by_alpha.slopes) \
        == summary_csv(by_n.summary, by_n.slopes)
    assert by_alpha.summary == by_n.summary


def test_settings_cover_every_config_field():
    names = {f.name for f in fields(ExperimentConfig)}
    assert set(SETTINGS) == (names - {"lam"}) | {"lambda"}
    cfg = ExperimentConfig.from_mapping({"LAM": "theory", "R": "2",
                                         "r": "0.3", "Timing": "yes"})
    assert (cfg.lam, cfg.R, cfg.r, cfg.timing) == ("theory", 2.0, 0.3, True)
    with pytest.raises(ValueError, match="k_max"):
        ExperimentConfig.from_mapping({"k_max": "many"})
