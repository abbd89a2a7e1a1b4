import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from splitkern.distributed import fit_distributed, partition
from splitkern.estimator import KernelExpansion, fit_iterative, fit_spectral
from splitkern.experiments import (ExperimentConfig, RESULT_HEADER,
                                   SETTINGS, _error_curves, _gl_nodes, gen_data,
                                   hk_error, l2_error, oracle_select,
                                   results_csv, run_rng, simulate,
                                   summary_csv, sweep_alpha, sweep_n)
from splitkern.filters import MAX_STEPS, landweber, nu_method, tikhonov
from splitkern.kernels import (SobolevMinOperator, gram, kernel_operator,
                               sobolev_min, user_kernel)
from splitkern.smoothness import quadratic_bump, scaled_sine


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
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (a + b) + 0.5 * (b - a) * xg
        ws = 0.5 * (b - a) * wg
        deriv = np.array([float(np.sum(alpha * ((x < pts) - pts)))
                          for x in xs])
        total += float(np.sum(ws * (deriv - target.derivative(xs)) ** 2))
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
    # one Gram operator per block: the fit builds it and the expansion's
    # predictions use it
    builds = []
    real = SobolevMinOperator.__init__
    monkeypatch.setattr(SobolevMinOperator, "__init__",
                        lambda self, *a: builds.append(1) or real(self, *a))
    x, y = gen_data(bump, 96, 0.01, 9)
    for filt, lam in [(tikhonov(), 1e-3), (nu_method(), 1.0 / 8 ** 2)]:
        builds.clear()
        l2_error(fit_distributed(kernel, filt, lam, x, y, partition(96, 4)),
                 bump)
        assert len(builds) == 4


def test_study_computes_quadrature_nodes_once(monkeypatch):
    # the nodes are computed before the runs fan out, not by each pool
    # thread that finds the cache empty
    calls = []
    real = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or real(deg))
    _gl_nodes.cache_clear()
    cfg = ExperimentConfig(filter="nu-method", n=64, sigma=0.01,
                           lam="oracle", k_max=8, runs=4, seed=3, workers=2)
    sweep_alpha(cfg, [0.0, 0.3])
    assert calls == [512]


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
    real = SobolevMinOperator.matvec
    monkeypatch.setattr(SobolevMinOperator, "matvec",
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
                           seed=1, workers=1)
    sel = oracle_select(cfg, grid=[0.25])
    assert sel.lam == 0.25 and sel.index == 0


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
    for bad in ([0, 3], [3, MAX_STEPS + 1]):
        with pytest.raises(ValueError, match="steps"):
            oracle_select(cfg, grid=bad)


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
        assert math.sqrt(sel.hk_sq_runs[0, k - 1]) == pytest.approx(
            hk_error(est, bump), rel=1e-9, abs=1e-12)


def test_oracle_tikhonov_curve_matches_refit(kernel, bump):
    # every point of the shifted-solve curve is the error of the one-lambda
    # fit at that point, bit for bit
    cfg = ExperimentConfig(filter="tikhonov", n=200, sigma=0.01, runs=1,
                           seed=5, workers=1)
    sel = oracle_select(cfg)
    x, y = gen_data(bump, 200, 0.01, run_rng(5, 0))
    for lam, hk_sq in zip(sel.lambdas, sel.hk_sq_runs[0]):
        est = fit_spectral(kernel, tikhonov(), lam, x, y)
        assert math.sqrt(hk_sq) == hk_error(est, bump)


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


def test_reproducible_across_worker_counts(bump):
    base = ExperimentConfig(filter="nu-method", n=64, sigma=0.01, lam="oracle",
                            runs=4, seed=10, k_max=16)
    out = []
    for workers in (1, 2, 4):
        sweep = sweep_alpha(replace(base, workers=workers), [0.0, 0.4])
        out.append((results_csv(sweep.rows),
                    summary_csv(sweep.summary, sweep.slopes)))
    assert out[0] == out[1] == out[2]


def test_config_from_mapping_round_trip():
    cfg = ExperimentConfig.from_mapping({
        "target": "scaled-sine", "filter": "landweber", "n": "256",
        "alpha": "0.2", "sigma": "0.01", "lambda": "theory", "runs": "5",
        "seed": "3", "r": "0.6", "R": "2.0", "b": "2.5", "timing": "false",
    })
    assert cfg.target == "scaled-sine" and cfg.lam == "theory"
    assert cfg.r == 0.6 and cfg.R == 2.0 and cfg.n == 256
    assert cfg.resolved_m() == round(256 ** 0.2)
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"mystery": 1})


def test_theory_lambda_resolution(bump):
    cfg = ExperimentConfig(filter="tikhonov", n=1024, sigma=1.0, lam="theory",
                           runs=1, seed=1, workers=1, r=0.5, b=2.0, R=1.0)
    from splitkern.experiments import resolve_lambda
    lam, k = resolve_lambda(cfg)
    assert lam == pytest.approx(1 / 16, rel=1e-12) and k is None


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


def test_sweep_alpha_equals_sweep_n_at_one_size(bump):
    cfg = ExperimentConfig(filter="nu-method", n=96, sigma=0.01,
                           lam="oracle", k_max=12, runs=3, seed=5,
                           workers=2, shuffle=True)
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
                                         "r": "0.3", "Shuffle": "yes"})
    assert (cfg.lam, cfg.R, cfg.r, cfg.shuffle) == ("theory", 2.0, 0.3, True)
    with pytest.raises(ValueError, match="k_max"):
        ExperimentConfig.from_mapping({"k_max": "many"})
