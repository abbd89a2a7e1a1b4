import numpy as np
import pytest

from splitkern.adaptivity import (adapt, default_m_sequence, empirical_error,
                                  fit_lattice, holdout_split, stopping_index)
from splitkern.distributed import partition
from splitkern.estimator import (KernelExpansion, coefficient_solver,
                                 fit_spectral)
from splitkern.experiments import gen_data
from splitkern.filters import nu_method, spectral_cutoff, tikhonov
from splitkern.kernels import (SobolevMinOperator, kernel_operator,
                               sobolev_min, user_kernel)
from splitkern.smoothness import quadratic_bump


def brute_force_stop(errs, delta):
    """Literal re-derivation of the stopping rule for cross-checking."""
    deltas = {j: abs(errs[j - 1] - errs[j - 2])
              for j in range(2, len(errs) + 1)}
    for k in range(3, len(errs) + 1):
        if deltas[k] <= delta * min(deltas[j] for j in range(2, k)):
            return k
    return None


def test_stopping_constant_sequence_triggers_at_three():
    assert stopping_index([1.0, 1.0, 1.0, 1.0], 0.5) == 3


def test_stopping_geometric_example():
    # Err chosen so that the improvements are 1/4, 1/8, ...
    errs = [1.0, 0.75, 0.625, 0.5625]
    assert stopping_index(errs, 0.5) == 3


def test_stopping_never_triggers():
    errs = [1.0, 0.5, 0.4, 0.35, 0.325]  # improvements shrink too slowly? no:
    # improvements 0.5, 0.1, 0.05, 0.025 -> at k=3, 0.1 <= 0.5*0.5 triggers
    assert stopping_index(errs, 0.5) == 3
    growing = [1.0, 2.0, 4.0, 8.0, 16.0]  # improvements double every level
    assert stopping_index(growing, 0.5) is None


def test_stopping_against_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        length = int(rng.integers(3, 12))
        errs = rng.random(length)
        if rng.random() < 0.3:  # inject plateaus so zero deltas occur
            i = int(rng.integers(1, length))
            errs[i] = errs[i - 1]
        delta = float(rng.uniform(0.05, 0.95))
        assert stopping_index(errs, delta) == brute_force_stop(list(errs),
                                                               delta)


def test_stopping_validates_delta():
    with pytest.raises(ValueError):
        stopping_index([1, 2, 3], 1.5)


def test_empirical_error_values():
    kernel = sobolev_min()
    exact = quadratic_bump()
    xs = np.linspace(0.1, 0.9, 9)
    assert empirical_error(exact, xs, exact(xs)) == 0.0
    zero = KernelExpansion(np.zeros(1), kernel_operator(
        kernel, np.array([0.5])))
    assert empirical_error(zero, np.array([0.2, 0.8]),
                           np.array([1.0, 1.0])) == 1.0


def test_empirical_error_matches_loop_oracle():
    rng = np.random.default_rng(3)
    target = quadratic_bump()
    x, y = gen_data(target, 256, 0.05, rng)
    est = KernelExpansion(rng.standard_normal(30), kernel_operator(
        sobolev_min(), rng.random(30)))
    manual = sum((y[i] - est(float(x[i]))) ** 2 for i in range(256)) / 256
    assert empirical_error(est, x, y) == pytest.approx(manual, abs=1e-12)


def test_holdout_split_properties():
    split = holdout_split(100, 0.2, seed=1)
    again = holdout_split(100, 0.2, seed=1)
    assert np.array_equal(split.train, again.train)
    assert len(split.validation) == 20
    merged = np.sort(np.concatenate([split.train, split.validation]))
    assert np.array_equal(merged, np.arange(100))
    tiny = holdout_split(2, 0.01, seed=0)
    assert len(tiny.validation) == 1
    with pytest.raises(ValueError):
        holdout_split(1, 0.2)


def test_default_m_sequence_strictly_decreasing():
    for n in [16, 100, 819, 5000]:
        seq = default_m_sequence(n)
        assert len(seq) >= 3
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] == 1 and seq[0] <= n


def test_fit_lattice_pure_and_validation_free():
    kernel = sobolev_min()
    target = quadratic_bump()
    x, y = gen_data(target, 120, 0.02, 4)
    lattice = np.logspace(-3, 0, 5)[::-1]
    a = fit_lattice(kernel, tikhonov(), lattice, x, y, 4)
    b = fit_lattice(kernel, tikhonov(), lattice, x, y, 4)
    for ea, eb in zip(a, b):
        for fa, fb in zip(ea.block_fits, eb.block_fits):
            assert np.array_equal(fa.coefficients, fb.coefficients)


def test_adapt_end_to_end():
    kernel = sobolev_min()
    target = quadratic_bump()
    x, y = gen_data(target, 256, 0.02, 5)
    lattice = np.logspace(-4, 0, 9)
    result = adapt(x, y, kernel, tikhonov(), lattice, delta=0.5, seed=7)
    assert result.k_star >= 3 or not result.triggered
    assert result.lambda_hat in lattice
    assert result.trace[0].delta_k is None
    if result.triggered:
        errs = [lev.err for lev in result.trace]
        assert stopping_index(errs, 0.5) == result.k_star
    # the returned estimator is the recorded winner at level k*
    lev = result.trace[result.k_star - 1]
    assert lev.lambda_hat == result.lambda_hat
    assert result.estimator.m == lev.m_k


def test_adapt_training_fits_independent_of_validation():
    kernel = sobolev_min()
    target = quadratic_bump()
    x, y = gen_data(target, 200, 0.02, 6)
    split = holdout_split(len(x), 0.2, seed=9)
    y_mangled = y.copy()
    y_mangled[split.validation] += 0.5  # corrupt only the validation part
    r1 = adapt(x, y, kernel, tikhonov(), np.logspace(-3, 0, 7),
               seed=9, delta=0.5)
    r2 = adapt(x, y_mangled, kernel, tikhonov(), np.logspace(-3, 0, 7),
               seed=9, delta=0.5)
    # selections may differ, but any same-(level, lambda) fit is identical
    for lev1, lev2 in zip(r1.trace, r2.trace):
        if lev1.lambda_hat == lev2.lambda_hat:
            assert lev1.m_k == lev2.m_k
    f1 = fit_lattice(kernel, tikhonov(), [0.1], x[split.train],
                     y[split.train], 4)[0]
    f2 = fit_lattice(kernel, tikhonov(), [0.1], x[split.train],
                     y_mangled[split.train], 4)[0]
    for a, b in zip(f1.block_fits, f2.block_fits):
        assert np.array_equal(a.coefficients, b.coefficients)


def test_adapt_input_validation():
    kernel = sobolev_min()
    target = quadratic_bump()
    x, y = gen_data(target, 64, 0.02, 8)
    with pytest.raises(ValueError):
        adapt(x, y, kernel, tikhonov(), [], seed=1)
    with pytest.raises(ValueError):
        adapt(x, y, kernel, tikhonov(), [0.1], m_sequence=[4, 4, 1], seed=1)
    with pytest.raises(ValueError):
        adapt(x, y, kernel, tikhonov(), [0.1], m_sequence=[4, 2], seed=1)
    with pytest.raises(ValueError):
        adapt(x, y, kernel, tikhonov(), [0.1], delta=1.5, seed=1)


def test_adapt_lattice_tie_breaks_toward_larger_lambda():
    kernel = sobolev_min()
    target = quadratic_bump()
    x, y = gen_data(target, 128, 0.0, 10)
    # noiseless data: several tiny lambdas give numerically equal errors;
    # the recorded lambda must be the largest among the minimizers
    lattice = np.array([1e-10, 3e-10, 1e-9])
    result = adapt(x, y, kernel, tikhonov(), lattice, seed=11, delta=0.5)
    for lev in result.trace:
        errs = [empirical_error(est, x[result.split.validation],
                                y[result.split.validation])
                for est in fit_lattice(kernel, tikhonov(),
                                       np.sort(lattice)[::-1],
                                       x[result.split.train],
                                       y[result.split.train], lev.m_k)]
        minimizers = [i for i, e in enumerate(errs) if e == min(errs)]
        assert lev.lambda_hat == np.sort(lattice)[::-1][minimizers[0]]


@pytest.mark.parametrize("seed", [0, 1])
def test_adapt_solve_matches_eigh_path(dense_sobolev, seed):
    # Tikhonov lattices of the built-in kernel take the shifted solve, the
    # dense kernel the eigendecomposition of the same Gram
    x, y = gen_data(quadratic_bump(), 512, 0.005, seed)
    lattice = np.logspace(-6, 0, 25)
    fast, ref = (adapt(x, y, k, tikhonov(), lattice, delta=0.5, seed=seed)
                 for k in (sobolev_min(), dense_sobolev))
    assert fast.k_star == ref.k_star
    assert [lev.lambda_hat for lev in fast.trace] == \
        [lev.lambda_hat for lev in ref.trace]
    for a, b in zip(fast.trace, ref.trace):
        assert a.err == pytest.approx(b.err, rel=1e-9)


def gaussian(calls=None, x_val=None):
    """Gaussian user kernel; with `calls`, counts its evaluations at the
    validation points `x_val`."""
    def fn(x, t):
        if calls is not None and np.array_equal(np.ravel(t), x_val):
            calls.append(np.shape(x))
        return np.exp(-(x - t) ** 2 / (2 * 0.1 ** 2))
    return user_kernel(fn, kappa=1.0)


@pytest.mark.parametrize("filt", [tikhonov(), nu_method(), spectral_cutoff()])
def test_lattice_errors_match_empirical_error(filt):
    # built-in kernel: scoring the lattice's rows together makes the same
    # additions in the same order as scoring each row alone, bit for bit
    x, y = gen_data(quadratic_bump(), 300, 0.01, 12)
    split = holdout_split(len(x), 0.2, seed=3)
    lattice = np.logspace(-5, 0, 9)[::-1]
    for m in (7, 3, 1):
        fits = fit_lattice(sobolev_min(), filt, lattice, x[split.train],
                           y[split.train], m)
        x_v, y_v = x[split.validation], y[split.validation]
        ref = [empirical_error(e, x_v, y_v) for e in fits]
        assert list(empirical_error(fits, x_v, y_v)) == ref


def test_lattice_errors_match_empirical_error_user_kernel():
    # One matrix product for the whole lattice sums in another order than
    # one product per fit.  Each of the two is within s * eps |c| @ |K| of
    # the exact block prediction (s anchors), so the predictions differ by
    # at most twice that, d, and each error by at most mean(2 |r| d + d^2).
    kernel = gaussian()
    eps = np.finfo(float).eps
    x, y = gen_data(quadratic_bump(), 300, 0.01, 13)
    split = holdout_split(len(x), 0.2, seed=4)
    x_v, y_v = x[split.validation], y[split.validation]
    lattice = np.logspace(-6, 0, 13)[::-1]
    for m in (9, 4):
        fits = fit_lattice(kernel, tikhonov(), lattice, x[split.train],
                           y[split.train], m)
        got = empirical_error(fits, x_v, y_v)
        for est, err in zip(fits, got):
            d = sum(2 * f.points.size * eps * np.abs(f.coefficients)
                    @ np.abs(kernel.fn(f.points[:, None], x_v[None, :]))
                    for f in est.block_fits) / m
            r = np.abs(y_v - est(x_v))
            assert abs(err - empirical_error(est, x_v, y_v)) \
                <= np.mean(2 * r * d + d ** 2)


def test_adapt_evaluates_each_block_once_per_level():
    x, y = gen_data(quadratic_bump(), 400, 0.01, 14)
    split = holdout_split(len(x), 0.2, seed=5)
    calls = []
    kernel = gaussian(calls, x[split.validation])
    result = adapt(x, y, kernel, tikhonov(), np.logspace(-6, 0, 25),
                   m_sequence=[16, 7, 3, 1], delta=0.5, seed=5, workers=1)
    assert len(calls) == sum(lev.m_k for lev in result.trace)


@pytest.mark.parametrize("kernel", [sobolev_min(), gaussian()],
                         ids=["sobolev-min", "gaussian"])
def test_adapt_identical_across_workers(kernel):
    x, y = gen_data(quadratic_bump(), 400, 0.01, 15)
    one, two = (adapt(x, y, kernel, tikhonov(), np.logspace(-6, 0, 13),
                      delta=0.5, seed=6, workers=w) for w in (1, 2))
    assert one.trace == two.trace
    assert (one.k_star, one.lambda_hat) == (two.k_star, two.lambda_hat)
    for a, b in zip(one.estimator.block_fits, two.estimator.block_fits):
        assert np.array_equal(a.coefficients, b.coefficients)


@pytest.mark.parametrize("kernel, filt", [
    (sobolev_min(), tikhonov()),          # the shifted solve
    (sobolev_min(), spectral_cutoff()),   # eigendecomposition
    (sobolev_min(), nu_method()),
    (gaussian(), tikhonov()),
], ids=["solve", "cutoff", "nu-method", "gaussian"])
def test_lattice_rows_are_single_lambda_fits(kernel, filt):
    # row i of a level is the block fits at lattice[i], bit for bit, on
    # every path: the shifted solve forms each shift's products as a
    # one-shift solve does
    x, y = gen_data(quadratic_bump(), 200, 0.01, 16)
    lattice = np.logspace(-6, 0, 13)[::-1]
    fits = fit_lattice(kernel, filt, lattice, x, y, 3)
    blocks = partition(len(x), 3).blocks
    solves = [coefficient_solver(kernel_operator(kernel, x[ix]), filt)(
        lattice, y[ix]) for ix in blocks]
    for i, lam in enumerate(lattice):
        for ix, fit, c in zip(blocks, fits[i].block_fits, solves):
            ref = fit_spectral(kernel, filt, lam, x[ix], y[ix])
            assert np.array_equal(fit.points, ref.points)
            assert np.array_equal(fit.coefficients, c[i])
            assert np.array_equal(fit.coefficients, ref.coefficients)


def test_adapt_builds_one_operator_per_block_and_level(monkeypatch):
    # the operator a block's solve builds is the one its expansion scores
    # with
    builds = []
    real = SobolevMinOperator.__init__
    monkeypatch.setattr(SobolevMinOperator, "__init__",
                        lambda self, *a: builds.append(1) or real(self, *a))
    x, y = gen_data(quadratic_bump(), 400, 0.01, 17)
    result = adapt(x, y, sobolev_min(), tikhonov(), np.logspace(-6, 0, 13),
                   m_sequence=[16, 7, 3, 1], delta=0.5, seed=5, workers=2)
    assert len(builds) == sum(lev.m_k for lev in result.trace)
