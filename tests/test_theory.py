import math

import numpy as np
import pytest

from splitkern.estimator import spectral_model
from splitkern.kernels import gram, sobolev_min
from splitkern.theory import (SOBOLEV_DECAY_SCALE, TheoryParams, alpha_bound,
                              b_quantity, effective_dimension, lambda_choice,
                              power_effective_dimension, rate)


def sobolev_n(lam):
    """N(lambda) of the analytic spectrum 4/(pi j)^2 of the normalized
    Sobolev-kernel operator."""
    return power_effective_dimension(SOBOLEV_DECAY_SCALE, 2.0, lam)


def test_lambda_choice_hand_value():
    p = TheoryParams(r=0.5, b=2.0, sigma=1.0, R=1.0, n=1024)
    assert lambda_choice(p) == pytest.approx(1.0 / 16.0, rel=1e-12)


def test_lambda_choice_clamps_at_one():
    p = TheoryParams(r=0.5, b=2.0, sigma=10.0, R=1.0, n=4)
    assert lambda_choice(p) == 1.0


def test_lambda_choice_decreases_in_R():
    p1 = TheoryParams(r=0.5, b=2.0, sigma=0.5, R=1.0, n=1024)
    p2 = TheoryParams(r=0.5, b=2.0, sigma=0.5, R=2.0, n=1024)
    assert lambda_choice(p2) < lambda_choice(p1)


def test_rate_hand_value():
    p = TheoryParams(r=0.5, b=2.0, s=0.0, sigma=1.0, R=1.0, n=1024)
    assert rate(p) == pytest.approx(0.25, rel=1e-12)


def test_rate_decreases_in_r():
    rs = [0.25, 0.5, 1.0, 2.0]
    vals = [rate(TheoryParams(r=r, b=2.0, sigma=1.0, R=1.0, n=4096))
            for r in rs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_rate_R_homogeneity():
    base = TheoryParams(r=0.7, b=2.5, s=0.25, sigma=0.3, R=1.3, n=2048)
    doubled = TheoryParams(r=0.7, b=2.5, s=0.25, sigma=0.3, R=2.6, n=2048)
    c, R = 2.0, base.R
    expo = base.b * (base.r + base.s) / (2 * base.b * base.r + base.b + 1)
    expected = c * R * (base.sigma ** 2 / (c ** 2 * R ** 2 * base.n)) ** expo
    assert rate(doubled) == pytest.approx(expected, rel=1e-12)


def test_alpha_bound_values():
    assert alpha_bound(TheoryParams(r=0.75, b=2.0)) == pytest.approx(0.5)
    assert alpha_bound(TheoryParams(r=0.5, b=2.0)) == pytest.approx(0.4)
    # large smoothness drives the admissible exponent toward zero
    vals = [alpha_bound(TheoryParams(r=r, b=2.0)) for r in [1, 5, 20, 100]]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01


def test_alpha_bound_variants():
    # the bound is the smaller of two conditions: 2br / denom up to
    # r = (b + 1)/(2b), and (b + 1)/denom beyond it
    for r, b in [(0.5, 2.0), (0.75, 2.0), (1.5, 2.0), (0.3, 3.0), (4.0, 3.0)]:
        denom = 2 * b * r + b + 1
        expected = (2 * b * r if r <= (b + 1) / (2 * b) else b + 1) / denom
        assert alpha_bound(TheoryParams(r=r, b=b)) == pytest.approx(expected)
    # and is at most 1
    for r in [0.1, 0.75, 3.0, 50.0]:
        assert alpha_bound(TheoryParams(r=r, b=2.0)) <= 1.0


def test_effective_dimension_single_eigenvalue():
    assert effective_dimension([0.1], 0.1) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_effective_dimension_rejects_non_finite_eigenvalues(bad):
    # not dropped as a non-positive value, nor summed to a NaN
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        effective_dimension([bad, 0.5], 0.1)


def test_effective_dimension_matches_dense_trace():
    kernel = sobolev_min()
    rng = np.random.default_rng(21)
    for n in [16, 64, 128]:
        x = rng.random(n)
        evals, _ = spectral_model(kernel, x)
        Mfull = gram(kernel, x) / (kernel.kappa ** 2 * n)
        for lam in [0.1, 0.01]:
            oracle = float(np.trace(
                np.linalg.solve(Mfull + lam * np.eye(n), Mfull)))
            assert effective_dimension(evals, lam) == pytest.approx(
                oracle, abs=1e-10)


def test_effective_dimension_analytic_closed_form():
    # for mu_j = c/j^2 the sum has the closed form (w coth(w) - 1)/2
    # with w = pi sqrt(c/lam); here c = 4/pi^2 gives w = 2/sqrt(lam)
    for lam in [1.0, 0.3, 0.01, 1e-4]:
        w = 2.0 / math.sqrt(lam)
        closed = (w / math.tanh(w) - 1.0) / 2.0
        assert sobolev_n(lam) == pytest.approx(
            closed, rel=1e-8, abs=1e-8)


def test_effective_dimension_monotonicity():
    lams = np.logspace(-4, 0, 17)
    vals = np.array([sobolev_n(lam) for lam in lams])
    assert np.all(np.diff(vals) <= 0)           # N decreasing in lambda
    assert np.all(np.diff(vals / lams) <= 0)    # N/lambda decreasing too


def test_effective_dimension_lower_bound_below_top_eigenvalue():
    mu1 = SOBOLEV_DECAY_SCALE
    for lam in np.linspace(1e-4, mu1, 7):
        assert sobolev_n(lam) >= 0.5


@pytest.mark.parametrize("scale, b, lam", [
    (math.nan, 2.0, 0.1), (SOBOLEV_DECAY_SCALE, math.nan, 0.1),
    (1e308, 2.0, 0.1),                     # the truncation overflows
    (SOBOLEV_DECAY_SCALE, 2.0, 5e-12)])    # just past the term cap
def test_power_effective_dimension_rejects_before_summing(monkeypatch, scale,
                                                          b, lam):
    monkeypatch.setattr(np, "arange", None)    # no array is made
    with pytest.raises(ValueError):
        power_effective_dimension(scale, b, lam)


def test_rate_lambda_consistency_identity():
    # sigma * sqrt(lam^(-1/b) / (n lam)) == R * lam^r at the chosen lam,
    # exactly, whenever the choice is unclamped
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = TheoryParams(
            r=float(rng.uniform(0.2, 3.0)), b=float(rng.uniform(1.2, 4.0)),
            sigma=float(rng.uniform(0.01, 1.0)), R=float(rng.uniform(0.5, 3.0)),
            n=int(rng.integers(100, 10 ** 6)))
        lam = lambda_choice(p)
        if lam >= 1.0:
            continue
        lhs = p.sigma * math.sqrt(lam ** (-1.0 / p.b) / (p.n * lam))
        rhs = p.R * lam ** p.r
        assert abs(lhs / rhs - 1.0) < 1e-10


def test_b_quantity_values():
    assert b_quantity(100, 0.1, 1.0) == pytest.approx(
        1.0 + (0.2 + math.sqrt(0.1)) ** 2, rel=1e-14)
    assert b_quantity(100, 0.1, 1.0) == pytest.approx(1.2664, abs=1e-4)
    # nl -> infinity with bounded N drives the value to 1
    assert b_quantity(1e9, 0.5, 2.0) == pytest.approx(1.0, abs=1e-4)
    # N = n*lam exactly
    n, lam = 50, 0.2
    nl = n * lam
    assert b_quantity(n, lam, nl) == pytest.approx(
        1.0 + (2.0 / nl + 1.0) ** 2, rel=1e-14)


def test_param_validation():
    with pytest.raises(ValueError):
        TheoryParams(r=-1.0, b=2.0)
    with pytest.raises(ValueError):
        TheoryParams(r=0.5, b=1.0)
    with pytest.raises(ValueError):
        TheoryParams(r=0.5, b=2.0, s=0.7)
    with pytest.raises(ValueError):
        sobolev_n(0.0)
