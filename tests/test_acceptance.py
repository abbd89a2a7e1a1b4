"""Acceptance checks of the paper's empirical claims (Monte-Carlo).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured value and its band.
"""

import math

import numpy as np
import pytest

from splitkern import theory
from splitkern.experiments import ExperimentConfig, sweep_n
from splitkern.smoothness import (fourier_coefficients, max_smoothness,
                                  target_by_name)

pytestmark = pytest.mark.acceptance

# two-sided band half-width in standard errors, fixed before measuring
Z = 3.0


def test_rate_slope_matches_theory():
    """Log-log slope of the mean RKHS error against n, Tikhonov oracle.

    The theory exponent is ``-b r / (2 b r + b + 1)`` for the target's
    largest source exponent ``r`` and the kernel's eigenvalue decay
    ``b = 2``.  The slope's standard error is propagated from the
    per-n standard errors of the mean (delta method on log hk_mean)
    through the least-squares weights.  It treats the sample sizes as
    independent; the runs at different n share their random streams, so
    the errors are positively correlated and the true spread of a slope
    (a contrast) is smaller: the band is conservative.
    """
    cfg = ExperimentConfig(target="quadratic-bump", filter="tikhonov",
                           sigma=0.005, lam="oracle", runs=10, seed=0)
    ns = [512, 1024, 2048, 4096, 8192]
    res = sweep_n(cfg, ns)

    target = target_by_name(cfg.target)
    r = max_smoothness(fourier_coefficients(target, 200)).r_max
    p = [theory.TheoryParams(r=r, b=2.0, sigma=cfg.sigma, n=n)
         for n in (ns[0], ns[-1])]
    expected = math.log(theory.rate(p[1]) / theory.rate(p[0])) \
        / math.log(ns[-1] / ns[0])
    assert expected == pytest.approx(-0.25, abs=1e-3)

    groups = sorted((g for g in res.summary if g.alpha == 0.0),
                    key=lambda g: g.n)
    log_n = np.log([g.n for g in groups])
    weights = (log_n - log_n.mean()) / np.sum((log_n - log_n.mean()) ** 2)
    rel_se = np.array([g.hk_se / g.hk_mean for g in groups])
    slope_se = math.sqrt(float(np.sum(weights ** 2 * rel_se ** 2)))

    slope = res.slopes[0.0]
    lo, hi = expected - Z * slope_se, expected + Z * slope_se
    verdict = "PASS" if lo <= slope <= hi else "FAIL"
    print(f"\n{verdict} rate slope {slope:+.4f} (se {slope_se:.4f}), "
          f"band [{lo:+.4f}, {hi:+.4f}] around theory {expected:+.4f}")
    assert lo <= slope <= hi
