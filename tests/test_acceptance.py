"""Acceptance checks of the paper's empirical claims (Monte-Carlo).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured value and its band.
"""

import math

import numpy as np
import pytest

from splitkern import theory
from splitkern.experiments import ExperimentConfig, sweep_alpha, sweep_n
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


def test_alpha_plateau_and_rise():
    """Mean RKHS error against the partition exponent, nu-method oracle.

    One lambda, chosen at m = 1, is shared by every block.  Theory keeps
    the full rate for alpha up to ``alpha_bound`` (0.5 for this target).
    The runs are paired (every alpha refits the same data), so each alpha
    is compared with alpha = 0 through the per-run differences
    ``hk(alpha) - hk(0)``, whose standard error is the band's unit.
    Plateau: at alpha <= alpha_bound - 0.1 the mean difference lies in the
    band +-Z SE.  Rise: at alpha >= alpha_bound + 0.2 it lies above it.
    The alphas in between are the transition and are only reported.
    """
    cfg = ExperimentConfig(target="quadratic-bump", filter="nu-method",
                           nu=1.0, n=2048, sigma=0.005, lam="oracle",
                           k_max=64, runs=10, seed=0)
    alphas = [0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8]
    target = target_by_name(cfg.target)
    r = max_smoothness(fourier_coefficients(target, 200)).r_max
    bound = theory.alpha_bound(
        theory.TheoryParams(r=r, b=2.0, sigma=cfg.sigma, n=cfg.n))
    assert bound == pytest.approx(0.5, abs=1e-3)
    # the bound is 0.5 up to rounding; compare alphas with a little slack
    plateau = [a for a in alphas if 0 < a <= bound - 0.1 + 1e-9]
    rise = [a for a in alphas if a >= bound + 0.2 - 1e-9]
    assert (plateau, rise) == ([0.2, 0.4], [0.7, 0.8])

    res = sweep_alpha(cfg, alphas)
    hk = {}
    for row in res.rows:
        hk.setdefault(row.alpha, {})[row.run] = row.hk_error
    base = np.array([hk[0.0][i] for i in range(cfg.runs)])
    failures = []
    print()
    for a in plateau + rise:
        diff = np.array([hk[a][i] for i in range(cfg.runs)]) - base
        mean = float(diff.mean())
        se = float(diff.std(ddof=1)) / math.sqrt(cfg.runs)
        ok = abs(mean) <= Z * se if a in plateau else mean > Z * se
        kind = "plateau" if a in plateau else "rise"
        print(f"{'PASS' if ok else 'FAIL'} alpha {a:g} {kind}: "
              f"hk(alpha) - hk(0) = {mean:+.3e}, band +-{Z * se:.3e} "
              f"(hk ratio {1 + mean / base.mean():.3f})")
        if not ok:
            failures.append(a)
    assert not failures
