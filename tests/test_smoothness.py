import dataclasses
import math

import numpy as np
import pytest

from splitkern.smoothness import (TargetFunction, fourier_coefficients,
                                  max_smoothness, quadratic_bump, scaled_sine,
                                  tail_sum, target_by_name, zero_target)


def _by_quadrature(target):
    """`target` without its analytic coefficient rule."""
    return dataclasses.replace(target, coefficient_rule=None)


def test_scaled_sine_single_coefficient():
    for target in (scaled_sine(), _by_quadrature(scaled_sine())):
        c = fourier_coefficients(target, 50)
        assert c[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        others = np.delete(c, 1)
        assert np.max(np.abs(others)) < 1e-10


def test_zero_function_coefficients():
    c = fourier_coefficients(_by_quadrature(zero_target()), 32)
    assert np.max(np.abs(c)) < 1e-14


def test_bump_quadrature_matches_analytic():
    target = quadratic_bump()
    analytic = fourier_coefficients(target, 200)
    quad = fourier_coefficients(_by_quadrature(target), 200)
    assert np.max(np.abs(analytic - quad)) < 1e-10


def test_bump_coefficient_structure():
    c = fourier_coefficients(quadratic_bump(), 64)
    js = np.arange(1, 65)
    assert np.all(c[js % 2 == 0] == 0)
    odd = js[js % 2 == 1]
    assert np.allclose(c[odd - 1],
                       2.0 * math.sqrt(2.0) / (math.pi * odd) ** 2, rtol=1e-14)


def test_parseval_sums():
    bump = fourier_coefficients(quadratic_bump(), 10_000)
    assert float(np.sum(bump ** 2)) == pytest.approx(1.0 / 12.0, abs=1e-6)
    sine = fourier_coefficients(scaled_sine(), 10_000)
    assert float(np.sum(sine ** 2)) == pytest.approx(0.5, abs=1e-12)


def test_norms_match_quadrature():
    # independent check of the stated squared norms via dense quadrature
    xg, wg = np.polynomial.legendre.leggauss(512)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    for target, expected in [(quadratic_bump(), 1.0 / 12.0),
                             (scaled_sine(), 0.5)]:
        val = float(np.sum(wg * target.derivative(xg) ** 2))
        assert val == pytest.approx(expected, abs=1e-12)
        assert target.rkhs_norm_sq == pytest.approx(expected, abs=1e-15)


def test_max_smoothness_bump():
    c = fourier_coefficients(quadratic_bump(), 200)
    report = max_smoothness(c)
    assert report.r_max == pytest.approx(0.75, abs=0.02)
    assert report.decay_exponent == pytest.approx(2.0, abs=0.04)
    assert np.all(report.indices_used % 2 == 1)


def test_max_smoothness_sine_is_infinite():
    c = fourier_coefficients(scaled_sine(), 100)
    report = max_smoothness(c)
    assert math.isinf(report.r_max)
    assert "finite support" in report.notes[0]


def test_max_smoothness_zero_degenerate():
    report = max_smoothness(np.zeros(64))
    assert math.isinf(report.r_max)
    assert "degenerate" in report.notes[0]


def test_max_smoothness_synthetic_cubic_decay():
    js = np.arange(1, 301, dtype=float)
    report = max_smoothness(js ** -3.0)
    assert report.r_max == pytest.approx(1.25, abs=1e-9)
    # partial-sum probe brackets the boundary
    for r, growing in [(1.15, False), (1.35, True)]:
        sums = tail_sum(js ** -3.0, r)
        half, full = sums[len(sums) // 2 - 1], sums[-1]
        slope = (math.log(full) - math.log(half)) / math.log(2.0)
        assert (slope > 0.1) == growing


def test_tail_probe_brackets_bump_threshold():
    c = fourier_coefficients(quadratic_bump(), 4000)
    for r, growing in [(0.70, False), (0.80, True)]:
        sums = tail_sum(c, r)
        half, full = sums[len(sums) // 2 - 1], sums[-1]
        slope = (math.log(full) - math.log(half)) / math.log(2.0)
        assert (slope > 0.1) == growing


def test_quadrature_requires_vanishing_endpoints():
    bad = TargetFunction("user", lambda x: np.asarray(x, dtype=float) + 0.0)
    with pytest.raises(ValueError):
        fourier_coefficients(bad, 16)


def test_too_few_nonzero_coefficients_rejected():
    c = np.zeros(40)
    c[::6] = 1.0 / (1.0 + np.arange(7))  # 7 nonzero, spread over the range
    with pytest.raises(ValueError):
        max_smoothness(c)


def test_target_by_name():
    assert target_by_name("quadratic-bump").name == "quadratic-bump"
    assert target_by_name("SINE").name == "scaled-sine"
    with pytest.raises(ValueError):
        target_by_name("mystery")
