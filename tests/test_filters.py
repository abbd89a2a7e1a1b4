import math

import numpy as np
import pytest

from splitkern.filters import (LAMBDA_MIN, by_name, check_lambda,
                               filter_values, g, landweber, nu_method,
                               residual, spectral_cutoff, tikhonov,
                               verify_axioms)

LOG_GRID = np.logspace(-4, 0, 100)


def test_tikhonov_values():
    f = tikhonov()
    assert g(f, 0.5, 0.5) == 1.0
    assert residual(f, 0.1, 0.9) == pytest.approx(0.1, abs=1e-15)


def test_landweber_values():
    f = landweber()
    for t in [0.05, 0.3, 1.0]:
        assert g(f, 1.0, t) == pytest.approx(1.0, abs=1e-15)  # k = 1
    assert g(f, 1 / 3, 0.5) == pytest.approx(1.75, abs=1e-12)  # 1 + .5 + .25
    assert residual(f, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_cutoff_values():
    f = spectral_cutoff()
    assert residual(f, 0.3, 0.2) == 1.0          # below the cutoff, g = 0
    assert g(f, 0.3, 0.3) == pytest.approx(1 / 0.3)  # boundary included
    assert residual(f, 0.3, 0.3) == pytest.approx(0.0, abs=1e-15)


def test_by_name_round_trip():
    assert by_name("tikhonov").kind == "tikhonov"
    assert by_name("nu-method", nu=2.0).nu == 2.0
    assert by_name("CUTOFF").kind == "cutoff"
    with pytest.raises(ValueError):
        by_name("krylov")


def test_domain_validation():
    f = tikhonov()
    with pytest.raises(ValueError):
        g(f, 0.5, 0.0)
    with pytest.raises(ValueError):
        g(f, 0.5, 1.2)
    with pytest.raises(ValueError):
        g(f, 0.0, 0.5)
    with pytest.raises(ValueError):
        g(f, 1.5, 0.5)
    assert check_lambda(LAMBDA_MIN) == LAMBDA_MIN
    with pytest.raises(ValueError):
        g(f, np.nextafter(LAMBDA_MIN, 0.0), 0.5)


def test_step_mapping():
    lw, nm = landweber(), nu_method()
    assert lw.steps(1.0) == 1
    assert lw.steps(0.25) == 4
    assert lw.steps(0.1) == 10           # no float-ceil overshoot
    assert lw.steps(0.3) == 4
    assert nm.steps(1.0) == 1
    assert nm.steps(0.26) == 2
    assert nm.steps(0.25) == 2
    for k in range(1, 60):
        assert lw.steps(1.0 / k) == k
        assert nm.steps(float(k) ** -2) == k
    assert lw.effective_lambda(0.3) == 0.25
    assert nm.effective_lambda(0.3) == 0.25


@pytest.mark.parametrize("filt", [tikhonov(), landweber(), nu_method(),
                                  nu_method(2.0), spectral_cutoff()])
def test_axioms_on_grid(filt):
    report = verify_axioms(filt, LOG_GRID, LOG_GRID)
    assert report.ok, report.violations


def test_axioms_tight_constants():
    tik = verify_axioms(tikhonov(), LOG_GRID, LOG_GRID)
    lw = verify_axioms(landweber(), LOG_GRID, LOG_GRID)
    for rep in (tik, lw):
        assert rep.max_tg <= 1 + 1e-12
        assert rep.max_g_scaled <= 1 + 1e-12
        assert rep.max_residual <= 1 + 1e-12
        assert rep.max_qualification <= 1 + 1e-12


def test_cutoff_high_qualification():
    rep = verify_axioms(spectral_cutoff(), LOG_GRID, LOG_GRID, q=3.0)
    assert rep.max_qualification <= 1.0
    assert rep.ok


def test_landweber_closed_form_matches_summation():
    lw = landweber()
    ts = np.linspace(1e-6, 1.0, 500)
    for k in [1, 2, 5, 20, 77, 200]:
        direct = np.zeros_like(ts)
        for j in range(k):
            direct += (1.0 - ts) ** j
        vals = g(lw, 1.0 / k, ts)
        assert np.max(np.abs(vals - direct)) < 1e-10


def test_monotone_residual_decay():
    ts = np.linspace(0.05, 1.0, 25)
    lams = np.logspace(0, -4, 30)
    for filt in [tikhonov(), spectral_cutoff()]:
        prev = None
        for lam in lams:  # descending
            cur = np.abs(1.0 - ts * filter_values(filt, lam, ts))
            if prev is not None:
                assert np.all(cur <= prev + 1e-15)
            prev = cur
    lw = landweber()
    prev = None
    for k in range(1, 80):
        cur = np.abs(1.0 - ts * filter_values(lw, 1.0 / k, ts))
        if prev is not None:
            assert np.all(cur <= prev + 1e-15)
        prev = cur


def test_nu_method_is_polynomial_of_degree_k_minus_1():
    # the order-k finite difference annihilates a degree-(k-1) polynomial,
    # the order-(k-1) difference does not
    nm = nu_method()
    for k in [2, 3, 5, 8]:
        ts = np.linspace(0.1, 0.9, k + 1)
        vals = filter_values(nm, float(k) ** -2, ts)
        ann = np.diff(vals, n=k)
        sub = np.diff(vals, n=k - 1)
        scale = np.max(np.abs(vals)) * 2 ** k
        assert np.max(np.abs(ann)) < 1e-12 * scale + 1e-12
        assert np.max(np.abs(sub)) > 1e-8


def test_nu_method_first_polynomials():
    nm = nu_method()
    # g_1 is the constant 6/5; g_2(t) = w1 (1 + mu2) + w2 - w2 w1 t
    assert g(nm, 1.0, 0.37) == pytest.approx(1.2, abs=1e-15)
    w1 = 6.0 / 5.0
    mu2, w2 = 5.0 / 63.0, 40.0 / 21.0
    for t in [0.1, 0.5, 1.0]:
        expected = w1 * (1 + mu2) + w2 * (1 - t * w1)
        assert g(nm, 0.25, t) == pytest.approx(expected, rel=1e-14)


def test_gamma_q_catalog():
    assert tikhonov().gamma_q(1.0) == 1.0
    with pytest.raises(ValueError):
        tikhonov().gamma_q(2.0)
    assert landweber().gamma_q(0.5) == 1.0
    assert landweber().gamma_q(3.0) == 27.0
    assert spectral_cutoff().gamma_q(7.0) == 1.0
    assert nu_method().gamma_q(1.0) == 1.0
    assert nu_method(2.0).gamma_q(2.0) == 16.0
    with pytest.raises(ValueError):
        nu_method().gamma_q(1.5)


def test_filter_values_at_zero():
    # continuous extension at the spectral floor
    assert filter_values(tikhonov(), 0.25, np.array([0.0]))[0] == 4.0
    assert filter_values(landweber(), 0.2, np.array([0.0]))[0] == 5.0
    assert filter_values(spectral_cutoff(), 0.5, np.array([0.0]))[0] == 0.0
    nm = nu_method()
    k = nm.steps(1.0 / 9.0)
    val = filter_values(nm, 1.0 / 9.0, np.array([0.0]))[0]
    assert val == pytest.approx(0.4 * k * (k + 2), rel=1e-12)


def test_verify_axioms_flags_violations():
    bad = tikhonov()
    report = verify_axioms(bad, [0.5], [0.5], q=1.0)
    assert report.ok
    # shrink a documented bound artificially and expect a flag
    import dataclasses
    worse = dataclasses.replace(bad, Dprime=0.1)
    report = verify_axioms(worse, [0.5], [0.5], q=1.0)
    assert not report.ok and "t*g" in report.violations[0]
