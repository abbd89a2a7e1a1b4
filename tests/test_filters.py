import math

import numpy as np
import pytest

from splitkern import filters
from splitkern.filters import (LAMBDA_MIN, by_name, check_lambda,
                               filter_values, landweber, nu_method,
                               spectral_cutoff, tikhonov)

from reference import axiom_maxima

LOG_GRID = np.logspace(-4, 0, 100)


def test_tikhonov_values():
    f = tikhonov()
    assert filter_values(f, 0.5, 0.5) == 1.0
    assert 1 - 0.9 * filter_values(f, 0.1, 0.9) == pytest.approx(
        0.1, abs=1e-15)


def test_landweber_values():
    f = landweber()
    for t in [0.05, 0.3, 1.0]:
        assert filter_values(f, 1.0, t) == pytest.approx(1.0, abs=1e-15)
    assert filter_values(f, 1 / 3, 0.5) == pytest.approx(
        1.75, abs=1e-12)                                 # 1 + .5 + .25
    assert 1 - filter_values(f, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_cutoff_values():
    f = spectral_cutoff()
    assert filter_values(f, 0.3, 0.2) == 0.0     # below the cutoff
    assert filter_values(f, 0.3, 0.3) == pytest.approx(1 / 0.3)  # included
    assert 1 - 0.3 * filter_values(f, 0.3, 0.3) == pytest.approx(
        0.0, abs=1e-15)


def test_by_name_round_trip():
    assert by_name("tikhonov").kind == "tikhonov"
    assert by_name("nu-method", nu=2.0).nu == 2.0
    assert by_name("CUTOFF").kind == "cutoff"
    with pytest.raises(ValueError):
        by_name("krylov")


def test_domain_validation():
    f = tikhonov()
    for t in (-0.1, 1.2):
        with pytest.raises(ValueError):
            filter_values(f, 0.5, t)
    for lam in (0.0, 1.5, np.nextafter(LAMBDA_MIN, 0.0)):
        with pytest.raises(ValueError):
            filter_values(f, lam, 0.5)
    assert check_lambda(LAMBDA_MIN) == LAMBDA_MIN


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
    assert lw.step_lambda(lw.steps(0.3)) == 0.25
    assert nm.step_lambda(nm.steps(0.3)) == 0.25


@pytest.mark.parametrize("filt", [tikhonov(), landweber(), nu_method(),
                                  nu_method(2.0), spectral_cutoff()])
def test_axioms_on_grid(filt):
    maxima = axiom_maxima(filt, LOG_GRID, LOG_GRID)
    assert all(value <= bound + 1e-12
               for value, bound in maxima.values()), maxima


def test_axioms_tight_constants():
    for filt in (tikhonov(), landweber()):
        maxima = axiom_maxima(filt, LOG_GRID, LOG_GRID)
        assert all(value <= 1 + 1e-12
                   for value, _ in maxima.values()), maxima


def test_cutoff_high_qualification():
    maxima = axiom_maxima(spectral_cutoff(), LOG_GRID, LOG_GRID, q=3.0)
    assert maxima["qualification"][0] <= 1.0
    assert all(value <= bound + 1e-12
               for value, bound in maxima.values()), maxima


def test_landweber_closed_form_matches_summation():
    lw = landweber()
    ts = np.linspace(1e-6, 1.0, 500)
    for k in [1, 2, 5, 20, 77, 200]:
        direct = np.zeros_like(ts)
        for j in range(k):
            direct += (1.0 - ts) ** j
        vals = filter_values(lw, 1.0 / k, ts)
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
    assert filter_values(nm, 1.0, 0.37) == pytest.approx(1.2, abs=1e-15)
    w1 = 6.0 / 5.0
    mu2, w2 = 5.0 / 63.0, 40.0 / 21.0
    for t in [0.1, 0.5, 1.0]:
        expected = w1 * (1 + mu2) + w2 * (1 - t * w1)
        assert filter_values(nm, 0.25, t) == pytest.approx(expected,
                                                           rel=1e-14)


def _gamma_q(filt, q):
    return axiom_maxima(filt, [0.5], [0.5], q)["qualification"][1]


def test_gamma_q_catalog():
    assert _gamma_q(tikhonov(), 1.0) == 1.0
    with pytest.raises(ValueError):
        _gamma_q(tikhonov(), 2.0)
    assert _gamma_q(landweber(), 0.5) == 1.0
    assert _gamma_q(landweber(), 3.0) == 27.0
    assert _gamma_q(spectral_cutoff(), 7.0) == 1.0
    assert _gamma_q(nu_method(), 1.0) == 1.0
    assert _gamma_q(nu_method(2.0), 2.0) == 16.0
    with pytest.raises(ValueError):
        _gamma_q(nu_method(), 1.5)


def test_filter_values_at_zero():
    # continuous extension at the spectral floor
    assert filter_values(tikhonov(), 0.25, np.array([0.0]))[0] == 4.0
    assert filter_values(landweber(), 0.2, np.array([0.0]))[0] == 5.0
    assert filter_values(spectral_cutoff(), 0.5, np.array([0.0]))[0] == 0.0
    nm = nu_method()
    k = nm.steps(1.0 / 9.0)
    val = filter_values(nm, 1.0 / 9.0, np.array([0.0]))[0]
    assert val == pytest.approx(0.4 * k * (k + 2), rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
def test_nu_method_rejects_non_finite_or_nonpositive_nu(nu):
    with pytest.raises(ValueError, match="nu must be finite and positive"):
        nu_method(nu)


@pytest.mark.parametrize("filt", [tikhonov(), landweber(), nu_method(),
                                  nu_method(3.0), spectral_cutoff()],
                         ids=["tikhonov", "landweber", "nu1", "nu3",
                              "cutoff"])
def test_filter_values_lambda_rows_one_pass(monkeypatch, filt):
    # a lambda array gives one row per value, bit for bit the call with
    # that value alone; the nu-method steps once to the largest count
    t = np.linspace(0.0, 1.0, 101)
    lams = np.array([1.0, 0.04, 1e-4, 0.04, 0.01])
    rows = filter_values(filt, lams, t)
    assert rows.shape == (lams.size, t.size)
    for lam, row in zip(lams, rows):
        assert np.array_equal(row, filter_values(filt, float(lam), t))
    assert filter_values(filt, lams[:0], t).shape == (0, t.size)
    if filt.kind != "nu-method":
        return
    applied = []
    real = filters.iterate

    def counting(filt, b, apply):
        return real(filt, b, lambda v: applied.append(1) or apply(v))

    monkeypatch.setattr(filters, "iterate", counting)
    again = filter_values(filt, lams, t)
    assert np.array_equal(again, rows)
    ks = [filt.steps(lam) for lam in lams]          # 1, 5, 100, 5, 10
    assert len(applied) == max(ks) - 1
