import numpy as np
import pytest

from splitkern._quadrature import gauss_legendre

# the reference, leggauss, eigendecomposes an N x N matrix (seconds at 4096
# nodes), so the sizes stop at 512
NODES = [64, 65, 128, 511, 512]


@pytest.mark.parametrize("n", NODES)
def test_nodes_ascend_and_are_symmetric(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0


@pytest.mark.parametrize("n", NODES)
def test_rule_matches_leggauss(n):
    # weights to 1e-9 relative: leggauss's own end weights are off by
    # 1.1e-10 at n = 512 (against 40-digit arithmetic)
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= 4.5e-16
    assert np.max(np.abs(w / wr - 1.0)) <= 1e-9


@pytest.mark.parametrize("n", NODES)
def test_rule_integrates_polynomials_on_the_unit_interval(n):
    # exact up to degree 2n - 1: int_0^1 t^k = 1 / (k + 1) to 1e-13
    # relative (leggauss's rule misses it by 2.3e-12 at n = 512)
    x, w = gauss_legendre(n)
    t, v = 0.5 * (x + 1.0), 0.5 * w
    assert abs(float(np.sum(v)) - 1.0) <= 1e-14
    k = np.arange(2 * n)
    moments = np.sum(v * t ** k[:, None], axis=1)
    assert np.max(np.abs(moments * (k + 1) - 1.0)) <= 1e-13
