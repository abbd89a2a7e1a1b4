"""Kernel functions, Gram matrices, Gram operators and RKHS norms.

The built-in kernel is the first-order Sobolev kernel on [0, 1],
``K(x, t) = min(x, t) - x*t``, whose RKHS is the space of absolutely
continuous functions vanishing at both endpoints with inner product
``<f, g> = int f' g'``.  Custom kernels plug in through :class:`Kernel`
with a vectorized evaluation rule and a supremum bound ``kappa``.

Products with the Gram matrix of fixed anchors go through a
:class:`KernelOperator` from :func:`kernel_operator`.  The built-in kernel
gets an O(n) structured operator: ``min(x, t) - x*t`` is the
Brownian-bridge covariance, so an expansion in it is piecewise linear
with kinks at the anchors, and prefix sums over the sorted anchors give
its values and its derivative.  Other kernels get a dense operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Eigenvalues this far below zero (relative to the largest) are treated as
# floating-point noise and clamped before any spectral filter is applied.
PSD_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Kernel:
    """A symmetric positive semidefinite kernel on a real interval.

    Parameters
    ----------
    name : str
        Identifier used in configs and reports.
    fn : callable
        Vectorized evaluation ``fn(x, t)``; must broadcast and satisfy
        ``fn(x, t) == fn(t, x)``.
    kappa : float
        Supremum bound ``sup_x sqrt(K(x, x))``.
    low, high : float
        Domain endpoints; inputs outside ``[low, high]`` are rejected.
    exactly_symmetric : bool
        If the evaluation rule is symmetric in floating point (true for
        the built-in), Gram assembly skips the symmetrizing pass.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kappa: float
    low: float = 0.0
    high: float = 1.0
    exactly_symmetric: bool = True

    def __call__(self, x, t):
        return evaluate(self, x, t)


def _sobolev_min_fn(x, t):
    return np.minimum(x, t) - x * t


def sobolev_min() -> Kernel:
    """The kernel ``min(x, t) - x*t`` on [0, 1]; ``kappa = 1/2``.

    ``K(x, x) = x - x**2`` peaks at 1/4, hence the bound.
    """
    return Kernel(name="sobolev-min", fn=_sobolev_min_fn, kappa=0.5)


def user_kernel(fn, kappa, name="user", low=0.0, high=1.0,
                exactly_symmetric=False) -> Kernel:
    """Wrap a custom positive semidefinite kernel with its sup bound."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return Kernel(name=name, fn=fn, kappa=float(kappa), low=low, high=high,
                  exactly_symmetric=exactly_symmetric)


def _check_domain(kernel: Kernel, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("kernel inputs must be finite")
    if a.size and (a.min() < kernel.low or a.max() > kernel.high):
        raise ValueError(
            f"input outside kernel domain [{kernel.low}, {kernel.high}]")
    return a


def evaluate(kernel: Kernel, x, t):
    """Evaluate ``K(x, t)``; scalars in, scalar out, arrays broadcast."""
    xa = _check_domain(kernel, x)
    ta = _check_domain(kernel, t)
    out = kernel.fn(xa, ta)
    if np.isscalar(x) and np.isscalar(t):
        return float(out)
    return out


def kappa_of(kernel: Kernel) -> float:
    """Supremum bound ``sup_x sqrt(K(x, x))`` carried by the kernel."""
    return kernel.kappa


def gram(kernel: Kernel, points) -> np.ndarray:
    """Dense Gram matrix ``G[i, j] = K(x_i, x_j)`` for the given anchors.

    The result is exactly symmetric; asymmetric floating-point noise from
    a user evaluation rule is averaged out.
    """
    pts = _check_domain(kernel, points)
    if pts.ndim != 1:
        pts = pts.ravel()
    if pts.size == 0:
        raise ValueError("gram requires at least one point")
    G = kernel.fn(pts[:, None], pts[None, :])
    if not kernel.exactly_symmetric:
        G = 0.5 * (G + G.T)
    return G


class KernelOperator:
    """The Gram matrix ``G[i, j] = K(x_i, x_j)`` of fixed anchors, as an
    operator.  Built by :func:`kernel_operator`, which validates the
    anchors once."""

    def __init__(self, kernel: Kernel, points: np.ndarray):
        self.kernel = kernel
        self.points = points

    def matvec(self, v) -> np.ndarray:
        """``G @ v``."""
        raise NotImplementedError

    def cross(self, coef, t) -> np.ndarray:
        """``sum_j coef[j] * K(x_j, t)`` at the 1-D array of points `t`."""
        raise NotImplementedError

    def quad_form(self, a) -> float:
        """``a' G a``."""
        return float(a @ self.matvec(a))

    def spectrum(self):
        """Eigenpairs (ascending) of the normalized Gram ``G / (kappa**2 n)``.

        Always a dense ``eigh``, for the built-in kernel too.  The Gram
        matrix is a temporary freed before ``eigh`` runs; keeping a dense
        operator's cached one alive instead made glibc trim and refault
        the heap on every hold-out fit with a user kernel.
        """
        return np.linalg.eigh(gram(self.kernel, self.points)
                              / (self.kernel.kappa ** 2 * self.points.size))


class DenseOperator(KernelOperator):
    """Any kernel: the dense Gram matrix, formed on first product and kept."""

    @cached_property
    def _G(self) -> np.ndarray:
        return gram(self.kernel, self.points)

    def matvec(self, v):
        return self._G @ v

    def cross(self, coef, t):
        return coef @ self.kernel.fn(self.points[:, None], t[None, :])


class SobolevMinOperator(KernelOperator):
    """``min(x, t) - x*t`` without forming G: O(n) per product after one sort.

    ``f = sum_j a_j K(x_j, .)`` is ``f(t) = P(t) + t * D(t)`` with
    ``P(t) = sum_{x_j <= t} x_j a_j`` and ``D(t) = sum_{x_j > t} a_j -
    sum_j x_j a_j``, where ``D`` is also ``f'`` between anchors.  Tied
    anchors need no special case: at a tie both branches of ``min`` agree.
    """

    def __init__(self, kernel, points):
        super().__init__(kernel, points)
        self._order = np.argsort(points, kind="stable")
        self._sorted = points[self._order]
        # segment of each anchor: the number of anchors <= it
        self._rank = np.empty(points.size, dtype=np.intp)
        self._rank[self._order] = np.searchsorted(self._sorted, self._sorted,
                                                  side="right")
        # lengths of the n + 1 segments between 0, sorted anchors and 1
        self._gaps = np.diff(np.concatenate(([0.0], self._sorted, [1.0])))

    def _sums(self, coef):
        """Prefix ``P`` and slope ``D`` per segment (index = anchors <= t)."""
        a = np.asarray(coef, dtype=float)[self._order]
        prefix = np.zeros(a.size + 1)
        (self._sorted * a).cumsum(out=prefix[1:])
        slope = np.zeros(a.size + 1)
        a[::-1].cumsum(out=slope[-2::-1])          # sum_{q >= r} a_q
        slope -= prefix[-1]
        return prefix, slope

    def _values(self, coef, t, seg):
        prefix, slope = self._sums(coef)
        return prefix[seg] + t * slope[seg]

    def matvec(self, v):
        return self._values(v, self.points, self._rank)

    def cross(self, coef, t):
        return self._values(
            coef, t, np.searchsorted(self._sorted, t, side="right"))

    def quad_form(self, a):
        """``int f'^2``: exact, and never negative."""
        _, slope = self._sums(a)
        return float(self._gaps @ slope ** 2)


def is_sobolev_min(kernel: Kernel) -> bool:
    """Whether `kernel` is the built-in ``min(x, t) - x*t``."""
    return kernel.fn is _sobolev_min_fn


def kernel_operator(kernel: Kernel, points) -> KernelOperator:
    """Gram operator of `kernel` at `points`: structured for the built-in
    kernel, dense otherwise.  Rejects empty, non-finite or out-of-domain
    anchors."""
    pts = _check_domain(kernel, points).ravel()
    if pts.size == 0:
        raise ValueError("a kernel operator needs at least one anchor")
    if is_sobolev_min(kernel):
        return SobolevMinOperator(kernel, pts)
    return DenseOperator(kernel, pts)


def rkhs_norm_sq(expansion) -> float:
    """Squared RKHS norm ``alpha' G alpha`` of a kernel expansion.

    Accepts any object with ``coefficients``, ``points`` and ``kernel``
    attributes.  Tiny negative values from rounding are clamped to zero.
    """
    alpha = np.asarray(expansion.coefficients, dtype=float)
    if alpha.size == 0:
        return 0.0
    val = kernel_operator(expansion.kernel, expansion.points).quad_form(alpha)
    if val < 0:
        if val < -PSD_TOLERANCE:
            raise ArithmeticError(f"Gram quadratic form is negative: {val}")
        val = 0.0
    return val
