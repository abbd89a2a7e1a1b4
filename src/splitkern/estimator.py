"""Single-block spectral estimators realized through the Gram operator.

Fitting applies a filter to the normalized Gram operator
``M = kappa**-2 * G / n`` (spectrum inside [0, 1]) and returns a kernel
expansion ``f(x) = sum_j alpha_j K(x_j, x)`` with

    alpha = kappa**-2 / n * V g_lam(Lambda) V' y.

Iterative filters can alternatively be run as actual iterations in
coefficient space; both paths agree to high accuracy and the agreement
is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .filters import FilterSpec, filter_values
from .kernels import Kernel, KernelOperator, is_sobolev_min, kernel_operator

# spectrum entries below this are indistinguishable from zero
EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class KernelExpansion:
    """An RKHS element ``sum_j coefficients[j] * K(points[j], .)``."""

    coefficients: np.ndarray
    points: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        if len(self.coefficients) != len(self.points):
            raise ValueError("coefficient and anchor counts differ")

    def __call__(self, x):
        return predict(self, x)

    @cached_property
    def operator(self) -> KernelOperator:
        """Gram operator of the anchors, built on first use."""
        return kernel_operator(self.kernel, self.points)


@dataclass(frozen=True)
class SpectralModel:
    """Eigendecomposition of the normalized Gram operator of one block.

    Eigenvalues are sorted descending and clamped to [0, 1]; eigenvectors
    are the matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    points: np.ndarray
    kappa: float


def _as_data(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"got {x.size} inputs but {y.size} outputs")
    if x.size == 0:
        raise ValueError("need at least one sample")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs and outputs must be finite")
    return x, y


def spectral_model(kernel: Kernel, x) -> SpectralModel:
    """Eigendecompose the normalized Gram operator of the anchors `x`."""
    x = np.asarray(x, dtype=float).ravel()
    evals, vecs = kernel_operator(kernel, x).spectrum()
    evals = np.clip(evals[::-1], 0.0, 1.0)
    evals[evals < EIGENVALUE_FLOOR] = 0.0
    return SpectralModel(eigenvalues=evals, eigenvectors=vecs[:, ::-1],
                         points=x, kappa=kernel.kappa)


def fit_spectral(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                 model: SpectralModel | None = None) -> KernelExpansion:
    """Fit one block by filtering the spectrum of the normalized Gram.

    `model` (its eigendecomposition) can be passed to avoid recomputation
    when several fits share the same anchors.
    """
    x, y = _as_data(x, y)
    if model is None:
        model = spectral_model(kernel, x)
    gvals = filter_values(filt, lam, model.eigenvalues)
    V = model.eigenvectors
    alpha = (V @ (gvals * (V.T @ y))) / (kernel.kappa ** 2 * x.size)
    return KernelExpansion(coefficients=alpha, points=x, kernel=kernel)


def fit_iterative(kernel: Kernel, filt: FilterSpec, lam: float,
                  x, y) -> KernelExpansion:
    """Run an iterative filter as an actual iteration in coefficient space.

    Landweber: ``alpha <- alpha + b - M alpha`` with ``b = kappa**-2 y/n``;
    the nu-method runs its three-term recurrence.  Matches `fit_spectral`
    with the same filter.
    """
    if not filt.iterative:
        raise ValueError(f"{filt.kind} has no iterative form")
    x, y = _as_data(x, y)
    op = kernel_operator(kernel, x)
    n = x.size
    scale = 1.0 / (kernel.kappa ** 2 * n)
    b = scale * y
    k = filt.steps(lam)

    if filt.kind == "landweber":
        alpha = b.copy()                      # one step from alpha = 0
        for _ in range(k - 1):
            alpha += b - scale * op.matvec(alpha)
        return KernelExpansion(coefficients=alpha, points=x, kernel=kernel)

    nu = filt.nu
    prev = np.zeros(n)
    alpha = (4 * nu + 2) / (4 * nu + 1) * b
    for j in range(2, k + 1):
        mu = ((j - 1) * (2 * j - 3) * (2 * j + 2 * nu - 1)
              / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)
                 * (2 * j + 2 * nu - 3)))
        om = (4 * (2 * j + 2 * nu - 1) * (j + nu - 1)
              / ((j + 2 * nu - 1) * (2 * j + 4 * nu - 1)))
        alpha, prev = (alpha + mu * (alpha - prev)
                       + om * (b - scale * op.matvec(alpha))), alpha
    return KernelExpansion(coefficients=alpha, points=x, kernel=kernel)


def predict(expansion: KernelExpansion, x):
    """Evaluate the expansion at `x` (scalar or array)."""
    xs = np.asarray(x, dtype=float)
    if is_sobolev_min(expansion.kernel):
        out = expansion.operator.cross(expansion.coefficients, xs.ravel())
    else:
        K = expansion.kernel.fn(expansion.points[:, None],
                                np.atleast_1d(xs)[None, :])
        out = expansion.coefficients @ K
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
