"""Single-block spectral estimators realized through the Gram operator.

Fitting applies a filter to the normalized Gram operator
``M = kappa**-2 * G / n`` (spectrum inside [0, 1]) and returns a kernel
expansion ``f(x) = sum_j alpha_j K(x_j, x)`` with

    alpha = kappa**-2 / n * V g_lam(Lambda) V' y.

For Tikhonov, ``g_lam(t) = 1/(lam + t)``, this is ``alpha = (G + lam *
kappa**2 * n * I)^{-1} y``; with the built-in kernel that system is solved
in O(n) without the eigendecomposition (:func:`coefficient_solver`).

Iterative filters can alternatively be run as actual iterations in
coefficient space; both paths agree to high accuracy and the agreement
is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .filters import FilterSpec, check_lambda, filter_values
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


def coefficient_solver(kernel: Kernel, filt: FilterSpec, x):
    """``solve(lams, y)``: expansion coefficients of the single-block fits
    on the anchors `x`, one array per lambda in `lams`.

    The one place the fitting path is chosen.  Tikhonov on the built-in
    kernel solves ``(G + lam * kappa**2 * n * I) alpha = y`` with
    :meth:`SobolevMinOperator.solve_shifted`: O(n) per lambda, no
    eigendecomposition.  Every other pair filters one
    :func:`spectral_model` of the anchors, shared by every ``solve``.
    """
    x = np.asarray(x, dtype=float).ravel()
    scale = kernel.kappa ** 2 * x.size
    if filt.kind == "tikhonov" and is_sobolev_min(kernel):
        op = kernel_operator(kernel, x)

        def solve(lams, y):
            _, y = _as_data(x, y)
            c = [check_lambda(float(lam)) for lam in lams]
            return op.solve_shifted(np.array(c) * scale, y)
    else:
        model = spectral_model(kernel, x)
        V = model.eigenvectors

        def solve(lams, y):
            _, y = _as_data(x, y)
            Vty = V.T @ y
            return [(V @ (filter_values(filt, float(lam), model.eigenvalues)
                          * Vty)) / scale for lam in lams]
    return solve


def fit_spectral(kernel: Kernel, filt: FilterSpec, lam: float,
                 x, y) -> KernelExpansion:
    """Fit one block: filter the spectrum of the normalized Gram, or, for
    Tikhonov on the built-in kernel, solve the shifted system (see
    :func:`coefficient_solver`, which also serves several fits on the
    same anchors)."""
    x, y = _as_data(x, y)
    alpha = coefficient_solver(kernel, filt, x)([lam], y)[0]
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
    """Evaluate the expansion at `x` (scalar or array of any shape)."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if is_sobolev_min(expansion.kernel):
        out = expansion.operator.cross(expansion.coefficients, flat)
    else:
        K = expansion.kernel.fn(expansion.points[:, None], flat[None, :])
        out = expansion.coefficients @ K
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
