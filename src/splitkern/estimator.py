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
from itertools import islice

import numpy as np

from .filters import (FilterSpec, check_lambda, check_steps, filter_values,
                      iterate)
from .kernels import (Kernel, KernelOperator, gram, is_sobolev_min,
                      kernel_operator)

# spectrum entries below this are indistinguishable from zero
EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class KernelExpansion:
    """An RKHS element ``sum_j coefficients[j] * K(points[j], .)``, or one
    per row of a 2-D `coefficients`, on the Gram operator of its anchors
    (the one its fit built)."""

    coefficients: np.ndarray
    operator: KernelOperator

    def __post_init__(self):
        if np.shape(self.coefficients)[-1:] != self.points.shape:
            raise ValueError("coefficient and anchor counts differ")

    @property
    def points(self) -> np.ndarray:
        return self.operator.points

    def __call__(self, x):
        return predict(self, x)

    def __getitem__(self, i):
        """Row `i` of a 2-D expansion, on the same operator."""
        return KernelExpansion(self.coefficients[i], self.operator)


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


def spectral_model(kernel: Kernel, x) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose the normalized Gram operator of the anchors `x`:
    ``(eigenvalues, eigenvectors)``, the eigenvalues sorted descending and
    clamped to [0, 1], the eigenvectors their orthonormal columns.

    Always a dense ``eigh``, for the built-in kernel too.  The Gram
    matrix is a temporary freed before ``eigh`` runs; keeping a dense
    operator's cached one alive instead made glibc trim and refault the
    heap on every hold-out fit with a user kernel.
    """
    evals, vecs = np.linalg.eigh(gram(kernel, x)
                                 / (kernel.kappa ** 2 * np.size(x)))
    evals = np.clip(evals[::-1], 0.0, 1.0)
    evals[evals < EIGENVALUE_FLOOR] = 0.0
    return evals, vecs[:, ::-1]


def coefficient_solver(op: KernelOperator, filt: FilterSpec):
    """``solve(lams, y)``: expansion coefficients of the single-block fits
    on the anchors of the Gram operator `op`, one row per lambda in `lams`.

    The one place the fitting path is chosen.  Tikhonov on the built-in
    kernel solves ``(G + lam * kappa**2 * n * I) alpha = y`` with
    :meth:`SobolevMinOperator.solve_shifted` of `op`: O(n) per lambda, no
    eigendecomposition.  Every other pair filters one
    :func:`spectral_model` of the anchors, shared by every ``solve``.
    """
    kernel, x = op.kernel, op.points
    scale = kernel.kappa ** 2 * x.size
    if filt.kind == "tikhonov" and is_sobolev_min(kernel):
        def solve(lams, y):
            _, y = _as_data(x, y)
            c = [check_lambda(float(lam)) for lam in lams]
            return op.solve_shifted(np.array(c) * scale, y)
    else:
        evals, V = spectral_model(kernel, x)

        def solve(lams, y):
            _, y = _as_data(x, y)
            Vty = V.T @ y
            # row by row: one matrix product for every lambda rounds
            # differently
            return [(V @ (g * Vty)) / scale
                    for g in filter_values(filt, lams, evals)]
    return solve


def fit_spectral(kernel: Kernel, filt: FilterSpec, lam: float,
                 x, y) -> KernelExpansion:
    """Fit one block: filter the spectrum of the normalized Gram, or, for
    Tikhonov on the built-in kernel, solve the shifted system (see
    :func:`coefficient_solver`, which also serves several fits on the
    same anchors)."""
    x, y = _as_data(x, y)
    op = kernel_operator(kernel, x)
    alpha = coefficient_solver(op, filt)([lam], y)[0]
    return KernelExpansion(alpha, op)


def fit_iterative(kernel: Kernel, filt: FilterSpec, lam: float,
                  x, y) -> KernelExpansion:
    """Run an iterative filter as an actual iteration in coefficient space.

    :func:`filters.iterate` on ``M = G / (kappa**2 n)`` from ``b = y /
    (kappa**2 n)``; Landweber steps ``alpha + (b - M alpha)``.  Matches
    `fit_spectral` with the same filter, with ``k - 1`` products with G
    for k steps.  A lambda that needs more than ``filters.MAX_STEPS``
    steps is rejected before any step is taken.
    """
    k = check_steps(filt.steps(lam))    # rejects non-iterative filters
    x, y = _as_data(x, y)
    op = kernel_operator(kernel, x)
    return KernelExpansion(iterate_coefficients(op, filt, k, y), op)


def iterate_coefficients(op: KernelOperator, filt: FilterSpec, k: int,
                         y) -> np.ndarray:
    """Coefficients after `k` steps of the iterative filter `filt` on the
    anchors of the Gram operator `op` (see :func:`fit_iterative`)."""
    _, y = _as_data(op.points, y)
    scale = 1.0 / (op.kernel.kappa ** 2 * op.points.size)
    steps = iterate(filt, scale * y, lambda v: scale * op.matvec(v))
    return next(islice(steps, k - 1, None))


def predict(expansion: KernelExpansion, x):
    """Evaluate the expansion at `x` (scalar or array of any shape); a 2-D
    expansion gives one leading row per row of coefficients."""
    xs = np.asarray(x, dtype=float)
    out = expansion.operator.cross(expansion.coefficients, xs.ravel())
    out = out.reshape(out.shape[:-1] + xs.shape)
    return float(out) if out.ndim == 0 else out
