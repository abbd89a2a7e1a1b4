"""Spectral estimators realized through the Gram operator.

A fitted estimator is a :class:`KernelExpansion`: the mean of a
partition level's block fits, one block's fit for a level of one.
Fitting one block applies a filter to the normalized Gram operator
``M = kappa**-2 * G / n`` (spectrum inside [0, 1]) and returns a kernel
expansion ``f(x) = sum_j alpha_j K(x_j, x)`` with

    alpha = kappa**-2 / n * V g_lam(Lambda) V' y.

For Tikhonov, ``g_lam(t) = 1/(lam + t)``, this is ``alpha = (G + lam *
kappa**2 * n * I)^{-1} y``; with the built-in kernel that system is solved
in O(n) without the eigendecomposition, for a whole partition level at
once (:func:`coefficient_solver`).

Iterative filters can alternatively be run as actual iterations in
coefficient space; both paths agree to high accuracy and the agreement
is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .filters import (FilterSpec, check_lambda, check_steps, filter_values,
                      iterate)
from .kernels import (Kernel, KernelOperator, _check_domain, gram,
                      kernel_operator)

# spectrum entries below this are indistinguishable from zero
EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class KernelExpansion:
    """The mean of the m block expansions ``sum_j coefficients[j] *
    K(points[j], .)`` of its level `operator` (the one its fit built):
    `coefficients` holds each block's own weights, blocks in order.  A
    level of one block is one RKHS element.  A 2-D `coefficients` holds
    one fit per row (``expansion[i]``)."""

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
        return KernelExpansion(self.coefficients[i], self.operator)

    @cached_property
    def block_fits(self) -> tuple:
        """Each block's expansion, on its own one-block operator."""
        op = self.operator
        return tuple(KernelExpansion(a, kernel_operator(op.kernel, p))
                     for a, p in zip(op._split(self.coefficients),
                                     op._split(op.points)))

    def as_expansion(self) -> KernelExpansion:
        """The mean as one RKHS element: itself for one block, else the
        weights alpha/m on the operator of all anchors."""
        op = self.operator
        if op.m == 1:
            return self
        return KernelExpansion(self.coefficients / op.m,
                               kernel_operator(op.kernel, op.points))


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
    clamped to [0, 1], the eigenvectors their orthonormal columns.  For a
    stack of anchor sets of one size, ``(c, s)``, one ``eigh`` call
    decomposes every set: ``(c, s)`` eigenvalues and ``(c, s, s)``
    eigenvectors, each set's equal to its own call's.

    Always a dense ``eigh``, for the built-in kernel too.  The Gram
    matrix is a temporary freed before ``eigh`` runs; keeping a dense
    operator's cached one alive instead made glibc trim and refault the
    heap on every hold-out fit with a user kernel.  The eigenvectors are
    the reversed-column view of ``eigh``'s: products with it take numpy's
    own loop, whose sums are the same for every stack, where a contiguous
    copy would go to BLAS and round differently.
    """
    x = np.asarray(x, dtype=float)
    evals, vecs = np.linalg.eigh(gram(kernel, x)
                                 / (kernel.kappa ** 2 * np.shape(x)[-1]))
    evals = np.clip(evals[..., ::-1], 0.0, 1.0)
    evals[evals < EIGENVALUE_FLOOR] = 0.0
    return evals, vecs[..., ::-1]


def _solves_shifted(op, filt: FilterSpec) -> bool:
    """Tikhonov on an operator with ``solve_shifted`` is solved with it."""
    return filt.kind == "tikhonov" and hasattr(op, "solve_shifted")


def coefficient_solver(ops, filt: FilterSpec):
    """``solve(lams, ys)``: expansion coefficients of the fits on the
    anchors of each Gram operator in `ops` to the outputs ``ys[b]`` of
    operator b: a ``(len(ops), len(lams), size)`` array, one row per
    lambda in `lams`.

    The one place the fitting path is chosen (:func:`_solves_shifted`).
    Tikhonov on the built-in kernel takes one operator, a level of one
    block or more, and one ``solve_shifted`` call solves ``(G_i + lam *
    kappa**2 |block i| I) alpha_i = y_i`` for every block i and lambda in
    O(n) each.  Every other pair takes a stack of one-block operators of
    one size and filters one :func:`spectral_model` of the stacked
    anchors: one ``filter_values`` call for every block and lambda, and
    one broadcast matrix-vector product per (block, lambda) row.
    """
    kernel = ops[0].kernel
    points = np.stack([op.points for op in ops])

    def outputs(ys):
        return np.stack([_as_data(x, y)[1] for x, y in zip(points, ys,
                                                           strict=True)])

    if _solves_shifted(ops[0], filt):
        (op,) = ops
        scale = kernel.kappa ** 2 * op.sizes
        def solve(lams, ys):
            lams = np.array([check_lambda(float(lam)) for lam in lams])
            return np.stack([op.solve_shifted(lams[:, None, None] * scale, y)
                             for y in outputs(ys)])
    else:
        scale = kernel.kappa ** 2 * points.shape[-1]
        evals, V = spectral_model(kernel, points)

        def solve(lams, ys):
            Vty = np.swapaxes(V, -1, -2) @ outputs(ys)[..., None]
            gV = np.swapaxes(filter_values(filt, lams, evals), 0, 1) \
                * Vty[:, None, :, 0]
            # a matrix-vector product per row: one matrix product for
            # every lambda rounds differently
            return (V[:, None] @ gV[..., None])[..., 0] / scale
    return solve


def fit_spectral(kernel: Kernel, filt: FilterSpec, lam: float,
                 x, y) -> KernelExpansion:
    """Fit one block: filter the spectrum of the normalized Gram, or, for
    Tikhonov on the built-in kernel, solve the shifted system (see
    :func:`coefficient_solver`, which also serves several lambdas and a
    stack of blocks)."""
    x, y = _as_data(x, y)
    op = kernel_operator(kernel, x)
    alpha = coefficient_solver([op], filt)([lam], [y])[0, 0]
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
    scale = 1.0 / (kernel.kappa ** 2 * x.size)
    steps = iterate(filt, scale * y, lambda v: scale * op.matvec(v))
    return KernelExpansion(next(islice(steps, k - 1, None)), op)


def predict(expansion: KernelExpansion, x):
    """Evaluate the expansion at `x` (scalar or array of any shape): the
    level's ``cross`` divided by m.  A 2-D expansion gives one leading
    row per row of coefficients.  Points outside [0, 1] or not finite are
    rejected, as :class:`kernels.Kernel` documents."""
    op = expansion.operator
    xs = _check_domain(x)
    out = op.cross(expansion.coefficients, xs.ravel()) / op.m
    out = out.reshape(out.shape[:-1] + xs.shape)
    return float(out) if out.ndim == 0 else out
