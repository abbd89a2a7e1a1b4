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
once.  Every fit is a level fit: the closed form (:func:`_solve_level`)
or, for an iterative filter, the actual iteration in coefficient space
(:func:`_iterate_level`); both paths agree to high accuracy and the
agreement is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from ._parallel import parallel_map
from .filters import (FilterSpec, check_lambda, check_steps, filter_values,
                      iterate)
from .kernels import (Kernel, KernelOperator, _check_domain, gram,
                      kernel_operator, level_operator)

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


# Gram values (blocks x size**2) that one chunk of a level fit
# eigendecomposes at once.  A chunk's stacked Gram matrix and its
# eigenvectors then take 1 MiB each, so a level's temporaries stay a few
# MiB per worker at any n, while a chunk still holds 145 blocks of 30
# points: each pool task is one large ``eigh``, which releases the
# GIL, not numpy's per-call overhead, which holds it.  On an adapt call
# with a user kernel (n = 4096, 2 workers, fresh process, 2-core x86-64)
# 2**14 and 2**16 took 0.21 and 0.18 s with about 2x the page faults of
# 2**17 (0.16 s); 2**18 and 2**20 were no faster and peaked 2 MiB higher.
CHUNK_VALUES = 2 ** 17


def _chunks(blocks):
    """Runs of consecutive blocks of one size, each split into as few
    near-equal chunks (the larger first) as keep every chunk within
    `CHUNK_VALUES` Gram values, or one block: a chunk is a block per row."""
    out = []
    for size, run in groupby(blocks, len):
        run = np.array(list(run))
        step = max(1, CHUNK_VALUES // size ** 2)
        out += np.array_split(run, -(-len(run) // step))
    return out


def _solve_level(kernel, filt, lams, x, ys, blocks,
                 workers) -> KernelExpansion:
    """The closed-form fits of every block ``x[ix]``, `ix` in `blocks`, to
    every row of the checked outputs `ys` at every lambda in `lams`: one
    ``KernelExpansion`` on the level operator, row ``r * len(lams) + l``
    for ``ys[r]`` at ``lams[l]``.

    Tikhonov on an operator with ``solve_shifted`` is one call per row,
    ``(G_i + lam * kappa**2 |block i| I) alpha_i = y_i`` for every block
    and lambda in O(n) each; one row comes back as the array it wrote.
    Otherwise one task of `workers` eigendecomposes a chunk of equal-size
    blocks (:func:`_chunks`) as one :func:`spectral_model`, filters it
    with one ``filter_values`` call and makes one broadcast
    matrix-vector product per (block, lambda) row; the chunks are joined
    in block order on this thread, so their arrays, made on pool threads,
    are freed, and the level's operator forms no Gram matrix.
    """
    level = level_operator(kernel, x, blocks)
    if filt.kind == "tikhonov" and hasattr(level, "solve_shifted"):
        lams = np.array([check_lambda(float(lam)) for lam in lams])
        c = lams[:, None, None] * (kernel.kappa ** 2 * level.sizes)
        rows = [level.solve_shifted(c, y)
                for y in ys[:, np.concatenate(blocks)]]
        return KernelExpansion(
            rows[0] if len(rows) == 1 else np.concatenate(rows), level)

    def fit(chunk):
        scale = kernel.kappa ** 2 * chunk.shape[-1]
        evals, V = spectral_model(kernel, x[chunk])
        g = np.swapaxes(filter_values(filt, lams, evals), 0, 1)
        out = []
        for y in ys:
            Vty = np.swapaxes(V, -1, -2) @ y[chunk][..., None]
            # a matrix-vector product per row: one matrix product for
            # every lambda rounds differently
            out.append((V[:, None] @ (g * Vty[:, None, :, 0])[..., None])
                       [..., 0] / scale)
        return np.concatenate(out, axis=1)

    weights = np.concatenate(
        [c for coefs in parallel_map(fit, _chunks(blocks), workers)
         for c in coefs], axis=-1)
    return KernelExpansion(weights, level)


def _iterate_level(kernel, filt, lam, x, ys, blocks) -> KernelExpansion:
    """The iterative fits of every block ``x[ix]``, `ix` in `blocks`, to
    every row of the checked outputs `ys`: :func:`filters.iterate` on
    each block's ``M_i = G_i / (kappa**2 |block i|)`` from ``b_i = y_i /
    (kappa**2 |block i|)``, stepping the level operator's ``(rows, m,
    s)`` level vector.  Every step is elementwise or a block's own
    product (``level_matvec``), so each block's coefficients are its own
    fit's; k steps make ``k - 1`` products.  A lambda that needs more
    than ``filters.MAX_STEPS`` steps is rejected before the operator is
    built.
    """
    k = check_steps(filt.steps(lam))    # rejects non-iterative filters
    op = level_operator(kernel, x, blocks)
    scale = 1.0 / (kernel.kappa ** 2 * op.sizes)
    b = scale * op.layout(ys[:, np.concatenate(blocks)])
    steps = iterate(filt, b, lambda v: scale * op.level_matvec(v))
    return KernelExpansion(op.blocks(next(islice(steps, k - 1, None))), op)


def fit_spectral(kernel: Kernel, filt: FilterSpec, lam: float,
                 x, y) -> KernelExpansion:
    """Fit one block: filter the spectrum of the normalized Gram, or, for
    Tikhonov on the built-in kernel, solve the shifted system (the level
    of one block of :func:`_solve_level`)."""
    x, y = _as_data(x, y)
    return _solve_level(kernel, filt, [lam], x, y[None],
                        [np.arange(x.size)], 1)[0]


def fit_iterative(kernel: Kernel, filt: FilterSpec, lam: float,
                  x, y) -> KernelExpansion:
    """Run an iterative filter as an actual iteration in coefficient space
    (the level of one block of :func:`_iterate_level`): matches
    `fit_spectral` with the same filter."""
    x, y = _as_data(x, y)
    return _iterate_level(kernel, filt, lam, x, y[None],
                          [np.arange(x.size)])[0]


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
