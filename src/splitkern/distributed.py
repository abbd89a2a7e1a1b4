"""Partition-and-average fitting: split the sample, fit blocks, average.

All blocks share one regularization parameter (chosen from the *global*
sample size); the combined estimator is the plain arithmetic mean of the
block estimators.  Block fits are independent and may run in parallel;
the average is always reduced in ascending block order so results are
bit-reproducible for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .estimator import (KernelExpansion, _as_data, coefficient_solver,
                        iterate_coefficients)
from .filters import FilterSpec, check_steps, iterate
from .kernels import (Kernel, is_sobolev_min, kernel_operator,
                      level_operator, rkhs_error_sq, rkhs_norm_sq)


@dataclass(frozen=True)
class Partition:
    """n sample indices split into disjoint blocks: `blocks` holds each
    block's ascending index array, in ascending block order.

    Blocks are balanced: sizes differ by at most one, with the larger
    blocks first.  Dropping data is never necessary.
    """

    blocks: tuple

    @property
    def m(self) -> int:
        return len(self.blocks)


def partition(n: int, m: int, shuffle_seed=None) -> Partition:
    """Split ``range(n)`` into `m` balanced blocks, optionally shuffled.

    Without a seed the blocks are contiguous index ranges.  With a seed
    the indices are permuted first (deterministically).
    """
    _check_block_count(n, m)
    idx = np.arange(n)
    if shuffle_seed is not None:
        rng = (shuffle_seed if isinstance(shuffle_seed, np.random.Generator)
               else np.random.default_rng(shuffle_seed))
        rng.shuffle(idx)
    return Partition(tuple(np.sort(b) for b in np.array_split(idx, m)))


def _check_block_count(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


class AveragedEstimator:
    """Arithmetic mean of per-block kernel expansions, `block_fits`.

    Block expansions with 2-D coefficients give one averaged estimator
    per row (one per lambda of a lattice, as `fit_lattice` returns them);
    ``est[i]`` is row `i` on its own.  The blocks' values at a point are
    added in ascending block order.
    """

    def __init__(self, block_fits):
        self.block_fits = tuple(block_fits)

    @property
    def m(self) -> int:
        return len(self.block_fits)

    def __call__(self, x):
        total = self.block_fits[0](x)
        for fit in self.block_fits[1:]:
            total = total + fit(x)
        return total / self.m

    def __getitem__(self, i):
        return AveragedEstimator(f[i] for f in self.block_fits)

    @property
    def points(self) -> np.ndarray:
        """Every block's anchors, blocks in order."""
        return np.concatenate([f.points for f in self.block_fits])

    @property
    def coefficients(self) -> np.ndarray:
        """The weights alpha/m of every block, in block order: the average
        as one expansion over all anchors."""
        return np.concatenate(
            [f.coefficients for f in self.block_fits], axis=-1) / self.m

    def as_expansion(self) -> KernelExpansion:
        """The average rewritten as one expansion with weights alpha/m."""
        return KernelExpansion(self.coefficients, kernel_operator(
            self.kernel, self.points))

    @property
    def kernel(self) -> Kernel:
        return self.block_fits[0].operator.kernel


class LevelEstimator(AveragedEstimator):
    """The average of a partition level fitted at once: `level` holds a
    row of coefficients per block of the block-layout `operator` (and a
    leading row per fit, ``est[i]``).  It predicts every block at once
    (``mean_cross``), adding the blocks in ascending order as the base
    class does; `block_fits` builds each block's own operator when read."""

    def __init__(self, operator, level):
        self.operator = operator
        self.level = level

    @property
    def m(self) -> int:
        return self.operator.m

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = self.operator.mean_cross(self.level, xs.ravel())
        out = out.reshape(out.shape[:-1] + xs.shape)
        return float(out) if out.ndim == 0 else out

    def __getitem__(self, i):
        return LevelEstimator(self.operator, self.level[i])

    @cached_property
    def block_fits(self) -> tuple:
        op = self.operator
        split = np.cumsum(op.sizes[:-1, 0])
        return tuple(
            KernelExpansion(a, kernel_operator(op.kernel, p)) for a, p in zip(
                np.split(op.blocks(self.level), split, axis=-1),
                np.split(op.blocks(op.points), split)))

    @property
    def points(self) -> np.ndarray:
        return self.operator.blocks(self.operator.points)

    @property
    def coefficients(self) -> np.ndarray:
        return self.operator.blocks(self.level) / self.m

    @property
    def kernel(self) -> Kernel:
        return self.operator.kernel


def fit_distributed(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                    part: Partition) -> AveragedEstimator:
    """Fit every block with the same `lam` and average the results.

    Each block's coefficients are bit for bit its :func:`fit_iterative`'s
    for an iterative filter (Landweber, nu-method) and its
    :func:`fit_spectral`'s for any other; on the built-in kernel the
    iterations step every block at once (:func:`_fit_blocks`).  With
    ``m == 1`` this reduces exactly to the single-machine fit.
    """
    return _fit_blocks(kernel, filt, lam, x, [y], part)[0]


def _fit_blocks(kernel, filt, lam, x, ys, part) -> AveragedEstimator:
    """The fits of every block of `part` to each right-hand side in `ys`,
    as one average with a row per right-hand side.  Every input is checked
    before any block is fitted; each block's operator (and
    eigendecomposition) serves every row.  On the built-in kernel an
    iterative filter steps the ``(rows, m, s)`` level vector, with ``1 /
    (kappa**2 |block|)`` as an ``(m, 1)`` column: every step is elementwise
    or a row's prefix sums, so each block's coefficients are its own fit's.
    """
    x = np.asarray(x, dtype=float).ravel()
    if sum(map(len, part.blocks)) != x.size:
        raise ValueError("partition size does not match data size")
    k = check_steps(filt.steps(lam)) if filt.iterative else None
    ys = np.stack([_as_data(x, y)[1] for y in ys])
    if k is not None and is_sobolev_min(kernel):
        op = level_operator(kernel, x, part.blocks)
        scale = 1.0 / (kernel.kappa ** 2 * op.sizes)
        b = scale * op.layout(ys[:, np.concatenate(part.blocks)])
        steps = iterate(filt, b, lambda v: scale * op.matvec(v))
        return LevelEstimator(op, next(islice(steps, k - 1, None)))
    fits = []
    for ix in part.blocks:
        op = kernel_operator(kernel, x[ix])
        if k is None:
            solve = coefficient_solver(op, filt)
            rows = [solve([lam], y[ix])[0] for y in ys]
        else:
            rows = [iterate_coefficients(op, filt, k, y[ix]) for y in ys]
        fits.append(KernelExpansion(np.stack(rows), op))
    return AveragedEstimator(fits)


@dataclass(frozen=True)
class DiagnosticSplit:
    """Error decomposition against a known target.

    `approximation_norm` measures the deterministic smoothing bias
    (target minus the noise-free surrogate built from the same blocks);
    `sample_norm` measures the noise contribution (surrogate minus the
    fitted average).  The surrogate is exact on the anchor span and is an
    empirical surrogate of the corresponding population quantity.
    """

    approximation_norm: float
    sample_norm: float
    surrogate: AveragedEstimator
    fitted: AveragedEstimator


def diagnostic_split(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                     part: Partition, f_true,
                     f_true_norm_sq=None) -> DiagnosticSplit:
    """Split the total error of a distributed fit into its two parts.

    `f_true` must be evaluable at the sample inputs; its squared RKHS
    norm is taken from `f_true_norm_sq` or an `rkhs_norm_sq` attribute.
    The fit to `y` and the surrogate, the same fit to the noise-free
    values ``f_true(x)``, are each `fit_distributed`'s, bit for bit, and
    are fitted together (:func:`_fit_blocks`).
    """
    if f_true_norm_sq is None:
        f_true_norm_sq = getattr(f_true, "rkhs_norm_sq", None)
    if f_true_norm_sq is None:
        raise ValueError("squared RKHS norm of f_true is required")
    x = np.asarray(x, dtype=float).ravel()
    both = _fit_blocks(kernel, filt, lam, x, [y, f_true(x)], part)
    fitted, surrogate = both[0], both[1]
    f_tilde = surrogate.as_expansion()
    # fitted has the same anchors in the same order
    sample_sq = f_tilde.operator.quad_form(
        f_tilde.coefficients - fitted.coefficients)
    approx_sq = rkhs_error_sq(rkhs_norm_sq(f_tilde), f_tilde.coefficients,
                              np.asarray(f_true(f_tilde.points), dtype=float),
                              f_true_norm_sq)
    return DiagnosticSplit(
        approximation_norm=float(np.sqrt(approx_sq)),
        sample_norm=float(np.sqrt(max(sample_sq, 0.0))),
        surrogate=surrogate, fitted=fitted)
