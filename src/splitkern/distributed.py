"""Partition-and-average fitting: split the sample, fit blocks, average.

All blocks share one regularization parameter (chosen from the *global*
sample size); the combined estimator is the plain arithmetic mean of the
block estimators.  Block fits are independent and may run in parallel;
the average is always reduced in ascending block order so results are
bit-reproducible for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import (KernelExpansion, coefficient_solver, fit_iterative,
                        fit_spectral, iterate_coefficients)
from .filters import FilterSpec, check_steps
from .kernels import Kernel, kernel_operator, rkhs_error_sq, rkhs_norm_sq


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
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    idx = np.arange(n)
    if shuffle_seed is not None:
        rng = (shuffle_seed if isinstance(shuffle_seed, np.random.Generator)
               else np.random.default_rng(shuffle_seed))
        rng.shuffle(idx)
    return Partition(tuple(np.sort(b) for b in np.array_split(idx, m)))


@dataclass(frozen=True)
class AveragedEstimator:
    """Arithmetic mean of per-block kernel expansions.

    Block expansions with 2-D coefficients give one averaged estimator
    per row (one per lambda of a lattice, as `fit_lattice` returns them);
    ``est[i]`` is row `i` on its own.
    """

    block_fits: tuple

    @property
    def m(self) -> int:
        return len(self.block_fits)

    def __call__(self, x):
        total = self.block_fits[0](x)
        for fit in self.block_fits[1:]:
            total = total + fit(x)
        return total / self.m

    def __getitem__(self, i):
        return AveragedEstimator(
            block_fits=tuple(f[i] for f in self.block_fits))

    @property
    def coefficients(self) -> np.ndarray:
        """The weights alpha/m of every block, in block order: the average
        as one expansion over all anchors."""
        return np.concatenate(
            [f.coefficients for f in self.block_fits], axis=-1) / self.m

    def as_expansion(self) -> KernelExpansion:
        """The average rewritten as one expansion with weights alpha/m."""
        points = np.concatenate([f.points for f in self.block_fits])
        return KernelExpansion(self.coefficients, kernel_operator(
            self.block_fits[0].operator.kernel, points))


def fit_distributed(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                    part: Partition) -> AveragedEstimator:
    """Fit every block with the same `lam` and average the results.

    Iterative filters (Landweber, nu-method) run as iterations
    (:func:`fit_iterative`), every other filter by :func:`fit_spectral`.
    With ``m == 1`` this reduces exactly to the single-machine fit.
    """
    x, y = _partitioned(x, y, part)
    fit = fit_iterative if filt.iterative else fit_spectral
    return AveragedEstimator(block_fits=tuple(
        fit(kernel, filt, lam, x[ix], y[ix]) for ix in part.blocks))


def _partitioned(x, y, part: Partition):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if sum(map(len, part.blocks)) != x.size:
        raise ValueError("partition size does not match data size")
    return x, y


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
    values ``f_true(x)``, are each `fit_distributed`'s, bit for bit; each
    block's operator (and eigendecomposition) serves both.
    """
    if f_true_norm_sq is None:
        f_true_norm_sq = getattr(f_true, "rkhs_norm_sq", None)
    if f_true_norm_sq is None:
        raise ValueError("squared RKHS norm of f_true is required")
    x, y = _partitioned(x, y, part)
    f_x = np.asarray(f_true(x), dtype=float).ravel()
    k = check_steps(filt.steps(lam)) if filt.iterative else None
    blocks = []
    for ix in part.blocks:
        op = kernel_operator(kernel, x[ix])
        if k is None:
            solve = coefficient_solver(op, filt)
            fits = [solve([lam], v[ix])[0] for v in (y, f_x)]
        else:
            fits = [iterate_coefficients(op, filt, k, v[ix]) for v in (y, f_x)]
        blocks.append([KernelExpansion(a, op) for a in fits])
    fitted, surrogate = (AveragedEstimator(f) for f in zip(*blocks))

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
