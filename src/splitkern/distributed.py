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

from ._parallel import parallel_map
from .estimator import (KernelExpansion, coefficient_solver, fit_iterative,
                        fit_spectral)
from .filters import FilterSpec
from .kernels import Kernel, kernel_operator


@dataclass(frozen=True)
class Partition:
    """Assignment of n sample indices to m disjoint blocks.

    Blocks are balanced: sizes differ by at most one, with the larger
    blocks first.  Dropping data is never necessary.
    """

    m: int
    assignment: np.ndarray

    def blocks(self) -> list[np.ndarray]:
        """Index arrays per block, ascending block order."""
        return [np.flatnonzero(self.assignment == b) for b in range(self.m)]

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.m)


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
    assignment = np.empty(n, dtype=np.int64)
    for b, chunk in enumerate(np.array_split(idx, m)):
        assignment[chunk] = b
    return Partition(m=m, assignment=assignment)


@dataclass(frozen=True)
class AveragedEstimator:
    """Arithmetic mean of per-block kernel expansions."""

    block_fits: tuple

    @property
    def m(self) -> int:
        return len(self.block_fits)

    def __call__(self, x):
        total = self.block_fits[0](x)
        for fit in self.block_fits[1:]:
            total = total + fit(x)
        return total / self.m

    def as_expansion(self) -> KernelExpansion:
        """The average rewritten as one expansion with weights alpha/m."""
        coeffs = np.concatenate(
            [f.coefficients for f in self.block_fits]) / self.m
        points = np.concatenate([f.points for f in self.block_fits])
        return KernelExpansion(coefficients=coeffs, points=points,
                               kernel=self.block_fits[0].kernel)


def fit_distributed(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                    part: Partition, method: str = "spectral",
                    workers=None) -> AveragedEstimator:
    """Fit every block with the same `lam` and average the results.

    With ``m == 1`` this reduces exactly to the single-machine fit.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if len(part.assignment) != x.size:
        raise ValueError("partition size does not match data size")
    blocks = part.blocks()

    def fit_one(ix):
        if method == "iterative":
            return fit_iterative(kernel, filt, lam, x[ix], y[ix])
        return fit_spectral(kernel, filt, lam, x[ix], y[ix])

    fits = parallel_map(fit_one, blocks, workers)
    return AveragedEstimator(block_fits=tuple(fits))


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
                     part: Partition, f_true, f_true_norm_sq=None,
                     workers=None) -> DiagnosticSplit:
    """Split the total error of a distributed fit into its two parts.

    `f_true` must be evaluable at the sample inputs; its squared RKHS
    norm is taken from `f_true_norm_sq` or an `rkhs_norm_sq` attribute.
    """
    if f_true_norm_sq is None:
        f_true_norm_sq = getattr(f_true, "rkhs_norm_sq", None)
    if f_true_norm_sq is None:
        raise ValueError("squared RKHS norm of f_true is required")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    blocks = part.blocks()

    def split_one(ix):
        # the surrogate is the same fit to the noise-free values f_true(x)
        xb = x[ix]
        solve = coefficient_solver(kernel, filt, xb)
        return tuple(
            KernelExpansion(coefficients=solve([lam], v)[0], points=xb,
                            kernel=kernel)
            for v in (y[ix], np.asarray(f_true(xb), dtype=float)))

    pairs = parallel_map(split_one, blocks, workers)
    fitted = AveragedEstimator(block_fits=tuple(p[0] for p in pairs))
    surrogate = AveragedEstimator(block_fits=tuple(p[1] for p in pairs))

    f_tilde = surrogate.as_expansion()
    f_bar = fitted.as_expansion()
    op = kernel_operator(kernel, f_tilde.points)   # also f_bar's anchors
    sample_sq = op.quad_form(f_tilde.coefficients - f_bar.coefficients)
    tilde_sq = op.quad_form(f_tilde.coefficients)
    cross = float(f_tilde.coefficients @ np.asarray(f_true(f_tilde.points)))
    approx_sq = f_true_norm_sq - 2.0 * cross + tilde_sq
    return DiagnosticSplit(
        approximation_norm=float(np.sqrt(max(approx_sq, 0.0))),
        sample_norm=float(np.sqrt(max(sample_sq, 0.0))),
        surrogate=surrogate, fitted=fitted)
