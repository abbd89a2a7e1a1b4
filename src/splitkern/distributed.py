"""Partition-and-average fitting: split the sample, fit blocks, average.

All blocks share one regularization parameter (chosen from the *global*
sample size); the combined estimator is the plain arithmetic mean of the
block estimators: one ``estimator.KernelExpansion`` on the level's
operator, which holds every block's own coefficients.  Block fits are
independent and may run in parallel; the average is always reduced in
ascending block order so results are bit-reproducible for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import (KernelExpansion, _as_data, _iterate_level,
                        _solve_level)
from .filters import FilterSpec
from .kernels import Kernel, rkhs_error_sq, rkhs_norm_sq


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

    Without a seed the blocks are contiguous index ranges, read-only
    views of one ``arange``.  With a seed the indices are permuted first
    (deterministically) and each block is sorted.
    """
    _check_block_count(n, m)
    idx = np.arange(n)
    if shuffle_seed is None:
        idx.setflags(write=False)       # its views, the blocks, too
        return Partition(tuple(np.array_split(idx, m)))
    np.random.default_rng(shuffle_seed).shuffle(idx)
    return Partition(tuple(np.sort(b) for b in np.array_split(idx, m)))


def _check_block_count(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


def fit_distributed(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                    part: Partition) -> KernelExpansion:
    """Fit every block with the same `lam` and average the results.

    Each block's coefficients are bit for bit its :func:`fit_iterative`'s
    for an iterative filter (Landweber, nu-method) and its
    :func:`fit_spectral`'s for any other (:func:`_fit_blocks`).  With
    ``m == 1`` this reduces exactly to the single-machine fit.
    """
    return _fit_blocks(kernel, filt, lam, x, [y], part)[0]


def _fit_blocks(kernel, filt, lam, x, ys, part) -> KernelExpansion:
    """The fits of every block of `part` to each right-hand side in `ys`,
    as one ``KernelExpansion`` on the level operator, with a row of the
    blocks' coefficients per right-hand side.  Every input is checked
    before any block is fitted; one operator (and eigendecomposition)
    serves every row.  An iterative filter steps the level
    (:func:`estimator._iterate_level`); any other is solved on one worker
    (:func:`estimator._solve_level`), as the Monte-Carlo runs share the
    pool.
    """
    x = np.asarray(x, dtype=float).ravel()
    if sum(map(len, part.blocks)) != x.size:
        raise ValueError("partition size does not match data size")
    ys = np.stack([_as_data(x, y)[1] for y in ys])
    if filt.iterative:
        return _iterate_level(kernel, filt, lam, x, ys, part.blocks)
    return _solve_level(kernel, filt, [lam], x, ys, part.blocks, 1)


def _target_norm_sq(target) -> float:
    """The squared RKHS norm a target carries as `rkhs_norm_sq`."""
    nrm = getattr(target, "rkhs_norm_sq", None)
    if nrm is None:
        raise ValueError("target must carry its squared RKHS norm")
    return float(nrm)


@dataclass(frozen=True)
class DiagnosticSplit:
    """Error decomposition against a known target.

    `approximation_norm` measures the deterministic smoothing bias
    (target minus the noise-free surrogate built from the same blocks);
    `sample_norm` measures the noise contribution (surrogate minus the
    fitted average).  The surrogate is exact on the anchor span and is an
    empirical surrogate of the corresponding population quantity.  Both
    are the level's ``KernelExpansion``, as `fit_distributed` returns it.
    """

    approximation_norm: float
    sample_norm: float
    surrogate: KernelExpansion
    fitted: KernelExpansion


def diagnostic_split(kernel: Kernel, filt: FilterSpec, lam: float, x, y,
                     part: Partition, f_true) -> DiagnosticSplit:
    """Split the total error of a distributed fit into its two parts.

    `f_true` must be evaluable at the sample inputs and carry its squared
    RKHS norm as `rkhs_norm_sq` (:func:`_target_norm_sq`).  The fit to
    `y` and the surrogate, the same fit to the noise-free values
    ``f_true(x)``, are each `fit_distributed`'s, bit for bit, and are
    fitted together (:func:`_fit_blocks`).
    """
    target_sq = _target_norm_sq(f_true)
    x = np.asarray(x, dtype=float).ravel()
    both = _fit_blocks(kernel, filt, lam, x, [y, f_true(x)], part)
    fitted, surrogate = both[0], both[1]
    f_tilde = surrogate.as_expansion()
    # fitted has the same anchors in the same order: its average's weights
    # on f_tilde's operator, with no second one built
    sample_sq = f_tilde.operator.quad_form(
        f_tilde.coefficients - fitted.coefficients / part.m)
    approx_sq = rkhs_error_sq(rkhs_norm_sq(f_tilde), f_tilde.coefficients,
                              np.asarray(f_true(f_tilde.points), dtype=float),
                              target_sq)
    return DiagnosticSplit(
        approximation_norm=float(np.sqrt(approx_sq)),
        sample_norm=float(np.sqrt(max(sample_sq, 0.0))),
        surrogate=surrogate, fitted=fitted)
