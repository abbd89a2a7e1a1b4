"""Hold-out adaptive choice of the regularization parameter.

The sample is split into a training and a validation part.  For a
strictly decreasing sequence of partition counts ``m_1 > m_2 > ...``,
the training part is split into ``m_k`` blocks and averaged estimators
are fitted for every lambda on a lattice; the lattice value minimizing
the validation mean squared error is recorded per level.  Levels stop at

    k* = min{ k >= 3 : |Err(k) - Err(k-1)|
                       <= delta * min_{2 <= j < k} |Err(j) - Err(j-1)| }

i.e. once the error stops improving appreciably, and the estimator fitted
at level k* with its selected lambda is returned.  Validation data only
ever enters through the error evaluation; the per-lambda fits depend on
the training part alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .distributed import AveragedEstimator, partition
from .estimator import KernelExpansion, coefficient_solver
from .filters import FilterSpec
from .kernels import Kernel


@dataclass(frozen=True)
class HoldoutSplit:
    train: np.ndarray
    validation: np.ndarray


def holdout_split(n: int, val_fraction: float = 0.2, seed=0) -> HoldoutSplit:
    """Disjoint train/validation index split after a seeded permutation."""
    if n < 2:
        raise ValueError("need at least two samples to split")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    n_val = min(n - 1, max(1, int(round(n * val_fraction))))
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    perm = rng.permutation(n)
    return HoldoutSplit(train=np.sort(perm[n_val:]),
                        validation=np.sort(perm[:n_val]))


def empirical_error(est, x_val, y_val) -> float:
    """Mean squared prediction error on held-out data."""
    x_val = np.asarray(x_val, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    if x_val.size == 0:
        raise ValueError("validation set is empty")
    resid = y_val - np.asarray(est(x_val), dtype=float)
    return float(np.mean(resid ** 2))


def stopping_index(errors, delta: float):
    """First level whose improvement drops below a delta-fraction of the
    smallest improvement seen so far; None if never triggered.

    `errors` are the per-level validation errors Err(1), Err(2), ...
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    errs = list(errors)
    deltas = [abs(errs[j - 1] - errs[j - 2]) for j in range(2, len(errs) + 1)]
    for k in range(3, len(errs) + 1):
        floor = min(deltas[:k - 2])       # improvements at levels 2 .. k-1
        if deltas[k - 2] <= delta * floor:
            return k
    return None


def default_m_sequence(n_train: int,
                       exponents=(0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0)):
    """Strictly decreasing partition counts ``ceil(n_train**a)``."""
    seq = []
    for a in exponents:
        v = min(n_train, math.ceil(n_train ** a))
        if not seq or v < seq[-1]:
            seq.append(v)
    return seq


def fit_lattice(kernel: Kernel, filt: FilterSpec, lattice, x_t, y_t,
                m_k: int, workers=None) -> list[AveragedEstimator]:
    """Averaged estimators over `m_k` blocks, one per lattice value.

    Pure function of the training data: each block is solved once for
    the whole lattice (one eigendecomposition, or one shifted solve for
    Tikhonov with the built-in kernel; see ``coefficient_solver``).
    """
    x_t = np.asarray(x_t, dtype=float).ravel()
    y_t = np.asarray(y_t, dtype=float).ravel()
    blocks = partition(len(x_t), m_k).blocks()
    solvers = parallel_map(
        lambda ix: coefficient_solver(kernel, filt, x_t[ix]), blocks, workers)
    coefs = [solve(lattice, y_t[ix]) for solve, ix in zip(solvers, blocks)]
    # Each fit gets its own copy of its coefficients, made on this thread
    # after every solve.  Keeping the solves' arrays instead (made between
    # their temporaries, or on pool threads) left the validation predicts'
    # large temporaries at the top of the heap, where glibc trimmed and
    # refaulted them on every call: 8x the page faults and +30% adapt
    # time with a user kernel.
    return [AveragedEstimator(block_fits=tuple(
                KernelExpansion(coefficients=np.array(c[i]), points=x_t[ix],
                                kernel=kernel)
                for ix, c in zip(blocks, coefs)))
            for i in range(len(lattice))]


@dataclass(frozen=True)
class AdaptLevel:
    k: int
    m_k: int
    lambda_hat: float
    err: float
    delta_k: float | None


@dataclass(frozen=True)
class AdaptResult:
    k_star: int
    lambda_hat: float
    estimator: AveragedEstimator
    trace: tuple
    triggered: bool
    split: HoldoutSplit


def adapt(x, y, kernel: Kernel, filt: FilterSpec, lattice,
          m_sequence=None, delta: float = 0.5, val_fraction: float = 0.2,
          seed=0, workers=None, refit_on_all: bool = False) -> AdaptResult:
    """Data-driven level and lambda selection by hold-out.

    Returns the stopping level, the lambda selected there, the estimator
    fitted on the training part, and the per-level trace.  If the level
    sequence is exhausted without triggering the stopping rule, the last
    level is returned with ``triggered=False``.  With ``refit_on_all`` the
    returned estimator is refitted at (k*, lambda_hat) on the full sample
    (selection still uses the hold-out split).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    lattice = np.sort(np.asarray(lattice, dtype=float))[::-1]
    if lattice.size == 0:
        raise ValueError("lambda lattice is empty")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()

    split = holdout_split(len(x), val_fraction, seed)
    x_t, y_t = x[split.train], y[split.train]
    x_v, y_v = x[split.validation], y[split.validation]

    if m_sequence is None:
        m_sequence = default_m_sequence(len(x_t))
    m_sequence = [int(m) for m in m_sequence]
    if len(m_sequence) < 3:
        raise ValueError("need at least three partition levels")
    if any(b >= a for a, b in zip(m_sequence, m_sequence[1:])):
        raise ValueError("partition counts must be strictly decreasing")
    if m_sequence[0] > len(x_t):
        raise ValueError("more blocks than training points")

    errs: list[float] = []
    trace: list[AdaptLevel] = []
    chosen: list[tuple[float, AveragedEstimator]] = []
    triggered = False
    k_star = len(m_sequence)

    for k, m_k in enumerate(m_sequence, start=1):
        # argmin over the descending lattice: ties go to the larger lambda
        ests = fit_lattice(kernel, filt, lattice, x_t, y_t, m_k, workers)
        errv = np.array([empirical_error(e, x_v, y_v) for e in ests])
        i = int(np.argmin(errv))
        errs.append(float(errv[i]))
        chosen.append((float(lattice[i]), ests[i]))
        trace.append(AdaptLevel(
            k=k, m_k=m_k, lambda_hat=float(lattice[i]), err=errs[-1],
            delta_k=abs(errs[-1] - errs[-2]) if k >= 2 else None))
        hit = stopping_index(errs, delta)
        if hit is not None:
            k_star, triggered = hit, True
            break

    lam_hat, est = chosen[k_star - 1]
    if refit_on_all:
        est = fit_lattice(kernel, filt, [lam_hat], x, y,
                          m_sequence[k_star - 1], workers)[0]
    return AdaptResult(k_star=k_star, lambda_hat=lam_hat, estimator=est,
                       trace=tuple(trace), triggered=triggered, split=split)
