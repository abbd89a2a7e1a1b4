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
the training part alone.  A level's whole lattice is one estimator with a
row per lambda.  The first three levels, before any of which the rule
cannot hold, are scored together as the rows of one estimator on the
third level's operator, so each kernel value between a training and a
validation point is computed once for all three; each later level is
scored alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import _checked
from .distributed import _check_block_count, partition
from .estimator import KernelExpansion, _as_data, _solve_level
from .filters import FilterSpec
from .kernels import Kernel, _check_domain


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
    perm = np.random.default_rng(seed).permutation(n)
    return HoldoutSplit(train=np.sort(perm[n_val:]),
                        validation=np.sort(perm[:n_val]))


def empirical_error(est, x_val, y_val) -> float | np.ndarray:
    """Mean squared prediction error on held-out data; one error per row
    (an array) for an estimator with one row per lambda."""
    if np.size(x_val) == 0:
        raise ValueError("validation set is empty")
    x_val, y_val = _as_data(x_val, y_val)
    resid = y_val - np.asarray(est(x_val), dtype=float)
    if resid.ndim == 2:
        # row by row: np.mean over an axis sums in another order
        return np.array([float(np.mean(r ** 2)) for r in resid])
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


def default_m_sequence(n_train: int):
    """Strictly decreasing partition counts ``ceil(n_train**a)`` for
    a = 0.6, 0.5, ..., 0."""
    seq = []
    for a in (0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0):
        v = min(n_train, math.ceil(n_train ** a))
        if not seq or v < seq[-1]:
            seq.append(v)
    return seq


def fit_lattice(kernel: Kernel, filt: FilterSpec, lattice, x_t, y_t,
                m_k: int, workers=None) -> KernelExpansion:
    """The average over `m_k` blocks, one ``KernelExpansion`` on the
    level's one operator for every kernel, with a row of the blocks'
    coefficients per lattice value: ``fit_lattice(...)[i]``
    is the fit at ``lattice[i]``, each block its own ``fit_spectral``'s
    bit for bit (``estimator._solve_level``: one level solve, or a
    chunk of equal-size blocks per pool task).  Pure function of the
    training data."""
    x_t, y_t = _as_data(x_t, y_t)
    return _solve_level(kernel, filt, lattice, x_t, y_t[None],
                        partition(len(x_t), m_k).blocks, workers)


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
    estimator: KernelExpansion
    trace: tuple
    triggered: bool
    split: HoldoutSplit


def adapt(x, y, kernel: Kernel, filt: FilterSpec, lattice,
          m_sequence=None, delta: float = 0.5, val_fraction: float = 0.2,
          seed=0, workers=None) -> AdaptResult:
    """Data-driven level and lambda selection by hold-out.

    Returns the stopping level, the lambda selected there, the estimator
    fitted on the training part, and the per-level trace.  If the level
    sequence is exhausted without triggering the stopping rule, the last
    level is returned with ``triggered=False``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _checked(workers)               # before any fit, whichever path it takes
    lattice = np.sort(np.asarray(lattice, dtype=float))[::-1]
    if lattice.size == 0:
        raise ValueError("lambda lattice is empty")
    x, y = _as_data(x, y)
    _check_domain(x)

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
    for m in m_sequence:
        _check_block_count(len(x_t), m)

    # The rule holds at level 3 at the earliest, so levels 1-3 are scored
    # at once: rows of one expansion on level 3's operator (every level
    # holds x_t in one order), level k's scaled by m_3 / m_k so that the
    # division by m_3 gives its own average.
    L, m_3 = lattice.size, m_sequence[2]
    rows = np.empty((3 * L, len(x_t)))
    for j, m_k in enumerate(m_sequence[:3]):
        fits = fit_lattice(kernel, filt, lattice, x_t, y_t, m_k, workers)
        np.multiply(fits.coefficients, m_3 / m_k, out=rows[j * L:(j + 1) * L])
    first = np.split(empirical_error(KernelExpansion(rows, fits.operator),
                                     x_v, y_v), 3)
    del rows

    errs: list[float] = []
    trace: list[AdaptLevel] = []
    triggered = False

    # The level returned (k*, or the last when exhausted) is the last fitted.
    for k, m_k in enumerate(m_sequence, start=1):
        if k <= 3:
            errv = first[k - 1]
        else:
            fits = fit_lattice(kernel, filt, lattice, x_t, y_t, m_k, workers)
            errv = empirical_error(fits, x_v, y_v)
        # argmin over the descending lattice: ties go to the larger lambda
        i = int(np.argmin(errv))
        errs.append(float(errv[i]))
        trace.append(AdaptLevel(
            k=k, m_k=m_k, lambda_hat=float(lattice[i]), err=errs[-1],
            delta_k=abs(errs[-1] - errs[-2]) if k >= 2 else None))
        if stopping_index(errs, delta) is not None:
            triggered = True
            break

    return AdaptResult(k_star=k, lambda_hat=float(lattice[i]),
                       estimator=fits[i], trace=tuple(trace),
                       triggered=triggered, split=split)
