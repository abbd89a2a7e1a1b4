"""Bounded, order-preserving task mapping for Monte-Carlo runs and the
chunks of a partition level's block fits.

Threads share the GIL, so a task pays on a second thread only while its
numpy calls release it.  Dense LAPACK and BLAS calls (``eigh``, Gram
products) release it for their whole run.  The O(n) paths of the built-in
kernel are many short numpy calls, each of which releases it only for its
inner loop, and two threads then spend their time handing the GIL over.
Measured on a 2-core x86-64 machine (numpy 2.4, one BLAS thread), two
threads each stepping one level's ``level_matvec`` reach 0.37-0.39x the
serial throughput at n = 1024 (37k voluntary context switches against
none serially), 0.58-0.71x at 4096, 0.64-0.74x at 16384 and 1.12-1.16x
at 65536.  Whole studies on two workers, pooled against inline (median
of 5 fresh processes each, 10 runs unless stated):

- nu-method ``sweep-alpha``: n = 4096 (4 runs) 0.26 s against 0.21 s,
  8192 0.70 against 0.62 s, 16384 1.00 against 1.27 s;
- Tikhonov ``sweep-n``, whose oracle then solved 40 shifts at once:
  n = 4096 0.35 against 0.50 s, 16384 (four alphas) 1.46 against 2.13 s;
- cut-off ``oracle``: n = 256 0.10 against 0.16 s.

So a study's Monte-Carlo runs go to the pool only when one run's largest
numpy call holds at least `POOL_VALUES` values (:func:`_pool_workers`):
n for an iterative filter's level vector, n times the shifts of one
chunk of Tikhonov's shifted solve (``kernels._shifts_at_once``; a chunk
holds at least min(40 n, 16384) values, so the rule pools the same runs
as when all 40 were solved at once), n**2 for cut-off's ``eigh``
(``experiments._run_workers``).  Smaller runs go inline, one after
another.  A level's eigendecomposing fit (``estimator._solve_level``)
hands the pool one chunk of equal-size blocks per task, not one block:
each task is one stacked ``eigh`` and a few broadcast products.  Results
come back in submission order, so the worker count never changes any
output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# Fewest values the largest numpy call of one task must hold for tasks to
# go to the pool: runs of 4096 values lose on two threads, runs of 16384
# gain, and at 8192 the two are within run-to-run noise (nu-method
# sweep-alpha 0.64-0.70 s pooled against 0.62-0.63 s inline in two sets;
# Tikhonov sweep-n's assessment 0.80 against 0.83 s).
POOL_VALUES = 8192


def default_workers() -> int:
    """The usable CPUs: the process's affinity mask where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _checked(workers) -> int:
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def _pool_workers(workers, values: int) -> int:
    """Threads for tasks whose largest numpy call holds `values` values:
    `workers` (None: the usable CPUs, fewer than one is rejected) when
    `values` reaches `POOL_VALUES`, else 1."""
    workers = _checked(workers)
    return workers if values >= POOL_VALUES else 1


def parallel_map(fn, items, workers=None):
    """``[fn(item) for item in items]`` on up to `workers` threads (None:
    the usable CPUs); fewer than one worker is rejected."""
    items = list(items)
    workers = min(_checked(workers), len(items) or 1)
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
