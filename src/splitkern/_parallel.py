"""Bounded, order-preserving task mapping for Monte-Carlo runs and the
chunks of a partition level's block fits.

Threads share the GIL.  Dense LAPACK and BLAS calls (``eigh``, Gram
products) release it for their whole run.  The O(n) paths of the built-in
kernel are many short numpy calls, which hold it for their per-call
overhead, so they fit a whole level at once on the calling thread.  A
level's eigendecomposing fit (``distributed._solve_blocks``) hands the
pool one chunk of equal-size blocks per task, not one block: each task is
one stacked ``eigh`` and a few broadcast products, where a task per block
of a few dozen points spent its time in numpy's per-call overhead and ran
slower on two threads than on one.  Results come back in submission
order, so the worker count never changes any output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def default_workers() -> int:
    return os.cpu_count() or 1


def parallel_map(fn, items, workers=None):
    """``[fn(item) for item in items]`` on up to `workers` threads (None:
    the CPU count); fewer than one worker is rejected."""
    items = list(items)
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(items) or 1)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
