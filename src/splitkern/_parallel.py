"""Bounded, order-preserving task mapping for Monte-Carlo runs and the
chunks of a partition level's block fits.

:func:`parallel_map` runs its tasks on the calling thread and on up to
``workers - 1`` helper threads, started for the call and joined before
it returns; each takes the next item from one shared list.  So `workers`
bounds every thread that runs a task, and a map inside a task cannot
deadlock: its caller drains its own items.  Results come back in item
order, so the worker count never changes any output.

Threads share the GIL, so a task pays on a second thread only while its
numpy calls release it.  Dense LAPACK and BLAS calls (``eigh``, Gram
products) release it for their whole run.  The O(n) paths of the built-in
kernel are many short numpy calls, each of which releases it only for its
inner loop, and two threads then spend their time handing the GIL over.
Measured on a 2-core x86-64 machine (numpy 2.4, one BLAS thread), two
threads each stepping one level's ``level_matvec`` reach 0.61-0.74x the
serial throughput at n = 1024, 0.73-0.76x at 4096, 0.92-0.95x at 16384
and 0.98-1.11x at 65536.  Whole studies on two workers, pooled against
inline (medians of fresh processes, 10 runs unless stated):

- nu-method ``sweep-alpha`` (``--k-max 64``, three alphas): n = 4096
  (4 runs) 0.084 s against 0.065 s, 8192 0.22 against 0.19 s (0 of 10
  alternating pairs faster pooled), 16384 0.58 against 0.66 s (9 of 10);
- Tikhonov ``oracle`` (30 runs, 10 alternating pairs): n = 16384 1.55
  against 1.64 s and 32768 2.43 against 2.50 s, faster pooled in 8 and
  7 of 10 pairs for 40% more CPU time; with OpenBLAS's default threads
  inline wins 8 of 10 pairs at each n (2.22 against 1.86 s and 2.97
  against 2.66 s);
- Tikhonov ``sweep-n`` (n = 4096 to 32768, four alphas, 30 runs, 6
  pairs): 5.96 against 6.51 s, for 26% more CPU time;
- cut-off ``oracle``: n = 256 0.068 against 0.105 s.

So a study's Monte-Carlo runs go to the threads only when one run's
largest numpy call holds at least `POOL_VALUES` values
(:func:`_pool_workers`): n for an iterative filter's level vector, n**2
for cut-off's ``eigh`` (``experiments._run_workers``).  Tikhonov's runs
count as one value: its shifted solve is one cyclic reduction of
O(log n) short numpy calls per chunk of shifts, at any n, and a second
thread buys it at most 8% of the wall time for 26-40% more CPU time.
Smaller runs go inline, one after another.  A level's eigendecomposing
fit (``estimator._solve_level``) hands the threads one chunk of
equal-size blocks per task, not one block: each task is one stacked
``eigh`` and a few broadcast products.
"""

from __future__ import annotations

import os
from threading import Lock, Thread

# Fewest values the largest numpy call of one task must hold for tasks to
# go to the threads: the nu-method's runs of 8192 values lose on two
# threads (0.22 against 0.19 s) and its runs of 16384 gain (0.58 against
# 0.66 s, above).
POOL_VALUES = 16384


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
    the usable CPUs); fewer than one worker is rejected.

    The calling thread and ``min(workers, len(items)) - 1`` helper threads,
    started here and joined before the return, take items in order from
    one shared list.  Once a task raises, no thread starts another item,
    and the exception of the lowest-index failing item is re-raised."""
    items = list(items)
    workers = min(_checked(workers), len(items) or 1)
    results = [None] * len(items)
    failures = {}
    pending = iter(range(len(items)))
    lock = Lock()

    def drain():
        while True:
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:    # re-raised by the caller below
                with lock:
                    failures[i] = exc

    helpers = [Thread(target=drain) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results
