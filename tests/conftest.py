import contextlib
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from splitkern import _parallel, kernels
from splitkern.kernels import user_kernel


@pytest.fixture
def dense_sobolev():
    """The built-in kernel's formula wrapped as a user kernel, so every
    Gram product goes through the dense operator: the reference for the
    structured one."""
    return user_kernel(lambda x, t: np.minimum(x, t) - x * t, kappa=0.5)


@pytest.fixture
def pool_starts(monkeypatch):
    """The sizes of the thread pools that `parallel_map` starts, in order."""
    starts = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", CountingPool)
    return starts


@pytest.fixture
def pooled(monkeypatch, pool_starts):
    """Every study's runs go to the thread pool, however small they are,
    so that tests at small n still cover the pooled path; returns
    `pool_starts`."""
    monkeypatch.setattr(_parallel, "POOL_VALUES", 1)
    return pool_starts


@pytest.fixture(scope="session")
def shift_chunks():
    """``shift_chunks(n)``: contexts in which shifted solves over n anchors
    run with ``kernels.SHIFT_CHUNK`` at its default, 1, 7 and 3n + 1, so
    that chunk boundaries fall anywhere among a solve's shifts.  Session
    scope: it holds no state, and Hypothesis runs each example inside."""
    def contexts(n):
        return [contextlib.nullcontext()] + [
            mock.patch.object(kernels, "SHIFT_CHUNK", value)
            for value in (1, 7, 3 * n + 1)]
    return contexts
