from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitkern import _parallel
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
