import contextlib
import threading
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
    """The threads that run the tasks of each `parallel_map` call that
    starts helper threads (its helpers and the calling thread), in order."""
    starts = []
    calls = {}          # a call's shared drain loop -> its index in starts

    class CountingThread(threading.Thread):
        def __init__(self, target):
            if target not in calls:
                calls[target] = len(starts)
                starts.append(1)
            starts[calls[target]] += 1
            super().__init__(target=target)

    monkeypatch.setattr(_parallel, "Thread", CountingThread)
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
