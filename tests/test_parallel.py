"""`_parallel.parallel_map`: the calling thread drains the items beside
its helper threads, results come back in item order, and the first
failure stops every thread from starting another item."""

import threading
import time

import pytest

from splitkern._parallel import parallel_map

TIMEOUT = 30.0      # seconds any one wait in these tests may take


def _square_after_a_pause(i):
    time.sleep(0.001 * ((7 - i) % 3))    # later items may finish first
    return i * i


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_results_come_back_in_item_order(pool_starts, workers, count):
    before = threading.active_count()
    items = list(range(count))
    assert parallel_map(_square_after_a_pause, items, workers) == [
        i * i for i in items]
    participants = min(workers, count)
    assert pool_starts == ([participants] if participants > 1 else [])
    assert threading.active_count() == before


@pytest.mark.parametrize("workers, count", [(2, 2), (2, 7), (5, 7), (5, 3)])
def test_the_calling_thread_runs_tasks(pool_starts, workers, count):
    # the first min(workers, count) items meet at a barrier, so each of
    # them runs on a different thread
    participants = min(workers, count)
    barrier = threading.Barrier(participants)
    threads = {}

    def task(i):
        if i < participants:
            barrier.wait(TIMEOUT)
        threads[i] = threading.get_ident()
        return i

    assert parallel_map(task, range(count), workers) == list(range(count))
    assert threading.get_ident() in threads.values()
    assert len(set(threads.values())) == participants
    assert pool_starts == [participants]


@pytest.mark.parametrize("on_caller", [True, False])
def test_a_failure_propagates_unchanged_and_stops_the_map(on_caller):
    # items 0 and 1 meet at a barrier, so one runs on the calling thread
    # and one on the helper; the one on the thread asked for raises at
    # once, the other finishes a moment later, once the failure is
    # recorded, and neither thread starts another item
    before = threading.active_count()
    caller = threading.get_ident()
    error = ValueError("a task fails")
    barrier = threading.Barrier(2)
    started = []

    def task(i):
        started.append(i)
        if i < 2:
            barrier.wait(TIMEOUT)
            if (threading.get_ident() == caller) == on_caller:
                raise error
        time.sleep(0.05)
        return i

    with pytest.raises(ValueError) as info:
        parallel_map(task, range(8), 2)
    assert info.value is error
    assert sorted(started) == [0, 1]
    assert threading.active_count() == before


def test_the_lowest_index_failure_is_raised():
    errors = [ValueError("first"), ValueError("second")]
    barrier = threading.Barrier(2)

    def task(i):
        barrier.wait(TIMEOUT)
        if i == 0:
            time.sleep(0.05)        # item 1 fails first
        raise errors[i]

    with pytest.raises(ValueError) as info:
        parallel_map(task, range(2), 2)
    assert info.value is errors[0]


def test_a_nested_map_completes():
    # every caller drains its own items, so a map inside a task cannot
    # wait on helpers that are all busy
    out = []

    def outer(i):
        return parallel_map(lambda j: i * 10 + j, range(3), 2)

    thread = threading.Thread(
        target=lambda: out.append(parallel_map(outer, range(4), 3)))
    thread.start()
    thread.join(TIMEOUT)
    assert not thread.is_alive()
    assert out == [[[i * 10 + j for j in range(3)] for i in range(4)]]


def test_fewer_than_one_worker_is_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        parallel_map(abs, range(3), 0)
