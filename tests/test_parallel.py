"""The ordered process-pool map behind the bootstrap and the Monte Carlo
harness: chunking, worker counts and the n_jobs contract. Worker counts
for large n_jobs are checked on a stand-in pool, so no test starts more
than two processes."""

import concurrent.futures
import os

import pytest

import tridiff.parallel as parallel
from tridiff.dgp import DgpSpec, run_monte_carlo
from tridiff.parallel import default_jobs, map_ordered, worker_count


def square(k):
    return k * k


class InlinePool:
    """Stand-in for ProcessPoolExecutor that records max_workers and the
    chunks it is sent, and runs the initializer and the chunks in this
    process."""

    started = []
    chunks = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        self.chunks.append(chunks)
        return [fn(chunk) for chunk in chunks]


@pytest.fixture
def inline_pool(monkeypatch):
    InlinePool.started = []
    InlinePool.chunks = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return InlinePool


def test_no_more_workers_than_jobs_or_items():
    assert worker_count(199, 2) == 2
    assert worker_count(300, 7) == 7
    assert worker_count(3, 500) == 3
    assert worker_count(10, 10 ** 6) == 10
    # one job or one item runs in this process
    assert worker_count(199, 1) == 0
    assert worker_count(1, 64) == 0
    assert worker_count(0, 4) == 0


@pytest.mark.parametrize("n_items, n_jobs", [
    (2, 2), (5, 2), (199, 2), (300, 7), (3, 500), (10, 10 ** 6)])
def test_items_go_out_in_contiguous_chunks(inline_pool, n_items, n_jobs):
    assert map_ordered(square, range(n_items), n_jobs) == [
        k * k for k in range(n_items)]
    workers = worker_count(n_items, n_jobs)
    assert inline_pool.started == [workers]
    (chunks,) = inline_pool.chunks
    assert [k for chunk in chunks for k in chunk] == list(range(n_items))
    sizes = [len(chunk) for chunk in chunks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert len(chunks) == min(n_items,
                              parallel.CHUNKS_PER_WORKER * workers)


def test_serial_runs_start_no_pool(inline_pool):
    assert map_ordered(square, range(5), n_jobs=1) == [0, 1, 4, 9, 16]
    assert map_ordered(square, [7], n_jobs=4) == [49]
    assert map_ordered(square, [], n_jobs=4) == []
    assert inline_pool.started == []


def test_worker_processes_return_results_in_item_order():
    assert map_ordered(square, range(23), n_jobs=2) == [
        k * k for k in range(23)]


@pytest.mark.parametrize("n_jobs", [0, -3])
def test_jobs_below_one_are_rejected(n_jobs):
    with pytest.raises(ValueError, match="≥ 1"):
        map_ordered(square, range(4), n_jobs)
    with pytest.raises(ValueError, match="≥ 1"):
        run_monte_carlo(DgpSpec(n=100, seed=1), 2, n_jobs=n_jobs)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity masks on this platform")
def test_default_jobs_is_the_usable_core_count():
    assert default_jobs() == len(os.sched_getaffinity(0))
