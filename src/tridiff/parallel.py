"""Ordered process-pool map shared by the pairs bootstrap and the Monte
Carlo harness.

The work is one callable applied to each item of a list of small items
(bootstrap draw counters, replication numbers). The callable, and the
dataset or spec it carries, reach each worker once, through the pool
initializer; the items travel in contiguous chunks, and the results come
back in item order. Each result depends only on its item, so the output
is the same for every worker count.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Sequence

CHUNKS_PER_WORKER = 8  # a worker that finishes early picks up another chunk

_task = None  # the callable a pool worker applies, set by _install


def default_jobs() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def worker_count(n_items: int, n_jobs: int) -> int:
    """Worker processes map_ordered starts for n_items: no more than the
    jobs asked for or the items, and none for a single job or item,
    which runs in this process."""
    workers = min(n_jobs, n_items)
    return workers if workers > 1 else 0


def map_ordered(task: Callable, items: Sequence, n_jobs: int = 1) -> list:
    """[task(item) for item in items], computed by up to n_jobs worker
    processes; n_jobs=1 runs in this process.

    Workers start by the platform's default method. On Linux up to
    Python 3.13 that is fork: a worker shares the modules and data
    already loaded, where a spawned one imports numpy and tridiff
    first, which costs about as much as the refits of a 199-draw
    bootstrap at n=5000 that it takes over. Under spawn the task must
    be picklable."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be ≥ 1, got {n_jobs}")
    items = list(items)
    workers = worker_count(len(items), n_jobs)
    if not workers:
        return [task(item) for item in items]
    # contiguous chunks, CHUNKS_PER_WORKER per worker or one item each
    n_chunks = min(len(items), CHUNKS_PER_WORKER * workers)
    bounds = [len(items) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_install,
            initargs=(task,)) as pool:
        return [result for chunk in pool.map(_run_chunk, chunks)
                for result in chunk]


def _install(task: Callable) -> None:
    global _task
    _task = task


def _run_chunk(chunk: list) -> list:
    return [_task(item) for item in chunk]
