"""Ordered process-pool map shared by the pairs bootstrap and the Monte
Carlo harness.

The work is one callable applied to each item of a list of small items
(bootstrap draw counters, replication numbers). The callable, and the
dataset or spec it carries, reach each worker once, through the pool
initializer; the items travel in contiguous chunks, and the results come
back in item order. Each result depends only on its item, so the output
is the same for every worker count. Each call starts its own workers.

tridiff's own processes, the CLI and these pool workers, also keep
their freed heap memory resident (_retain_freed_heap).
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import os
from typing import Callable, Sequence

CHUNKS_PER_WORKER = 8  # a worker that finishes early picks up another chunk

_task = None  # the callable a pool worker applies, set by _install

M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter number
# freed bytes at the heap top that glibc's malloc keeps before it returns
# them to the kernel; one bootstrap refit at n=5,000 frees about 1.1 MB
HEAP_TRIM_THRESHOLD = 64 << 20


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
    """[task(item) for item in items], computed by the worker_count
    workers this call starts and shuts down; n_jobs=1 runs in this
    process. The first failing item's exception is raised here; a task
    returns the failures it expects as values, as a bootstrap draw
    returns a redraw marker.
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


def _retain_freed_heap() -> bool:
    """Make glibc's malloc keep up to HEAP_TRIM_THRESHOLD bytes of freed
    heap top in this process; returns whether the setting took effect.

    By default malloc trims its heap top once a call's temporaries are
    freed, so the next bootstrap refit faults the same pages in again:
    about 280 minor faults in a warm n=5,000 draw. A 199-draw bootstrap
    at n=5,000 read 0.69 s, 1.01 s CPU and 17k faults with it, 0.74 s,
    1.11 s and 65k without (12 CLI pairs, faster in 10); an n=200,000
    estimate, 1.31 s with it and 1.16 s without (8 of 8 pairs). Only
    the CLI and map_ordered's workers call this; importing tridiff or
    calling the library leaves the host process's allocator alone.
    Elsewhere than glibc, or if mallopt is missing or refuses the value,
    it does nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1


def _install(task: Callable) -> None:
    global _task
    _task = task
    _retain_freed_heap()


def _run_chunk(chunk: list) -> list:
    return [_task(item) for item in chunk]
