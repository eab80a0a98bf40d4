"""The ordered process-pool map behind the bootstrap and the Monte Carlo
harness: chunking, worker counts, the bootstrap's rounds and the n_jobs
contract. Worker counts for large n_jobs are checked on a stand-in pool,
so no test starts more than two processes."""

import concurrent.futures
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tridiff
import tridiff.cli as cli
import tridiff.parallel as parallel
from tridiff.dgp import DgpSpec, run_monte_carlo, simulate_sample
from tridiff.estimators import BootstrapConfig, bootstrap_replicates
from tridiff.parallel import default_jobs, map_ordered, worker_count

SRC = str(Path(tridiff.__file__).resolve().parent.parent)


def is_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


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
    # the initializer runs here, in the test process, whose allocator it
    # must leave alone
    monkeypatch.setattr(parallel, "_retain_freed_heap", lambda: True)
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


def mean_change(d):
    return float(d.delta_y().mean())


def test_a_bootstrap_round_maps_only_the_draws_it_needs(inline_pool):
    # far more jobs than draws: the round still maps its 40 draws, to
    # one worker each at most
    ds = simulate_sample(DgpSpec(n=100, seed=1))
    draws = bootstrap_replicates(ds, mean_change,
                                 BootstrapConfig(replications=40, seed=0),
                                 n_jobs=10 ** 6)
    assert len(draws) == 40
    assert [k for chunk in inline_pool.chunks[0] for k in chunk] == list(
        range(40))
    assert inline_pool.started[0] <= 40


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


# ---------------------------------------------------------------------------
# Freed heap kept resident in the CLI and the pool workers
# ---------------------------------------------------------------------------

def test_only_the_cli_and_pool_workers_keep_freed_heap(inline_pool,
                                                      monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(parallel, "_retain_freed_heap",
                        lambda: calls.append("worker") or True)
    monkeypatch.setattr(cli, "_retain_freed_heap",
                        lambda: calls.append("cli") or True)
    map_ordered(square, range(5), n_jobs=1)
    run_monte_carlo(DgpSpec(n=100, seed=1), 2, n_jobs=1)
    assert calls == []  # library calls leave the host's allocator alone
    map_ordered(square, range(5), n_jobs=2)
    assert calls == ["worker"]  # one initializer, one pool
    assert cli.main(["simulate", "--n", "100", "--replications", "2",
                     "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert calls == ["worker", "cli"]


class NoMallopt:
    """A C library handle without the mallopt symbol."""


class RefusingMallopt:
    """A C library handle whose mallopt rejects every setting."""

    @staticmethod
    def mallopt(param, value):
        return 0


def failing_loader(name):
    raise OSError("cannot load the C library")


@pytest.mark.parametrize("target, replacement", [
    ("ctypes.CDLL", failing_loader),
    ("ctypes.CDLL", lambda name: NoMallopt()),
    ("ctypes.CDLL", lambda name: RefusingMallopt()),
    ("os.confstr", lambda name: None),  # a C library that is not glibc
], ids=["no-loader", "no-symbol", "refused", "not-glibc"])
def test_heap_retention_without_mallopt_does_nothing(monkeypatch, target,
                                                     replacement):
    module, attr = target.split(".")
    monkeypatch.setattr(getattr(parallel, module), attr, replacement)
    assert parallel._retain_freed_heap() is False


def run_python(code):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_")}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.skipif(not is_glibc(), reason="mallopt is glibc's")
def test_retained_heap_stops_warm_draws_faulting_pages_in():
    # without the setting, glibc trims the heap top a draw's temporaries
    # free, and each warm n=5,000 draw faults about 280 pages back in
    proc = run_python("""
        import resource
        from tridiff.dgp import DgpSpec, simulate_sample
        from tridiff.estimators import (DR_METHODS, Method, _estimate_draw,
                                        refit_estimates)
        from tridiff.nuisance import fit_nuisances
        from tridiff.parallel import _retain_freed_heap

        print(_retain_freed_heap())
        ds = simulate_sample(DgpSpec(n=5000, seed=1, mu_b=1.5))
        refit = refit_estimates(fit_nuisances(ds), DR_METHODS + (
            Method.OR_DIFFERENCE, Method.OR_REWEIGHTED_DIFFERENCE))
        for counter in range(5):  # warm up
            _estimate_draw(ds, refit, 1, counter)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for counter in range(5, 25):
            _estimate_draw(ds, refit, 1, counter)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print((after - before) / 20)
        """)
    assert proc.returncode == 0, proc.stderr
    took_effect, faults_per_draw = proc.stdout.split()
    assert took_effect == "True"
    assert float(faults_per_draw) < 10
