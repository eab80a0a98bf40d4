#!/usr/bin/env python3
"""tridiff benchmark: runs the ``tridiff`` CLI as a user runs it, on
inputs generated from ``--seed``, checks its outputs, and prints the
metrics named in BENCHMARK.json as the last line of standard output.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 60 --trace 0

Run it from the repository root; the program is imported from ``src/``.
``--trace 0`` times fresh CLI processes, one at a time, and reports the
end-to-end metrics. ``--trace 1`` alternates an ordinary CLI run with a
traced replay of the same command (see ``tracing.py``) and reports the
per-layer metrics. WORKLOADS.md says why each workload
exists and which layer metric should move which end-to-end metric.

The line before the result holds the run's record: inputs with their
size and sha256, every command with its timings, the failed checks and
the environment. It is also written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# one BLAS thread per child: with more, the extra threads only compete
# for the same cores and the timings spread
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLI_CODE = "import sys; from tridiff.cli import main; sys.exit(main())"
SETUP_CODE = "import tridiff.cli"
SETUP_SPAWNS = 5
MIN_COMMANDS = 2
RUN_BUDGET_S = 170.0  # every child is killed past this, from start-up

SIZES = {"large_n": 200_000, "boot_n": 5_000, "boot_reps": 199,
         "sim_n": 2_000, "sim_reps": 300}
GOOD_OVERLAP_MU_B = 1.5
ORACLE_SES = 4.0
BOOT_RATIO_RANGE = (0.75, 1.33)



class BenchmarkError(Exception):
    """The run cannot produce a result: no sources to run, or no traced
    command completed."""


@dataclasses.dataclass
class Plan:
    """One workload's command and how to judge its output."""

    argv: list
    items: int            # work items per command
    inputs: list          # {"path", "bytes", "sha256"} per generated file
    check: Callable       # out_dir -> (failure messages, failed items)
    output: str           # result file compared byte for byte across runs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _write_panel(work: Path, n: int, seed: int):
    from tridiff import DgpSpec, closed_form_oracle, save_csv, simulate_sample
    spec = DgpSpec(n=n, seed=seed, mu_b=GOOD_OVERLAP_MU_B)
    path = work / f"panel_n{n}_seed{seed}.csv"
    schema = save_csv(simulate_sample(spec), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    record = {"path": path.name, "bytes": path.stat().st_size,
              "sha256": digest, "spec": spec.to_dict()}
    return path, json.dumps(dataclasses.asdict(schema)), record, \
        closed_form_oracle(spec)


def plan_estimate_large(work: Path, seed: int, sizes: dict) -> Plan:
    path, schema, record, oracle = _write_panel(work, sizes["large_n"], seed)
    argv = ["estimate", "--input", str(path), "--schema", schema,
            "--methods", "dr,naive,ols-tdid,or-diffs", "--se", "cluster",
            "--seed", str(seed)]
    keys = ("dr", "naive", "ols-tdid", "or-diff-ab", "or-diff-awb")
    return Plan(argv, sizes["large_n"], [record],
                lambda out: check_estimate(out, oracle, keys, sizes["large_n"]),
                "results.json")


def plan_estimate_bootstrap(work: Path, seed: int, sizes: dict) -> Plan:
    path, schema, record, oracle = _write_panel(work, sizes["boot_n"], seed)
    reps = sizes["boot_reps"]
    argv = ["estimate", "--input", str(path), "--schema", schema,
            "--methods", "dr,naive,ols-tdid,or-diffs", "--se", "cluster",
            "--bootstrap-reps", str(reps), "--seed", str(seed)]
    keys = ("dr", "naive", "ols-tdid", "or-diff-ab", "or-diff-awb")
    refits = reps * 3
    return Plan(argv, refits, [record],
                lambda out: check_estimate(out, oracle, keys, refits,
                                           bootstrap=True),
                "results.json")


def plan_simulate(work: Path, seed: int, sizes: dict) -> Plan:
    from tridiff import DgpSpec, closed_form_oracle
    # the command's default spec: mu_b=3, limited overlap, trim 0
    oracle = closed_form_oracle(DgpSpec(n=sizes["sim_n"], seed=seed))
    reps = sizes["sim_reps"]
    argv = ["simulate", "--n", str(sizes["sim_n"]), "--replications", str(reps),
            "--seed", str(seed), "--jobs", "1"]
    return Plan(argv, reps, [],
                lambda out: check_simulate(out, oracle, reps),
                "summary.json")


WORKLOADS = {
    "estimate-large": plan_estimate_large,
    "estimate-bootstrap": plan_estimate_bootstrap,
    "simulate": plan_simulate,
}


# ---------------------------------------------------------------------------
# Output checks: (failure messages, failed work items)
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_estimate(out: Path, oracle, keys, items, bootstrap=False):
    """dr and naive within ORACLE_SES analytic SEs of the closed-form
    values; with a bootstrap, each bootstrap SE within BOOT_RATIO_RANGE
    of its analytic SE. Any failure fails all of the command's items."""
    doc = json.loads((out / "results.json").read_text(encoding="utf-8"))
    results = doc["results"]
    failures = [f"{key}: missing or non-finite estimate" for key in keys
                if not _finite(results.get(key, {}).get("estimate"))]
    for key, truth in (("dr", oracle.reweighted_diff),
                       ("naive", oracle.naive_diff)):
        est, se = results[key]["estimate"], results[key]["se"]
        if not (_finite(se) and se > 0 and abs(est - truth) <= ORACLE_SES * se):
            failures.append(f"{key}: {est} is not within {ORACLE_SES} SE "
                            f"({se}) of the oracle {truth}")
    if bootstrap:
        lo, hi = BOOT_RATIO_RANGE
        for key in ("dr", "naive"):
            boot = doc.get("extras", {}).get(key, {}).get("bootstrap_se")
            ratio = boot / results[key]["se"] if _finite(boot) else math.nan
            if not lo <= ratio <= hi:
                failures.append(f"{key}: bootstrap/analytic SE {ratio} "
                                f"outside [{lo}, {hi}]")
        for key in ("or-diff-ab", "or-diff-awb"):
            se = results[key]["se"]
            if not (_finite(se) and se > 0):
                failures.append(f"{key}: bootstrap SE {se} not positive")
    return failures, items if failures else 0


def check_simulate(out: Path, oracle, reps):
    """Both Monte Carlo means within ORACLE_SES Monte Carlo standard
    errors of the closed form. Failed replications count one by one; a
    failed check fails all of them."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    n_failed = int(summary["n_failed"])
    ok = reps - n_failed
    failures = []
    if summary["replications"] != reps:
        failures.append(f"{summary['replications']} replications, "
                        f"expected {reps}")
    for key, truth in (("naive", oracle.naive_diff),
                       ("reweighted", oracle.reweighted_diff)):
        mean, sd = summary[key]["mean"], summary[key]["sd"]
        mc_se = sd / math.sqrt(ok) if ok > 0 else math.nan
        if not (_finite(mc_se) and abs(mean - truth) <= ORACLE_SES * mc_se):
            failures.append(f"{key}: Monte Carlo mean {mean} is not within "
                            f"{ORACLE_SES} MC SE ({mc_se}) of the oracle "
                            f"{truth}")
    return failures, reps if failures else n_failed


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, log: Path, deadline: float) -> dict:
    """Run one child to its exit; wall time from start to exit, peak RSS
    and CPU time from os.wait4. Killed at the run's deadline."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: never leave the child running
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


class Runner:
    """Runs one workload's commands and keeps the record of them."""

    def __init__(self, work: Path, plan: Plan, deadline: float):
        self.work = work
        self.plan = plan
        self.deadline = deadline
        self.commands = []
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self._reference = None  # bytes of the first run's result file

    def _judge(self, out: Path, result: dict) -> None:
        plan = self.plan
        self.attempted += plan.items
        if result["rc"] != 0:
            failures, failed = [f"exit code {result['rc']}"], plan.items
        else:
            try:
                failures, failed = plan.check(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures, failed = [f"unreadable output: {exc!r}"], plan.items
            if not failures:
                data = (out / plan.output).read_bytes()
                if self._reference is None:
                    self._reference = data
                elif data != self._reference:
                    failures, failed = [f"{plan.output} differs from the "
                                        "first run's"], plan.items
        self.failed += failed
        result["failed_items"] = failed
        self.failures.extend(f"run {len(self.commands)}: {msg}"
                             for msg in failures)

    def command(self) -> dict:
        k = len(self.commands)
        out = self.work / f"out{k}"
        result = spawn(["-c", CLI_CODE, *self.plan.argv, "--out", str(out)],
                       self.work / f"cli{k}.log", self.deadline)
        result["traced"] = False
        self._judge(out, result)
        self.commands.append(result)
        return result

    def traced(self) -> dict:
        k = len(self.commands)
        out = self.work / f"out{k}"
        spans = self.work / f"spans{k}.json"
        args = [str(HERE / "tracing.py"), "--spans", str(spans),
                "--run-id", f"{self.work.name}-{k}"]
        result = spawn([*args, "--", *self.plan.argv, "--out", str(out)],
                       self.work / f"traced{k}.log", self.deadline)
        result["traced"] = True
        self._judge(out, result)
        self.commands.append(result)
        if result["rc"] == 0:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            result["layers"] = tracing.summarize(doc)
            result["probe_s"] = tracing.probe_seconds(doc)
        return result


def measure_setup(log: Path, deadline: float) -> float:
    """Interpreter start plus ``import tridiff.cli``, in seconds."""
    result = spawn(["-c", SETUP_CODE], log, deadline)
    if result["rc"] != 0:
        raise BenchmarkError(f"importing tridiff.cli failed; see {log}")
    return result["wall_s"]


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "cpu_model": None, "openblas": None, "git_commit": None,
           "git_dirty": None, "child_env": THREAD_ENV}
    try:
        config = numpy.show_config(mode="dicts")
        env["openblas"] = config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=git_env, capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"],
                                    cwd=ROOT, env=git_env, capture_output=True,
                                    text=True, timeout=10)
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, setup_times: list) -> dict:
    runs = runner.commands
    setup = statistics.median(setup_times)
    rates = [(runner.plan.items - r["failed_items"]) / (r["wall_s"] - setup)
             for r in runs]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "items_per_s": statistics.median(rates),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_share": 1.0 - runner.failed / runner.attempted,
    }


def per_layer(runner: Runner) -> dict:
    """Median over (untraced, traced) pairs of each layer metric; counts
    come from the first pair, and differing counts fail the run."""
    pairs = [(runner.commands[k], runner.commands[k + 1])
             for k in range(0, len(runner.commands) - 1, 2)]
    rows = []
    for plain, traced in pairs:
        if "layers" not in traced:
            continue
        row = dict(traced["layers"])
        row["trace.overhead_s"] = (traced["wall_s"] - traced["probe_s"]
                                   - plain["wall_s"])
        row["proc.cpu_s"] = plain["cpu_s"]
        rows.append(row)
    if not rows:
        raise BenchmarkError("no traced command completed")
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    # counts must repeat exactly between identical commands
    for name in tracing.COUNT_METRICS:
        values = sorted({row[name] for row in rows})
        if len(values) > 1:
            runner.failures.append(f"{name} differs between commands: "
                                   f"{values}")
        metrics[name] = rows[0][name]
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict = SIZES) -> tuple:
    """Generate inputs, run the workload for about `seconds`, check every
    output. Returns (result line, record)."""
    if not (SRC / "tridiff" / "cli.py").is_file():
        raise BenchmarkError(f"no tridiff sources under {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tridiff
    if Path(tridiff.__file__).resolve().parent != (SRC / "tridiff").resolve():
        raise BenchmarkError(f"imported tridiff from {tridiff.__file__}, "
                         f"not from {SRC}")

    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen_start = time.perf_counter()
    plan = WORKLOADS[workload](work, seed, sizes)
    gen_s = time.perf_counter() - gen_start
    try:
        runner = Runner(work, plan, deadline)
        setup_times = []
        # warm-up: fills the bytecode cache
        measure_setup(work / "setup-warm.log", deadline)
        # closed loop, one command at a time; stop before a command that
        # would end past `seconds`, once the minimum has run. A set-up
        # sample precedes each timed command, so both see the same load.
        start = time.perf_counter()
        last = 0.0
        while time.monotonic() < deadline:
            elapsed = time.perf_counter() - start
            if (len(runner.commands) >= MIN_COMMANDS
                    and elapsed + last > seconds):
                break
            t0 = time.perf_counter()
            if trace:
                runner.command()
                runner.traced()
            else:
                setup_times.append(measure_setup(
                    work / f"setup{len(setup_times)}.log", deadline))
                runner.command()
            last = time.perf_counter() - t0
        while not trace and len(setup_times) < SETUP_SPAWNS:
            setup_times.append(measure_setup(
                work / f"setup{len(setup_times)}.log", deadline))
        metrics = per_layer(runner) if trace else end_to_end(runner,
                                                             setup_times)
    finally:
        for record in plan.inputs:
            (work / record["path"]).unlink(missing_ok=True)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": sizes, "argv": plan.argv,
        "inputs": plan.inputs, "input_generation_s": gen_s,
        "setup_s": setup_times,
        "commands": [{k: v for k, v in c.items() if k != "layers"}
                     for c in runner.commands],
        "failures": runner.failures, "environment": environment(),
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    # a terminated run unwinds, so spawn() stops its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, record = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
