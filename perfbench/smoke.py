#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 perfbench/smoke.py

Checks that every workload emits every metric BENCHMARK.json names, in
both modes, with its outputs judged correct; that the propensity count
is 8 per simulate replication; that the output checks reject a wrong
oracle value; and that the benchmark fails without printing a result
in a directory that has no tridiff sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {"large_n": 3_000, "boot_n": 1_000, "boot_reps": 49,
        "sim_n": 400, "sim_reps": 40}
SEED = 3


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            result, _ = run.run(workload, SEED, 0, bool(trace), TINY)
            names = set(result["metrics"])
            expect(names == wanted[trace],
                   f"{workload} trace={trace}: metrics differ from "
                   f"BENCHMARK.json: missing {sorted(wanted[trace] - names)}, "
                   f"extra {sorted(names - wanted[trace])}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: outputs judged wrong")
            if workload == "simulate" and trace:
                predicts = result["metrics"]["nuisance.propensity_predicts"]
                expect(predicts["value"] == 8 * TINY["sim_reps"],
                       f"simulate: {predicts['value']} propensity predictions "
                       f"for {TINY['sim_reps']} replications")

    # the checks must reject a wrong oracle value on real outputs
    from tridiff import DgpSpec, closed_form_oracle
    work = run.WORK / f"estimate-large-seed{SEED}-trace0"
    oracle = closed_form_oracle(DgpSpec(n=TINY["large_n"], seed=SEED,
                                        mu_b=run.GOOD_OVERLAP_MU_B))
    keys = ("dr", "naive")
    failures, _ = run.check_estimate(work / "out0", oracle, keys, 1)
    expect(not failures, f"estimate check fails on the true oracle: {failures}")
    wrong = dataclasses.replace(oracle, reweighted_diff=oracle.reweighted_diff + 1)
    failures, failed = run.check_estimate(work / "out0", wrong, keys, 1)
    expect(failures and failed == 1, "estimate check accepts a wrong oracle")

    work = run.WORK / f"simulate-seed{SEED}-trace0"
    oracle = closed_form_oracle(DgpSpec(n=TINY["sim_n"], seed=SEED))
    wrong = dataclasses.replace(oracle, naive_diff=oracle.naive_diff + 1)
    failures, failed = run.check_simulate(work / "out0", wrong, TINY["sim_reps"])
    expect(failures and failed == TINY["sim_reps"],
           "simulate check accepts a wrong oracle")

    # without the program's sources the benchmark must fail, printing nothing
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"benchmark without sources exited {proc.returncode} and printed "
           f"{proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
