"""Golden result files of the tridiff CLI, and the report of how a
regeneration moved them.

Each case runs one CLI command in this process, with ``--jobs 1`` where
the command takes it, on inputs built from fixed seeds at small n. Its result files, and what
it printed on standard output, go under ``tests/golden/<case>/``; every
case's exit code goes to ``tests/golden/exit_codes.json``.
``config_echo.json`` is left out: it records ``--out``.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites the set and prints what moved against the files it replaced:
each file that changed, appeared or went, the largest relative change
of each numeric field that moved in a changed JSON or CSV file, and the
count of byte-identical files. The tier-1 test ``tests/test_golden.py``
regenerates the set in a temporary directory and requires the same
bytes. A change that moves these files on purpose regenerates them and
quotes the report.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXIT_CODES = "exit_codes.json"
SKIPPED = ("config_echo.json",)

SCHEMA = json.dumps({
    "group": "group", "group_a_value": "a",
    "eligibility": "eligibility", "eligible_value": "2",
    "id": "id", "y1": "y1", "y2": "y2", "covariates": ["x"],
})


def _inputs(work: Path) -> dict:
    """The cases' input files, written into `work`: a simulated panel
    and tests/test_cli.py's synthetic wage survey, whole and with every
    store in the eligible state."""
    if str(HERE.parent) not in sys.path:
        sys.path.insert(0, str(HERE.parent))
    from test_cli import wage_rows, write_rows
    from tridiff.data import save_csv
    from tridiff.dgp import DgpSpec, simulate_sample

    panel = work / "panel.csv"
    save_csv(simulate_sample(DgpSpec(n=160, seed=3)), panel)
    rows = wage_rows()
    rows[3]["EMPFT"] = ""  # one row dropped for missingness
    one_state = wage_rows(n=60)
    for row in one_state:
        row["STATE"] = 1
    return {"panel": panel,
            "wage": write_rows(work / "wage.csv", rows),
            "one_state": write_rows(work / "one_state.csv", one_state)}


def _cases(inputs: dict) -> dict:
    """Arguments by case name, --out and --jobs aside."""
    estimate = ["estimate", "--input", inputs["panel"], "--schema", SCHEMA]
    return {
        "estimate": estimate + [
            "--methods", ",".join((
                "dr", "naive", "ols-did-a", "ols-did-b", "ols-tdid",
                "or-did-a", "or-did-b", "or-wdid-b", "or-diffs")),
            "--trim", "0", "--dump-scores", "--dump-nuisances"],
        "estimate-bootstrap": estimate + [
            "--methods", "dr,naive,ols-tdid,or-diffs", "--se", "cluster",
            "--trim", "0", "--bootstrap-reps", "20", "--seed", "5"],
        "estimate-bias-normalized": estimate + [
            "--methods", "dr,bias,or-did-a", "--mechanism", "only-a",
            "--normalize-weights", "--se", "classical", "--trim", "0",
            "--bootstrap-reps", "12", "--seed", "2", "--dump-nuisances"],
        "replicate": ["replicate", "--input", inputs["wage"],
                      "--bootstrap-reps", "15", "--seed", "2"],
        "simulate": ["simulate", "--n", "300", "--replications", "25",
                     "--seed", "11", "--bins", "8"],
        "simulate-constant-only-a": [
            "simulate", "--n", "300", "--replications", "20", "--seed", "11",
            "--bins", "6", "--case", "constant", "--mechanism", "only-a",
            "--normalize-weights"],
        "validate": ["validate", "--input", inputs["panel"],
                     "--schema", SCHEMA],
        "error-trimming": estimate + ["--methods", "dr", "--trim", "0.4"],
        "error-empty-cell": ["replicate", "--input", inputs["one_state"],
                             "--bootstrap-reps", "5"],
    }


def generate(dest: Path) -> None:
    """Run every case and write the golden set into `dest`."""
    from tridiff.cli import main

    dest.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, args in _cases(_inputs(work)).items():
            out = work / name
            jobs = [] if args[0] == "validate" else ["--jobs", "1"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes[name] = main([str(a) for a in args]
                                   + jobs + ["--out", str(out)])
            case = dest / name
            case.mkdir()
            (case / "stdout.txt").write_text(stdout.getvalue(),
                                             encoding="utf-8")
            for path in sorted(out.iterdir()):
                if path.name not in SKIPPED:
                    shutil.copyfile(path, case / path.name)
    (dest / EXIT_CODES).write_text(json.dumps(codes, indent=2) + "\n",
                                   encoding="utf-8")


def golden_files(root: Path) -> dict:
    """The set's files under `root`, by path relative to it: the exit
    codes and each case directory's files."""
    files = {}
    if (root / EXIT_CODES).exists():
        files[EXIT_CODES] = root / EXIT_CODES
    for case in sorted(root.iterdir()):
        if case.is_dir() and case.name != "__pycache__":
            for path in sorted(case.iterdir()):
                files[f"{case.name}/{path.name}"] = path
    return files


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _number(value):
    """value as a float, or None where it is not a number."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _fields(path: Path) -> dict:
    """Numeric values of a JSON or CSV file by field, in file order: a
    JSON field is its key path with list positions as [], a CSV field
    its column, qualified by its first column's value when that is not
    numeric (a histogram's estimator label)."""
    fields = {}
    if path.suffix == ".json":
        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(node, list):
                for v in node:
                    walk(v, f"{key}[]")
            elif _number(node) is not None:
                fields.setdefault(key, []).append(_number(node))
        walk(json.loads(path.read_text(encoding="utf-8")), "")
    elif path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                first = next(iter(row.values()))
                tag = f"[{first}]" if _number(first) is None else ""
                for column, value in row.items():
                    if _number(value) is not None:
                        fields.setdefault(column + tag, []).append(
                            _number(value))
    return fields


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def report(old_root: Path, new_root: Path) -> list:
    """Lines of what moved: one per file that changed, appeared or went,
    and under a changed JSON or CSV file one per numeric field that
    moved, with its largest relative change; then one line counting the
    byte-identical files."""
    old, new = golden_files(old_root), golden_files(new_root)
    lines, identical = [], 0
    for rel in sorted(set(old) | set(new)):
        if rel not in old or rel not in new:
            lines.append(f"{rel}: {'added' if rel not in old else 'removed'}")
            continue
        if old[rel].read_bytes() == new[rel].read_bytes():
            identical += 1
            continue
        lines.append(f"{rel}: changed")
        if old[rel].suffix not in (".json", ".csv"):
            continue
        before, after = _fields(old[rel]), _fields(new[rel])
        for field in dict.fromkeys([*before, *after]):
            a, b = before.get(field, []), after.get(field, [])
            if len(a) != len(b):
                lines.append(f"{rel} {field}: {len(a)} values -> {len(b)}")
                continue
            worst = max((_relative_change(x, y) for x, y in zip(a, b)),
                        default=0.0)
            if worst:
                lines.append(f"{rel} {field}: {worst:.3g}")
    lines.append(f"{identical} file(s) byte-identical")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        generate(fresh)
        for line in report(HERE, fresh):
            print(line)
        (HERE / EXIT_CODES).unlink(missing_ok=True)
        for child in HERE.iterdir():
            if child.is_dir() and child.name != "__pycache__":
                shutil.rmtree(child)
        shutil.copytree(fresh, HERE, dirs_exist_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
