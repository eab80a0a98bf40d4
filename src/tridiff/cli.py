"""Command line driver: reproducible estimation, simulation,
replication, and validation runs.

Every command resolves its configuration (command line beats config
file beats defaults), writes a config echo next to its outputs so the
run can be repeated bit-for-bit, and emits machine-readable JSON plus
an aligned text rendering. Failures map to exit codes by family:
2 ingestion, 3 nuisance fitting, 4 overlap/trimming, 5 estimation,
6 input/output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .data import (AssignmentMechanism, Group, MissingPolicy,
                   REPLICATION_FORMAT, Schema, load_csv, load_replication_csv,
                   validate)
from .dgp import (DgpSpec, EffectCase, closed_form_oracle, export_histogram,
                  run_monte_carlo)
from .estimators import (OR_METHODS, BootstrapConfig, EstimateResult, Method,
                         SeKind, bias_diagnostic, bootstrap_ses,
                         estimate_doubly_robust, ols_did, ols_tdid,
                         refit_estimates)
from .exceptions import (EstimationError, FittingError, IngestionError,
                         SchemaError, TridiffError, TrimmingError)
from .nuisance import (DEFAULT_TRIM_EPSILON, NuisanceMode, fit_nuisances)
from .parallel import _retain_freed_heap, default_jobs
from .scores import FitEvaluation, ScoreKind, dump_scores

EXIT_OK = 0
EXIT_INGESTION = 2
EXIT_NUISANCE = 3
EXIT_TRIMMING = 4
EXIT_ESTIMATION = 5
EXIT_IO = 6

POINT_TOLERANCE = 0.01
SE_RELATIVE_TOLERANCE = 0.15
EXPECTED_REPLICATION_ROWS = 695

# published estimates for the minimum-wage application, keyed by
# (block, with_controls) then quantity: (point, se)
REFERENCE_TABLE = {
    ("ols", False): {"did_a": (2.84, 2.38), "did_b": (1.49, 2.67),
                     "diff_ab": (1.35, 3.57)},
    ("ols", True): {"did_a": (3.08, 2.04), "did_b": (1.52, 2.27),
                    "diff_ab": (1.56, 3.05)},
    ("or", False): {"did_a": (2.72, 2.60), "did_b": (1.47, 2.76),
                    "diff_ab": (1.25, 3.66)},
    ("or", True): {"did_a": (3.76, 3.37), "did_b": (-1.67, 4.40),
                   "wdid_b": (-0.47, 3.52), "diff_ab": (5.42, 5.51),
                   "diff_awb": (4.23, 4.86)},
}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, TrimmingError):
        return EXIT_TRIMMING
    if isinstance(exc, IngestionError):
        return EXIT_INGESTION
    if isinstance(exc, FittingError):
        return EXIT_NUISANCE
    if isinstance(exc, (EstimationError, TridiffError)):
        return EXIT_ESTIMATION
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, ValueError):
        return EXIT_INGESTION
    return EXIT_ESTIMATION


# ---------------------------------------------------------------------------
# Small output helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_table(headers, rows) -> str:
    """Aligned fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value, digits=4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


def _result_row(name: str, result: EstimateResult):
    return [name, _fmt(result.estimate), _fmt(result.se),
            result.estimand_label.value, result.n]


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------

def _apply_config_file(ns: argparse.Namespace) -> None:
    """Fill unset options from --config; command-line values win."""
    if getattr(ns, "config", None) is None:
        return
    with open(ns.config, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise SchemaError("config file must hold a JSON object")
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if not hasattr(ns, attr):
            raise SchemaError(f"unknown config key {key!r}")
        if getattr(ns, attr) is None:
            setattr(ns, attr, value)


def _fill(ns: argparse.Namespace, **defaults) -> None:
    for attr, value in defaults.items():
        if getattr(ns, attr, None) is None:
            setattr(ns, attr, value)


def _parse_schema_arg(raw) -> dict:
    """--schema takes inline JSON or a path to a JSON file."""
    if isinstance(raw, dict):
        return raw
    text = raw.strip()
    if not text.startswith("{"):
        with open(raw, encoding="utf-8") as fh:
            text = fh.read()
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema is not valid JSON: {exc}") from None
    if not isinstance(mapping, dict):
        raise SchemaError("schema JSON must be an object of column mappings")
    return mapping


def _jobs(ns) -> int:
    """--jobs, by default the cores this process may use; at least 1."""
    _fill(ns, jobs=default_jobs())
    ns.jobs = int(ns.jobs)
    if ns.jobs < 1:
        raise ValueError(f"--jobs must be ≥ 1, got {ns.jobs}")
    return ns.jobs


def _trim(ns) -> float:
    trim = float(ns.trim)
    if not 0.0 <= trim < 1.0:  # NaN fails too; checked for every method set
        raise ValueError(f"trim_epsilon must be in [0, 1), got {trim}")
    return trim


def _mechanism(ns) -> AssignmentMechanism:
    return AssignmentMechanism(ns.mechanism)


def _out_dir(ns) -> Path:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    stale = out / "error.json"
    if stale.exists():
        stale.unlink()
    return out


def _echo_config(ns, out: Path, command: str) -> dict:
    echo = {"command": command}
    skip = {"config", "func"}
    for key, value in sorted(vars(ns).items()):
        if key in skip or callable(value):
            continue
        echo[key] = value
    _write_json(out / "config_echo.json", echo)
    return echo


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

METHOD_CHOICES = ("dr", "naive", "bias", "ols-did-a", "ols-did-b", "ols-tdid",
                  "or-did-a", "or-did-b", "or-wdid-b", "or-diffs")
# estimate_doubly_robust's methods by result key: dr, naive and or-*
SCORE_METHODS = {"dr": Method.DR_REWEIGHTED,
                 "naive": Method.DR_NAIVE_DIFFERENCE,
                 "or-did-a": Method.OR_DID_A, "or-did-b": Method.OR_DID_B,
                 "or-wdid-b": Method.OR_WDID_B,
                 "or-diff-ab": Method.OR_DIFFERENCE,
                 "or-diff-awb": Method.OR_REWEIGHTED_DIFFERENCE}


def _parse_methods(raw: str) -> list:
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHOD_CHOICES]
    if bad:
        raise ValueError(f"unknown method(s) {bad}; choose from "
                         f"{', '.join(METHOD_CHOICES)}")
    if not methods:
        raise ValueError("empty method list")
    return methods


def cmd_estimate(ns: argparse.Namespace) -> int:
    _fill(ns, schema=None, mechanism="both", methods="dr,naive",
          trim=DEFAULT_TRIM_EPSILON, normalize_weights=False,
          bootstrap_reps=0, seed=0, out="tridiff-out", se="hc1",
          missing_policy="drop_row", dump_scores=False, dump_nuisances=False)
    jobs = _jobs(ns)
    if ns.input is None:
        raise SchemaError("estimate needs --input CSV")
    if ns.schema is None:
        raise SchemaError("estimate needs --schema (JSON mapping or file)")

    reps = int(ns.bootstrap_reps)
    boot = BootstrapConfig(replications=reps, seed=int(ns.seed)) if reps else None
    trim = _trim(ns)

    schema = Schema.from_dict(_parse_schema_arg(ns.schema))
    dataset = load_csv(ns.input, schema, _mechanism(ns),
                       MissingPolicy(ns.missing_policy))
    methods = _parse_methods(ns.methods)
    out = _out_dir(ns)
    _echo_config(ns, out, "estimate")

    normalize = bool(ns.normalize_weights)
    se_kind = SeKind(ns.se)

    keys = [key for method in methods for key in (
        ("or-diff-ab", "or-diff-awb") if method == "or-diffs" else (method,))]
    score_keys = {key: SCORE_METHODS[key] for key in keys
                  if key in SCORE_METHODS}
    need_logit = bool({"dr", "naive", "bias"} & set(methods))
    nuis = None
    if score_keys or need_logit:
        # OR-only runs fit no logit, which could fail on separation
        nuis = fit_nuisances(
            dataset, NuisanceMode.SCORE_SET if need_logit
            else NuisanceMode.OUTCOME_ONLY,
            trim_epsilon=trim, normalize=normalize)

    # every score method, the bias diagnostic and the score dump come from
    # one evaluation of the fit and, with a bootstrap, every score method
    # from one refit per resample; a bootstrap SE is the se of an OR
    # result, which has no analytic one, and an extra otherwise
    ev = FitEvaluation(dataset, nuis) if nuis is not None else None
    score_methods = tuple(score_keys.values())
    results = (dict(zip(score_keys, estimate_doubly_robust(
        dataset, nuis, score_methods, ev=ev))) if score_keys else {})
    extras = {}
    if score_keys and boot is not None:
        for key, se in zip(score_keys, bootstrap_ses(dataset, refit_estimates(
                nuis, score_methods), boot, jobs)):
            if results[key].se is None:
                results[key] = dataclasses.replace(results[key], se=se)
            else:
                extras[key] = {"bootstrap_se": se}
    for method in methods:
        if method == "bias":
            bias_hat, bias_se = bias_diagnostic(dataset, nuis, ev=ev)
            extras["bias"] = {"bias_hat": bias_hat, "se": bias_se}
        elif method == "ols-did-a":
            results[method] = ols_did(dataset, Group.A, bool(dataset.d), se_kind)
        elif method == "ols-did-b":
            results[method] = ols_did(dataset, Group.B, bool(dataset.d), se_kind)
        elif method == "ols-tdid":
            results[method] = ols_tdid(dataset, bool(dataset.d), se_kind)

    payload = {
        "n": dataset.n,
        "n_dropped": dataset.n_dropped,
        "mechanism": dataset.mechanism.value,
        "results": {key: res.to_dict() for key, res in sorted(results.items())},
    }
    for key, doc in extras.items():
        payload.setdefault("extras", {})[key] = {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in doc.items()}
    _write_json(out / "results.json", payload)

    if ns.dump_scores and nuis is not None and nuis.propensity is not None:
        dump_scores(ev, list(ScoreKind), out / "scores.csv")
    if ns.dump_nuisances and nuis is not None:
        nuis.save_json(out / "nuisances_scores.json")

    rows = [_result_row(key, res) for key, res in sorted(results.items())]
    for key, doc in sorted(extras.items()):
        if key == "bias":
            rows.append(["bias-diagnostic", _fmt(doc["bias_hat"]),
                         _fmt(doc["se"]), "trend-gap difference", dataset.n])
    table = _format_table(["method", "estimate", "se", "estimand", "n"], rows)
    text = table + "\n"
    with open(out / "results.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(ns: argparse.Namespace) -> int:
    _fill(ns, n=2000, replications=2000, case="heterogeneous", mu_a=1.0,
          mu_b=3.0, mechanism="both", seed=7, bins=50, trim=0.0,
          normalize_weights=False, out="tridiff-sim")
    jobs = _jobs(ns)
    if int(ns.bins) < 1:  # checked before any replication runs
        raise ValueError(f"--bins must be ≥ 1, got {ns.bins}")
    if int(ns.replications) < 1:
        raise ValueError("replications must be ≥ 1")
    spec = DgpSpec(n=int(ns.n), seed=int(ns.seed), mu_a=float(ns.mu_a),
                   mu_b=float(ns.mu_b), effect_case=EffectCase(ns.case),
                   mechanism=_mechanism(ns))
    fit_options = {"trim_epsilon": _trim(ns),
                   "normalize": bool(ns.normalize_weights)}
    out = _out_dir(ns)
    _echo_config(ns, out, "simulate")

    result = run_monte_carlo(spec, int(ns.replications), fit_options,
                             n_jobs=jobs)
    oracle = closed_form_oracle(spec)
    summary = result.summary()
    summary["oracle"] = oracle.to_dict()
    _write_json(out / "summary.json", summary)
    export_histogram(result, out / "histogram.csv", bins=int(ns.bins))

    rows = [
        ["naive difference", _fmt(summary["naive"]["mean"]),
         _fmt(summary["naive"]["sd"]), _fmt(oracle.naive_diff)],
        ["reweighted difference", _fmt(summary["reweighted"]["mean"]),
         _fmt(summary["reweighted"]["sd"]), _fmt(oracle.reweighted_diff)],
    ]
    print(_format_table(["estimator", "mean", "sd", "closed form"], rows))
    print(f"replications: {result.replications}  failed: {result.n_failed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------

# reference-table names of the OR_METHODS, in their order
OR_QUANTITIES = ("did_a", "did_b", "wdid_b", "diff_ab", "diff_awb")


def cmd_replicate(ns: argparse.Namespace) -> int:
    _fill(ns, schema=None, bootstrap_reps=999, seed=0, out="tridiff-replication",
          se="hc1")
    jobs = _jobs(ns)
    if ns.input is None:
        raise SchemaError("replicate needs --input pointing at the "
                          "minimum-wage CSV (not distributed with this "
                          f"package); {REPLICATION_FORMAT}")
    overrides = _parse_schema_arg(ns.schema) if ns.schema else None
    dataset = load_replication_csv(ns.input, overrides)
    out = _out_dir(ns)
    _echo_config(ns, out, "replicate")

    warnings = []
    if dataset.n != EXPECTED_REPLICATION_ROWS:
        warnings.append(f"sample size {dataset.n} differs from the expected "
                        f"{EXPECTED_REPLICATION_ROWS} after drops")

    se_kind = SeKind(ns.se)
    boot = BootstrapConfig(replications=int(ns.bootstrap_reps),
                           seed=int(ns.seed))
    computed = {}
    for with_controls in (False, True):
        computed[("ols", with_controls)] = {
            "did_a": ols_did(dataset, Group.A, with_controls, se_kind),
            "did_b": ols_did(dataset, Group.B, with_controls, se_kind),
            "diff_ab": ols_tdid(dataset, with_controls, se_kind),
        }
        ds = dataset if with_controls else dataset.without_covariates()
        nuis = fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY)
        ses = bootstrap_ses(ds, refit_estimates(nuis, methods=OR_METHODS),
                            boot, jobs)
        computed[("or", with_controls)] = {
            key: dataclasses.replace(res, se=se) for key, res, se in zip(
                OR_QUANTITIES, estimate_doubly_robust(
                    ds, nuis, methods=OR_METHODS), ses)}

    rows = []
    comparisons = []
    for block, with_controls in (("ols", False), ("ols", True),
                                 ("or", False), ("or", True)):
        reference = REFERENCE_TABLE[(block, with_controls)]
        for quantity, result in computed[(block, with_controls)].items():
            ref = reference.get(quantity)
            note = ""
            point_ok = se_ok = None
            if ref is None:
                note = "not in reference table"
            else:
                point_ok = abs(result.estimate - ref[0]) <= POINT_TOLERANCE
                if result.se is not None:
                    se_ok = abs(result.se - ref[1]) <= SE_RELATIVE_TOLERANCE * ref[1]
            entry = {
                "block": block,
                "controls": "with" if with_controls else "none",
                "quantity": quantity,
                "estimate": result.estimate,
                "se": result.se,
                "reference_estimate": None if ref is None else ref[0],
                "reference_se": None if ref is None else ref[1],
                "point_within_tolerance": point_ok,
                "se_within_tolerance": se_ok,
                "note": note,
            }
            comparisons.append(entry)
            rows.append([
                block.upper(),
                "with" if with_controls else "none",
                quantity,
                _fmt(result.estimate, 2), _fmt(result.se, 2),
                _fmt(entry["reference_estimate"], 2),
                _fmt(entry["reference_se"], 2),
                {True: "yes", False: "NO", None: "-"}[point_ok],
                {True: "yes", False: "NO", None: "-"}[se_ok],
                note,
            ])

    with open(out / "table_comparison.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(comparisons[0]))
        writer.writeheader()
        writer.writerows(comparisons)
    _write_json(out / "results.json", {
        "n": dataset.n, "n_dropped": dataset.n_dropped,
        "comparisons": comparisons, "warnings": warnings,
    })

    table = _format_table(
        ["block", "controls", "quantity", "estimate", "se",
         "reference", "ref se", "point ok", "se ok", "note"], rows)
    print(table)
    for warning in warnings:
        print(f"warning: {warning}")
    n_checked = sum(1 for c in comparisons
                    if c["point_within_tolerance"] is not None)
    n_pass = sum(1 for c in comparisons if c["point_within_tolerance"])
    print(f"reference points matched: {n_pass}/{n_checked}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(ns: argparse.Namespace) -> int:
    _fill(ns, schema=None, mechanism="both", missing_policy="drop_row",
          out="tridiff-validate")
    if ns.input is None:
        raise SchemaError("validate needs --input CSV")
    if ns.schema is None:
        raise SchemaError("validate needs --schema (JSON mapping or file)")
    schema = Schema.from_dict(_parse_schema_arg(ns.schema))
    dataset = load_csv(ns.input, schema, _mechanism(ns),
                       MissingPolicy(ns.missing_policy))
    out = _out_dir(ns)
    _echo_config(ns, out, "validate")

    report = validate(dataset)
    _write_json(out / "validation.json", report.to_dict())
    print(report.render())
    return EXIT_OK if report.passed else EXIT_INGESTION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridiff",
        description="Triple difference-in-differences estimation with "
                    "covariate reweighting")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; command-line "
                                         "flags override its keys")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="master seed")

    data_args = argparse.ArgumentParser(add_help=False)
    data_args.add_argument("--input", help="panel CSV path")
    data_args.add_argument("--schema", help="column mapping, inline JSON or "
                                            "a JSON file path")
    data_args.add_argument("--mechanism", choices=["only-a", "both"],
                           help="which eligible units are treated "
                                "(default both)")
    data_args.add_argument("--missing-policy", choices=["drop_row", "error"],
                           help="handling of rows with missing fields")

    jobs_args = argparse.ArgumentParser(add_help=False)
    jobs_args.add_argument("--jobs", type=int,
                           help="worker processes for bootstrap draws or "
                                "Monte Carlo replications, at least 1 "
                                "(default: the cores this process may use; "
                                "1 runs in-process); outputs do not depend "
                                "on it")

    p_est = sub.add_parser("estimate", parents=[common, data_args, jobs_args],
                           help="run estimators on a panel CSV")
    p_est.add_argument("--methods", help="comma list from: "
                                         + ", ".join(METHOD_CHOICES))
    p_est.add_argument("--trim", type=float,
                       help="propensity trimming threshold (default 0.01)")
    p_est.add_argument("--normalize-weights", action="store_const", const=True,
                       help="rescale control weights by their sample mean")
    p_est.add_argument("--bootstrap-reps", type=int,
                       help="pairs-bootstrap replications, at least 2 "
                            "(0 = analytic only)")
    p_est.add_argument("--se", choices=[k.value for k in SeKind],
                       help="regression standard errors (default hc1)")
    p_est.add_argument("--dump-scores", action="store_const", const=True,
                       help="write per-unit score values to scores.csv")
    p_est.add_argument("--dump-nuisances", action="store_const", const=True,
                       help="write fitted nuisance models as JSON")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", parents=[common, jobs_args],
                           help="Monte Carlo study against closed-form truth")
    p_sim.add_argument("--n", type=int, help="sample size per replication")
    p_sim.add_argument("--replications", type=int, help="number of samples")
    p_sim.add_argument("--case", choices=[c.value for c in EffectCase],
                       help="treatment effect form")
    p_sim.add_argument("--mu-a", type=float, help="group A covariate mean")
    p_sim.add_argument("--mu-b", type=float, help="group B covariate mean")
    p_sim.add_argument("--mechanism", choices=["only-a", "both"])
    p_sim.add_argument("--bins", type=int, help="histogram bins")
    p_sim.add_argument("--trim", type=float,
                       help="propensity trimming threshold (default 0: the "
                            "simulated covariate has unbounded support)")
    p_sim.add_argument("--normalize-weights", action="store_const", const=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("replicate", parents=[common, jobs_args],
                           help="minimum-wage application comparison table")
    p_rep.add_argument("--input", help="replication CSV (user supplied)")
    p_rep.add_argument("--schema", help="replication schema overrides, "
                                        "inline JSON or file")
    p_rep.add_argument("--bootstrap-reps", type=int,
                       help="bootstrap replications, at least 2 "
                            "(default 999)")
    p_rep.add_argument("--se", choices=[k.value for k in SeKind])
    p_rep.set_defaults(func=cmd_replicate)

    p_val = sub.add_parser("validate", parents=[common, data_args],
                           help="ingest a CSV and report structural checks")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _write_error(ns, exc: BaseException, code: int) -> None:
    message = str(exc)
    payload = {"error": type(exc).__name__, "message": message,
               "exit_code": code}
    print(f"error: {message}", file=sys.stderr)
    try:
        out = Path(getattr(ns, "out", None) or ".")
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "error.json", payload)
    except OSError:
        pass  # error reporting must not raise


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    _retain_freed_heap()  # bootstrap refits reuse the heap they free
    try:
        _apply_config_file(ns)
        return ns.func(ns)
    except (TridiffError, OSError, ValueError) as exc:
        code = exit_code_for(exc)
        _write_error(ns, exc, code)
        return code


if __name__ == "__main__":
    sys.exit(main())
