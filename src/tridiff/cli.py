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

from .data import (AssignmentMechanism, Group, MissingPolicy, PanelDataset,
                   REPLICATION_FORMAT, Schema, load_csv, load_replication_csv,
                   validate)
from .dgp import (HISTOGRAM_BINS, DgpSpec, EffectCase, closed_form_oracle,
                  export_histogram, run_monte_carlo)
from .estimators import (DEFAULT_BOOTSTRAP_REPS, OR_METHODS, BootstrapConfig,
                         EstimateResult, Method, SeKind, bias_diagnostic,
                         bootstrap_ses, estimate_doubly_robust, ols_did,
                         ols_tdid, refit_estimates)
from .exceptions import (FittingError, IngestionError, SchemaError,
                         TridiffError, TrimmingError)
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


# exception family -> exit code; the first family an error belongs to wins
EXIT_CODES = ((TrimmingError, EXIT_TRIMMING), (IngestionError, EXIT_INGESTION),
              (FittingError, EXIT_NUISANCE), (TridiffError, EXIT_ESTIMATION),
              (OSError, EXIT_IO), (ValueError, EXIT_INGESTION))


def exit_code_for(exc: BaseException) -> int:
    return next((code for family, code in EXIT_CODES
                 if isinstance(exc, family)), EXIT_ESTIMATION)


# ---------------------------------------------------------------------------
# Small output helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    """Write payload as strict JSON. A NaN or infinity raises ValueError
    before the file is opened, so no partial file is left behind."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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

class _CommandParser(argparse.ArgumentParser):
    """A command's parser: a bad option raises ValueError (exit 2)."""

    def error(self, message):
        raise ValueError(message)


def _read_early(args: list, ns: argparse.Namespace) -> None:
    """Set ns.out and ns.config from args before args are parsed, so
    that an error in args is reported in --out."""
    probe = _CommandParser(add_help=False)
    probe.add_argument("--out")
    probe.add_argument("--config")
    probe.parse_known_args(args, ns)


def _config_args(ns: argparse.Namespace) -> list:
    """--config's values as the flags that would give them: a switch
    takes true or false, --schema also a JSON object, and null keeps the
    default. A config echo names its command, which must be this one."""
    with open(ns.config, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise SchemaError("config file must hold a JSON object")
    args = []
    for key, value in loaded.items():
        dest = key.replace("-", "_")
        if value is None or (dest == "command" and value == ns.command):
            continue
        if dest in ("command", "config", "func") or not hasattr(ns, dest):
            raise SchemaError(f"unknown config key {key!r}")
        switch = isinstance(getattr(ns, dest), bool)
        if dest == "schema" and isinstance(value, dict):
            value = json.dumps(value)
        if (switch != isinstance(value, bool)
                or isinstance(value, (list, dict))):
            wanted = "true or false" if switch else "a string or a number"
            raise ValueError(f"config key {key!r} takes {wanted}, got "
                             f"{value!r}")
        flag = "--" + dest.replace("_", "-")
        if value is not False:  # a switch set to false stays off
            args.append(flag if switch else f"{flag}={value}")
    return args


# (rule, test) by option, or by (command, option), checked after the
# --config merge and before a command reads or writes a file
OPTION_RULES = {
    "seed": ("≥ 0", lambda v: v >= 0),
    "jobs": ("≥ 1", lambda v: v >= 1),
    "trim": ("a trim_epsilon in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "bins": ("≥ 1", lambda v: v >= 1),
    "replications": ("≥ 1", lambda v: v >= 1),
    "bootstrap_reps": ("0 or ≥ 2", lambda v: v == 0 or v >= 2),
    ("replicate", "bootstrap_reps"): ("≥ 2", lambda v: v >= 2),
}


def _resolve(parser: argparse.ArgumentParser, argv: list,
             ns: argparse.Namespace) -> None:
    """Fill ns (the command's defaults) from argv's flags over --config's
    values, each parsed as its flag's text, then check OPTION_RULES."""
    _read_early(argv, ns)
    if ns.config is not None:
        argv = argv[:1] + _config_args(ns) + argv[1:]
        _read_early(argv, ns)
    extras = parser.parse_known_args(argv, ns)[1]
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    for dest, value in vars(ns).items():
        rule, test = OPTION_RULES.get((ns.command, dest),
                                      OPTION_RULES.get(dest, (None, None)))
        if test is not None and not test(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be {rule}, "
                             f"got {value}")


def _parse_schema_arg(raw: str) -> dict:
    """--schema takes inline JSON or a path to a JSON file."""
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


def _load_panel(ns) -> PanelDataset:
    """estimate's and validate's --input, read with --schema."""
    if ns.input is None:
        raise SchemaError(f"{ns.command} needs --input CSV")
    if ns.schema is None:
        raise SchemaError(
            f"{ns.command} needs --schema (JSON mapping or file)")
    return load_csv(ns.input, Schema.from_dict(_parse_schema_arg(ns.schema)),
                    AssignmentMechanism(ns.mechanism),
                    MissingPolicy(ns.missing_policy))


def _out_dir(ns) -> Path:
    """Make --out, drop a stale error.json and echo the configuration."""
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "error.json").unlink(missing_ok=True)
    _write_json(out / "config_echo.json", {
        key: value for key, value in vars(ns).items()
        if key not in ("config", "func")})
    return out


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


def _methods(text: str) -> str:
    """--methods' type: a comma list from METHOD_CHOICES, as "a,b"."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods or not set(methods) <= set(METHOD_CHOICES):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list from {', '.join(METHOD_CHOICES)}")
    return ",".join(methods)


def cmd_estimate(ns: argparse.Namespace) -> int:
    boot = (BootstrapConfig(replications=ns.bootstrap_reps, seed=ns.seed)
            if ns.bootstrap_reps else None)
    dataset = _load_panel(ns)
    methods = ns.methods.split(",")
    out = _out_dir(ns)
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
            trim_epsilon=ns.trim, normalize=ns.normalize_weights)

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
                nuis, score_methods), boot, ns.jobs)):
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
    spec = DgpSpec(n=ns.n, seed=ns.seed, mu_a=ns.mu_a, mu_b=ns.mu_b,
                   effect_case=EffectCase(ns.case),
                   mechanism=AssignmentMechanism(ns.mechanism))
    out = _out_dir(ns)

    result = run_monte_carlo(spec, ns.replications, {
        "trim_epsilon": ns.trim, "normalize": ns.normalize_weights},
        n_jobs=ns.jobs)
    oracle = closed_form_oracle(spec)
    summary = result.summary()
    summary["oracle"] = oracle.to_dict()
    _write_json(out / "summary.json", summary)
    export_histogram(result, out / "histogram.csv", bins=ns.bins)

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
    if ns.input is None:
        raise SchemaError("replicate needs --input pointing at the "
                          "minimum-wage CSV (not distributed with this "
                          f"package); {REPLICATION_FORMAT}")
    overrides = _parse_schema_arg(ns.schema) if ns.schema else None
    dataset = load_replication_csv(ns.input, overrides)
    out = _out_dir(ns)

    warnings = []
    if dataset.n != EXPECTED_REPLICATION_ROWS:
        warnings.append(f"sample size {dataset.n} differs from the expected "
                        f"{EXPECTED_REPLICATION_ROWS} after drops")

    se_kind = SeKind(ns.se)
    boot = BootstrapConfig(replications=ns.bootstrap_reps, seed=ns.seed)
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
                            boot, ns.jobs)
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
    dataset = _load_panel(ns)
    out = _out_dir(ns)

    report = validate(dataset)
    _write_json(out / "validation.json", report.to_dict())
    print(report.render())
    return EXIT_OK if report.passed else EXIT_INGESTION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser: each option's type, choices and default, declared once."""
    parser = argparse.ArgumentParser(
        prog="tridiff",
        description="Triple difference-in-differences estimation with "
                    "covariate reweighting")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    # options that several commands declare alike, built for each: parsers
    # sharing an argument through parents= share its default
    shared = {
        "--input": dict(help="panel CSV path"),
        "--schema": dict(help="column mapping, inline JSON or a file path"),
        "--mechanism": dict(choices=[m.value for m in AssignmentMechanism],
                            default=AssignmentMechanism.BOTH_GROUPS.value,
                            help="which eligible units are treated"),
        "--missing-policy": dict(choices=[m.value for m in MissingPolicy],
                                 default=MissingPolicy.DROP_ROW.value,
                                 help="handling of rows with missing fields"),
        "--jobs": dict(type=int, default=default_jobs(),
                       help="processes for bootstrap draws or Monte Carlo "
                            "replications, one per usable core by default; "
                            "1 runs in-process; outputs do not depend on it"),
        "--normalize-weights": dict(action="store_true", help="rescale "
                                    "control weights by their sample mean"),
        "--se": dict(choices=[k.value for k in SeKind],
                     default=SeKind.ROBUST.value,
                     help="regression standard errors"),
    }

    def command(name, func, help, out, seed, *flags):
        p = sub.add_parser(name, help=help, formatter_class=argparse.
                           ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of options; flags win")
        p.add_argument("--out", default=out, help="output directory")
        if seed is not None:  # validate draws nothing
            p.add_argument("--seed", type=int, default=seed,
                           help="master seed")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p_est = command("estimate", cmd_estimate, "run estimators on a panel CSV",
                    "tridiff-out", 0, "--input", "--schema", "--mechanism",
                    "--missing-policy", "--jobs", "--normalize-weights",
                    "--se")
    p_est.add_argument("--methods", type=_methods, default="dr,naive",
                       help="comma list from: " + ", ".join(METHOD_CHOICES))
    p_est.add_argument("--trim", type=float, default=DEFAULT_TRIM_EPSILON,
                       help="propensity trimming threshold in [0, 1); 0 "
                            "turns trimming off")
    p_est.add_argument("--bootstrap-reps", type=int, default=0,
                       help="pairs-bootstrap replications: 0 for analytic "
                            "SEs only, else at least 2")
    p_est.add_argument("--dump-scores", action="store_true",
                       help="write per-unit score values to scores.csv")
    p_est.add_argument("--dump-nuisances", action="store_true",
                       help="write fitted nuisance models as JSON")

    p_sim = command("simulate", cmd_simulate,
                    "Monte Carlo study against closed-form truth",
                    "tridiff-sim", 7, "--jobs", "--mechanism",
                    "--normalize-weights")
    p_sim.add_argument("--n", type=int, default=2000, help="sample size")
    p_sim.add_argument("--replications", type=int, default=2000,
                       help="number of samples")
    p_sim.add_argument("--case", choices=[c.value for c in EffectCase],
                       default=DgpSpec.effect_case.value,
                       help="treatment effect form")
    p_sim.add_argument("--mu-a", type=float, default=DgpSpec.mu_a,
                       help="group A covariate mean")
    p_sim.add_argument("--mu-b", type=float, default=DgpSpec.mu_b,
                       help="group B covariate mean")
    p_sim.add_argument("--bins", type=int, default=HISTOGRAM_BINS,
                       help="histogram bins")
    p_sim.add_argument("--trim", type=float, default=0.0,
                       help="propensity trimming threshold; the simulated "
                            "covariate has unbounded support")

    p_rep = command("replicate", cmd_replicate,
                    "minimum-wage application comparison table",
                    "tridiff-replication", 0, "--jobs", "--se")
    p_rep.add_argument("--input", help="replication CSV (user supplied)")
    p_rep.add_argument("--schema", help="schema overrides, JSON or a file")
    p_rep.add_argument("--bootstrap-reps", type=int,
                       default=DEFAULT_BOOTSTRAP_REPS,
                       help="bootstrap replications, at least 2")

    command("validate", cmd_validate,
            "ingest a CSV and report structural checks", "tridiff-validate",
            None, "--input", "--schema", "--mechanism", "--missing-policy")
    return parser


def _write_error(ns, exc: BaseException, code: int) -> None:
    message = str(exc)
    payload = {"error": type(exc).__name__, "message": message,
               "exit_code": code}
    print(f"error: {message}", file=sys.stderr)
    try:
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "error.json", payload)
    except OSError:
        pass  # error reporting must not raise


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command's defaults; help or a bad command name exits here
    ns = parser.parse_args(argv[:1])
    _retain_freed_heap()  # bootstrap refits reuse the heap they free
    try:
        _resolve(parser, argv, ns)
        return ns.func(ns)
    except (TridiffError, OSError, ValueError) as exc:
        code = exit_code_for(exc)
        _write_error(ns, exc, code)
        return code


if __name__ == "__main__":
    sys.exit(main())
