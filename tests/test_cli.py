"""Command line driver: exit codes, outputs, determinism."""

import codecs
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tridiff
import tridiff.parallel as parallel
from tridiff.cli import _write_json, main


def run(args):
    return main([str(a) for a in args])


SCHEMA = json.dumps({
    "group": "group", "group_a_value": "a",
    "eligibility": "eligibility", "eligible_value": "2",
    "id": "id", "y1": "y1", "y2": "y2", "covariates": ["x"],
})


# every JSON file the CLI writes
CLI_JSON = ("config_echo.json", "error.json", "nuisances_scores.json",
            "results.json", "summary.json", "validation.json")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_json(path):
    """A file the CLI wrote, read by a strict parser: NaN and Infinity,
    which json.dump writes but JSON lacks, fail."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=reject_constant)


@pytest.fixture(autouse=True)
def cli_json_is_strict(tmp_path):
    yield
    for name in CLI_JSON:
        for path in tmp_path.rglob(name):
            load_json(path)


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    from tridiff.dgp import DgpSpec, simulate_sample
    from tridiff.data import save_csv
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    save_csv(simulate_sample(DgpSpec(n=400, seed=3)), path)
    return path


def wage_rows(n=240, seed=4):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        base = rng.uniform(5, 30)
        nm = int(rng.integers(2, 6))
        rows.append({
            "SHEET": i + 1,
            "STATE": int(rng.integers(0, 2)),
            "WAGE_ST": round(float(rng.uniform(4.25, 5.5)), 2),
            "EMPFT": round(base, 1),
            "EMPPT": round(base / 2, 1),
            "NMGRS": nm,
            "EMPFT2": round(base + rng.normal(0, 2), 1),
            "EMPPT2": round(base / 2 + rng.normal(0, 1), 1),
            "NMGRS2": nm,
            "PSODA": round(float(rng.uniform(0.8, 1.2)), 2),
            "HRSOPEN": round(float(rng.uniform(8, 24)), 1),
        })
    return rows


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.fixture(scope="module")
def wage_csv(tmp_path_factory):
    rows = wage_rows()
    rows[3]["EMPFT"] = ""  # one row dropped for missingness
    return write_rows(tmp_path_factory.mktemp("wage") / "wage.csv", rows)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_happy_path(panel_csv, tmp_path):
    out = tmp_path / "out"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr,naive,ols-tdid", "--trim", "0",
                "--bootstrap-reps", "10", "--seed", "1", "--out", out])
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert set(results["results"]) == {"dr", "naive", "ols-tdid"}
    assert results["n"] == 400
    assert results["extras"]["dr"]["bootstrap_se"] > 0
    assert (out / "results.txt").read_text().startswith("method")
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["command"] == "estimate"
    assert not (out / "error.json").exists()


def test_estimate_rerun_byte_identical(panel_csv, tmp_path):
    args = ["estimate", "--input", panel_csv, "--schema", SCHEMA,
            "--methods", "dr,naive", "--trim", "0",
            "--bootstrap-reps", "8", "--seed", "5"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    assert ((tmp_path / "a" / "results.json").read_bytes()
            == (tmp_path / "b" / "results.json").read_bytes())


def test_estimate_hc1_and_cluster_write_the_same_results(panel_csv,
                                                        tmp_path):
    # the regressions fit one row per unit, so the unit-clustered SE is
    # the HC1 one and cluster is another name for hc1, as a flag and in
    # --config; the echo keeps the name given
    args = ["estimate", "--input", panel_csv, "--schema", SCHEMA,
            "--methods", "ols-did-a,ols-did-b,ols-tdid"]
    conf = tmp_path / "cluster.json"
    conf.write_text(json.dumps({"se": "cluster"}))
    for name, extra in (("hc1", ["--se", "hc1"]),
                        ("cluster", ["--se", "cluster"]),
                        ("config", ["--config", conf])):
        assert run(args + extra + ["--out", tmp_path / name]) == 0
    hc1 = (tmp_path / "hc1" / "results.json").read_bytes()
    for name in ("cluster", "config"):
        assert (tmp_path / name / "results.json").read_bytes() == hc1
        echo = json.loads((tmp_path / name / "config_echo.json").read_text())
        assert echo["se"] == "cluster"


def test_estimate_saturated_regression_reports_no_se(tmp_path):
    # group A has three units, as many as its DID regression's
    # coefficients (intercept, eligibility and the covariate x): no se,
    # where group B's regression has one
    from tridiff.data import save_csv
    from tridiff.dgp import DgpSpec, simulate_sample
    ds = simulate_sample(DgpSpec(n=200, seed=3))
    keep = [*np.flatnonzero(ds.group_is_a & ds.eligible)[:2],
            np.flatnonzero(ds.group_is_a & ~ds.eligible)[0],
            *np.flatnonzero(~ds.group_is_a)]
    panel = tmp_path / "panel.csv"
    save_csv(ds.subset(np.array(keep)), panel)
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel, "--schema", SCHEMA,
                "--methods", "ols-did-a,ols-did-b", "--out", out]) == 0
    results = load_json(out / "results.json")["results"]
    assert results["ols-did-a"]["se"] is None
    assert results["ols-did-b"]["se"] > 0
    rows = {line.split()[0]: line.split()
            for line in (out / "results.txt").read_text().splitlines()}
    assert rows["ols-did-a"][2] == "-"


def test_estimate_normalized_weights(panel_csv, tmp_path):
    out = tmp_path / "norm"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr", "--trim", "0", "--normalize-weights",
                "--out", out])
    assert code == 0
    plain = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                 "--methods", "dr", "--trim", "0",
                 "--out", tmp_path / "plain"])
    assert plain == 0
    a = json.loads((out / "results.json").read_text())
    b = json.loads((tmp_path / "plain" / "results.json").read_text())
    assert (a["results"]["dr"]["estimate"]
            != b["results"]["dr"]["estimate"])


def test_estimate_dump_outputs(panel_csv, tmp_path):
    out = tmp_path / "dumps"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr,or-did-a", "--trim", "0", "--out", out,
                "--dump-scores", "--dump-nuisances"])
    assert code == 0
    with open(out / "scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400
    assert "score_dr_a" in rows[0]
    nuis = json.loads((out / "nuisances_scores.json").read_text())
    assert nuis["mode"] == "score-set"
    # or-did-a comes from the same fit's change regressions
    assert sorted(out.iterdir()) == sorted(
        out / name for name in ("config_echo.json", "nuisances_scores.json",
                                "results.json", "results.txt", "scores.csv"))


def test_estimate_missing_input_is_io_error(tmp_path):
    out = tmp_path / "o"
    code = run(["estimate", "--input", tmp_path / "nope.csv",
                "--schema", SCHEMA, "--out", out])
    assert code == 6
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 6


def test_estimate_empty_file_is_ingestion_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run(["estimate", "--input", empty, "--schema", SCHEMA,
                "--out", tmp_path / "o"])
    assert code == 2


def test_estimate_bad_schema_json(panel_csv, tmp_path):
    code = run(["estimate", "--input", panel_csv, "--schema", "{not json",
                "--out", tmp_path / "o"])
    assert code == 2


def test_estimate_unknown_method(panel_csv, tmp_path):
    out = tmp_path / "o"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr,banana", "--out", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "banana" in err["message"]


def test_estimate_aggressive_trim_is_exit_4(panel_csv, tmp_path):
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr", "--trim", "0.4", "--out", tmp_path / "o"])
    assert code == 4


@pytest.mark.parametrize("trim", ["nan", "-1", "1.5"])
def test_estimate_trim_outside_0_1_is_exit_2(trim, panel_csv, tmp_path):
    # a threshold that cannot be a propensity: not trimming silently
    # off (nan, -1), nor an overlap failure (1.5)
    out = tmp_path / "o"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--trim", trim, "--out", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "trim_epsilon" in err["message"]
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("trim", ["nan", "-1", "1.5"])
def test_simulate_trim_outside_0_1_is_exit_2(trim, tmp_path):
    out = tmp_path / "o"
    code = run(["simulate", "--n", "100", "--replications", "3",
                "--trim", trim, "--jobs", "1", "--out", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "trim_epsilon" in err["message"]
    assert not (out / "summary.json").exists()
    assert not (out / "histogram.csv").exists()


def test_estimate_paired_bootstrap_equals_separate_passes(panel_csv,
                                                          tmp_path):
    # dr and naive share one resample pass; each SE must still equal the
    # one its own bootstrap pass gives
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "naive,dr", "--trim", "0",
                "--bootstrap-reps", "8", "--seed", "5", "--out", out]) == 0
    extras = json.loads((out / "results.json").read_text())["extras"]

    from tridiff.data import AssignmentMechanism, Schema, load_csv
    from tridiff.estimators import (BootstrapConfig, Method, bootstrap_ses,
                                    refit_estimates)
    from tridiff.nuisance import NuisanceMode, fit_nuisances
    ds = load_csv(panel_csv, Schema.from_dict(json.loads(SCHEMA)),
                  AssignmentMechanism.BOTH_GROUPS)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    config = BootstrapConfig(replications=8, seed=5)
    assert extras["dr"]["bootstrap_se"] == bootstrap_ses(
        ds, refit_estimates(nuis, methods=(Method.DR_REWEIGHTED,)),
        config)[0]
    assert extras["naive"]["bootstrap_se"] == bootstrap_ses(
        ds, refit_estimates(nuis, methods=(Method.DR_NAIVE_DIFFERENCE,)),
        config)[0]


def test_estimate_one_refit_per_draw_serves_every_score_method(
        panel_csv, tmp_path, monkeypatch):
    import tridiff.cli as cli_mod
    import tridiff.estimators as est_mod
    from tridiff.nuisance import fit_nuisances
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:] + tuple(kwargs.items()))
        return fit_nuisances(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "fit_nuisances", counted)
    monkeypatch.setattr(est_mod, "fit_nuisances", counted)
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr,naive,or-diffs", "--trim", "0",
                "--bootstrap-reps", "9", "--seed", "4", "--jobs", "1",
                "--out", out]) == 0
    # one fit, then one refit per draw for dr, naive and both OR rows;
    # --jobs 1 keeps the refits in this process, where they are counted
    assert len(calls) == 10
    doc = json.loads((out / "results.json").read_text())
    assert doc["results"]["or-diff-ab"]["se"] > 0
    assert doc["results"]["or-diff-awb"]["se"] > 0

    from tridiff.data import AssignmentMechanism, Schema, load_csv
    from tridiff.estimators import (DR_METHODS, BootstrapConfig,
                                    bootstrap_ses, refit_estimates)
    from tridiff.nuisance import NuisanceMode
    ds = load_csv(panel_csv, Schema.from_dict(json.loads(SCHEMA)),
                  AssignmentMechanism.BOTH_GROUPS)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    assert (doc["extras"]["dr"]["bootstrap_se"],
            doc["extras"]["naive"]["bootstrap_se"]) == bootstrap_ses(
        ds, refit_estimates(nuis, methods=DR_METHODS),
        BootstrapConfig(replications=9, seed=4))


def test_estimate_warm_started_bootstrap_matches_cold_start(
        panel_csv, tmp_path, monkeypatch):
    # each refit starts Newton warm, from its own cell moments; a pass
    # whose refits start cold, from zero, must give the same SEs up to
    # the convergence tolerance
    out = tmp_path / "o"
    args = ["estimate", "--input", panel_csv, "--schema", SCHEMA,
            "--methods", "dr,naive", "--trim", "0", "--bootstrap-reps", "30",
            "--seed", "3", "--jobs", "1"]
    assert run(args + ["--out", out]) == 0
    warm = json.loads((out / "results.json").read_text())

    import tridiff.nuisance as nuisance_mod
    fit = nuisance_mod.fit_logistic_multinomial
    fits = []

    def cold_refits(*args, **kwargs):
        # the first fit is the full sample's, from its cell moments; with
        # no moment start every later one, a refit, starts at zero
        fits.append(fit(*args, **kwargs))
        monkeypatch.setattr(nuisance_mod, "_moment_start", lambda *a: None)
        return fits[-1]

    monkeypatch.setattr(nuisance_mod, "fit_logistic_multinomial", cold_refits)
    cold_out = tmp_path / "cold"
    assert run(args + ["--out", cold_out]) == 0
    assert len(fits) == 31
    zero_loglik = [-f.n_obs * np.log(4) for f in fits]
    assert fits[0].loglik_trace[0] > zero_loglik[0]
    assert [f.loglik_trace[0] for f in fits[1:]] == pytest.approx(
        zero_loglik[1:])
    cold_doc = json.loads((cold_out / "results.json").read_text())
    assert cold_doc["results"] == warm["results"]
    for key in ("dr", "naive"):
        assert cold_doc["extras"][key]["bootstrap_se"] == pytest.approx(
            warm["extras"][key]["bootstrap_se"], rel=1e-9, abs=0)


@pytest.mark.parametrize("command", ["estimate", "replicate"])
def test_one_bootstrap_draw_is_exit_2(command, panel_csv, wage_csv,
                                      tmp_path):
    # one draw leaves the bootstrap SE undefined
    out = tmp_path / "o"
    args = (["estimate", "--input", panel_csv, "--schema", SCHEMA,
             "--methods", "dr,or-diffs"] if command == "estimate"
            else ["replicate", "--input", wage_csv])
    assert run(args + ["--bootstrap-reps", "1", "--out", out]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "≥ 2" in err["message"]
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("args, config", [
    (["estimate", "--methods", "ols-tdid", "--trim", "nan"], None),
    (["estimate", "--methods", "ols-tdid", "--trim", "-5"], None),
    (["estimate", "--bootstrap-reps", "1"], None),
    (["simulate", "--trim", "nan"], None),
    (["simulate", "--replications", "0"], None),
    (["estimate"], {"normalize_weights": "false"}),
    (["estimate"], {"methods": ["dr"]}),
    (["estimate"], {"jobs": 1.7}),
    (["estimate"], {"bootstrap_reps": 2.9}),
    (["estimate"], {"seed": "abc"}),
    (["estimate"], {"se": "bogus"}),
    (["simulate"], {"trim": None, "bins": True}),
    (["simulate", "--seed", "-1"], None),
    (["replicate", "--bootstrap-reps", "0"], None),
    (["replicate", "--jobs", "two"], None),
], ids=["estimate-trim-nan", "estimate-trim-negative", "estimate-one-draw",
        "simulate-trim-nan", "simulate-no-replications",
        "config-switch-as-string", "config-methods-as-list",
        "config-fractional-jobs", "config-fractional-bootstrap-reps",
        "config-non-integer-seed", "config-unknown-se", "config-bool-bins",
        "simulate-negative-seed", "replicate-no-bootstrap-draws",
        "replicate-word-jobs"])
def test_bad_option_is_exit_2_before_any_file_is_written(args, config,
                                                         panel_csv, wage_csv,
                                                         tmp_path):
    # checked before the config echo, so no file holds the bad value; a
    # --config value is read as its flag's text would be
    out = tmp_path / "o"
    data = {"estimate": ["--input", panel_csv, "--schema", SCHEMA],
            "simulate": ["--n", "100", "--replications", "3", "--jobs", "1"],
            "replicate": ["--input", wage_csv]}[args[0]]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        data = data + ["--config", tmp_path / "config.json"]
    assert run(args[:1] + data + args[1:] + ["--out", out]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    err = load_json(out / "error.json")
    assert err["error"] == "ValueError" and err["exit_code"] == 2


def test_estimate_on_completely_separated_cells_is_exit_3(tmp_path):
    # the covariate is each unit's cell code, so the logit converges to
    # a log-likelihood of almost 0 with every own-cell probability ~1
    labels = np.random.default_rng(0).integers(0, 4, 2000)
    path = tmp_path / "separated.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", "x"])
        for i, code in enumerate(labels):
            writer.writerow([i, "ab"[code // 2], 2 * (1 - code % 2), 0.0,
                             float(code), float(code)])
    out = tmp_path / "o"
    assert run(["estimate", "--input", path, "--schema", SCHEMA,
                "--methods", "dr", "--out", out]) == 3
    err = load_json(out / "error.json")
    assert err["error"] == "SeparationError" and err["exit_code"] == 3


def test_estimate_or_only_fits_no_logit(tmp_path, monkeypatch):
    # each cell holds its own stretch of the covariate, with razor-thin
    # gaps between them, so the four-cell logit separates
    rng = np.random.default_rng(8)
    path = tmp_path / "split.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", "x"])
        cells = [("a", 2), ("a", 0), ("b", 2), ("b", 0)]
        for k, (group, elig) in enumerate(cells):
            for j, x in enumerate(np.linspace(0, 1, 50) + 1.01 * k):
                writer.writerow([f"{k}-{j}", group, elig, rng.normal(),
                                 x + rng.normal(), x])
    base = ["estimate", "--input", path, "--schema", SCHEMA]
    assert run(base + ["--methods", "dr", "--out", tmp_path / "dr"]) == 3

    import tridiff.nuisance as nuisance_mod
    fitted = []
    logit = nuisance_mod.fit_logistic_multinomial
    monkeypatch.setattr(nuisance_mod, "fit_logistic_multinomial",
                        lambda *a, **k: fitted.append(1) or logit(*a, **k))
    out = tmp_path / "or"
    assert run(base + ["--methods", "or-diffs", "--bootstrap-reps", "5",
                       "--dump-scores", "--dump-nuisances", "--jobs", "1",
                       "--out", out]) == 0
    assert fitted == []
    results = json.loads((out / "results.json").read_text())["results"]
    assert results["or-diff-awb"]["se"] > 0
    nuis = json.loads((out / "nuisances_scores.json").read_text())
    assert nuis["mode"] == "outcome-only" and nuis["propensity"] is None
    assert not (out / "scores.csv").exists()


@pytest.fixture(scope="module")
def thin_b2_csv(tmp_path_factory):
    # 20 of 400 units in (B, Eligible) and a covariate unrelated to the
    # cells: every p(B, Eligible) sits near 0.05, the other cells' well
    # above 0.1
    rng = np.random.default_rng(12)
    path = tmp_path_factory.mktemp("thin") / "thin.csv"
    counts = [("a", 2, 150), ("a", 0, 150), ("b", 2, 20), ("b", 0, 80)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", "x"])
        i = 0
        for group, elig, count in counts:
            for _ in range(count):
                writer.writerow([f"u{i}", group, elig, rng.normal(),
                                 rng.normal(), rng.normal()])
                i += 1
    return path


@pytest.mark.parametrize("methods", ["naive", "dr", "dr,naive"])
def test_estimate_trimmed_b2_is_exit_4(thin_b2_csv, tmp_path, methods):
    out = tmp_path / "o"
    code = run(["estimate", "--input", thin_b2_csv, "--schema", SCHEMA,
                "--methods", methods, "--trim", "0.1", "--out", out])
    assert code == 4
    err = json.loads((out / "error.json").read_text())
    ids = ", ".join(repr(f"u{i}") for i in range(300, 310))
    assert err["message"] == (
        "20 unit(s) in (B, Eligible) have p(B, Eligible) below trim "
        f"threshold 0.1: {ids}…")


def test_estimate_constant_covariate_is_exit_3(tmp_path):
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", "x"])
        rng = np.random.default_rng(0)
        for i in range(80):
            writer.writerow([i, "a" if i % 2 else "b", 2 if i % 4 < 2 else 0,
                             rng.normal(), rng.normal(), 7.0])
    code = run(["estimate", "--input", path, "--schema", SCHEMA,
                "--methods", "dr", "--out", tmp_path / "o"])
    assert code == 3


def test_failed_cell_fit_names_its_cell_once(tmp_path):
    # one (A, Never) unit for an intercept and two covariates
    path = tmp_path / "thin.csv"
    rng = np.random.default_rng(0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", "x", "w"])
        for i in range(61):
            group = "ab"[i % 2]  # (A, Never) is unit 0 alone
            elig = 0 if i == 0 else 2 * (group == "a" or i % 4 == 1)
            writer.writerow([i, group, elig, *rng.normal(size=4)])
    schema = json.dumps({**json.loads(SCHEMA), "covariates": ["x", "w"]})
    out = tmp_path / "o"
    assert run(["estimate", "--input", path, "--schema", schema,
                "--methods", "or-did-a", "--out", out]) == 3
    err = load_json(out / "error.json")
    assert err["error"] == "InsufficientDataError"
    assert err["message"] == "(A, Never): 1 observations for 3 coefficients"


@pytest.mark.parametrize("command", ["estimate", "replicate"])
def test_covariates_given_as_a_string_is_exit_2(command, panel_csv, wage_csv,
                                                tmp_path):
    # "x" names a real column, so a string read letter by letter would
    # have passed by accident
    schema = ({**json.loads(SCHEMA), "covariates": "x"}
              if command == "estimate" else {"covariates": "PSODA"})
    out = tmp_path / "o"
    assert run([command, "--input",
                panel_csv if command == "estimate" else wage_csv,
                "--schema", json.dumps(schema), "--out", out]) == 2
    err = load_json(out / "error.json")
    assert err["error"] == "SchemaError"
    assert '"covariates" must be a list' in err["message"]


def test_estimate_out_of_memory_in_a_fit_is_exit_7(panel_csv, tmp_path,
                                                   monkeypatch):
    # numpy's MemoryError formats its own message and ignores args; the
    # failed model's label must still reach error.json
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    import tridiff.nuisance as nuisance_mod

    def no_memory(*args, **kwargs):
        raise _ArrayMemoryError((10**7, 10**7), np.dtype(float))

    monkeypatch.setattr(nuisance_mod, "_linear_fits", no_memory)
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr", "--trim", "0", "--out", out]) == 7
    err = load_json(out / "error.json")
    assert err["error"] == "MemoryError" and err["exit_code"] == 7
    assert err["message"].startswith(
        "outcome-change regressions: Unable to allocate 728.")
    assert not (out / "results.json").exists()


def test_estimate_bias_method_requires_only_a(panel_csv, tmp_path):
    out = tmp_path / "o"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "bias", "--trim", "0", "--out", out])
    assert code == 5
    code2 = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                 "--methods", "bias", "--trim", "0",
                 "--mechanism", "only-a", "--out", out])
    assert code2 == 0
    results = json.loads((out / "results.json").read_text())
    assert "bias" in results["extras"]
    assert not (out / "error.json").exists()  # stale report was removed


def test_estimate_bias_fails_before_the_bootstrap(panel_csv, tmp_path,
                                                  monkeypatch):
    # the bias diagnostic is undefined under both mechanisms; the run
    # fails with it before drawing a resample, with the error a run
    # without a bootstrap gives
    import tridiff.cli as cli_mod
    args = ["estimate", "--input", panel_csv, "--schema", SCHEMA,
            "--methods", "dr,bias", "--trim", "0", "--jobs", "1"]
    assert run(args + ["--out", tmp_path / "plain"]) == 5

    def no_bootstrap(*args, **kwargs):
        raise AssertionError("the bootstrap ran")

    monkeypatch.setattr(cli_mod, "bootstrap_ses", no_bootstrap)
    out = tmp_path / "boot"
    assert run(args + ["--bootstrap-reps", "49", "--out", out]) == 5
    err = (out / "error.json").read_text()
    assert json.loads(err)["error"] == "UnsupportedMechanismError"
    assert err == (tmp_path / "plain" / "error.json").read_text()


def test_estimate_evaluates_the_fit_once(panel_csv, tmp_path, monkeypatch):
    # the estimators, the bias diagnostic and the score dump share one
    # evaluation of the fit, on the fitted panel: it predicts the three
    # outcome models once, in one batch, and the propensity model not at
    # all, since it reads the logit's own probabilities
    from tridiff.nuisance import LinearModel, NuisanceSet, PropensityModel
    calls = {PropensityModel: [], LinearModel: [], NuisanceSet: []}

    def counted(model_type, name, size):
        predict = getattr(model_type, name)

        def counted_predict(self, x):
            calls[model_type].append(size(self, x))
            return predict(self, x)
        monkeypatch.setattr(model_type, name, counted_predict)

    counted(PropensityModel, "predict", lambda model, x: len(x))
    counted(LinearModel, "predict", lambda model, x: len(x))
    counted(NuisanceSet, "outcome_means",
            lambda fit, x: (len(fit.outcome_models), len(x)))
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr,naive,bias", "--mechanism", "only-a",
                "--trim", "0", "--dump-scores", "--jobs", "1",
                "--out", out]) == 0
    assert calls[PropensityModel] == []
    assert calls[LinearModel] == []
    assert calls[NuisanceSet] == [(3, 400)]
    assert "bias" in json.loads((out / "results.json").read_text())["extras"]
    assert (out / "scores.csv").exists()


def test_config_file_fills_only_unset_options(panel_csv, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"methods": "dr", "seed": 99, "trim": 0.0}))
    out = tmp_path / "o"
    code = run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--config", conf, "--seed", "1", "--out", out])
    assert code == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["seed"] == 1          # command line wins
    assert echo["methods"] == "dr"    # config fills the gap
    assert echo["trim"] == 0.0


@pytest.mark.parametrize("command", ["estimate", "simulate", "replicate",
                                     "validate"])
def test_rerun_from_config_echo_is_byte_identical(command, panel_csv,
                                                  wage_csv, tmp_path):
    args = {"estimate": ["--input", panel_csv, "--schema", SCHEMA,
                         "--methods", "dr,naive,ols-tdid", "--trim", "0",
                         "--bootstrap-reps", "5", "--seed", "3"],
            "simulate": ["--n", "100", "--replications", "3", "--bins", "4",
                         "--normalize-weights", "--jobs", "1"],
            "replicate": ["--input", wage_csv, "--bootstrap-reps", "5",
                          "--seed", "2", "--jobs", "1"],
            "validate": ["--input", panel_csv, "--schema", SCHEMA,
                         "--mechanism", "only-a"]}[command]
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert run([command] + args + ["--out", first]) == 0
    assert run([command, "--config", first / "config_echo.json",
                "--out", rerun]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    for name in names:
        if name != "config_echo.json":
            assert (first / name).read_bytes() == (rerun / name).read_bytes()
    echo = load_json(rerun / "config_echo.json")
    first_echo = load_json(first / "config_echo.json")
    assert (echo.pop("out"), first_echo.pop("out")) == (str(rerun),
                                                         str(first))
    assert echo == first_echo


def test_config_echo_of_another_command_is_refused(panel_csv, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"command": "simulate"}))
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--config", tmp_path / "config.json", "--out", out]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_config_values_read_as_their_flags(panel_csv, tmp_path):
    # an object schema, a dashed key, a switch, a null and a number for a
    # float option give the results and echo of the same flags
    flags = ["--schema", SCHEMA, "--methods", "dr", "--normalize-weights",
             "--trim", "0.0"]
    assert run(["estimate", "--input", panel_csv] + flags
               + ["--out", tmp_path / "flags"]) == 0
    (tmp_path / "config.json").write_text(json.dumps({
        "command": "estimate", "schema": json.loads(SCHEMA),
        "methods": "dr", "normalize-weights": True, "dump_scores": False,
        "seed": None, "trim": 0}))
    assert run(["estimate", "--input", panel_csv, "--config",
                tmp_path / "config.json", "--out", tmp_path / "config"]) == 0
    for name in ("results.json", "results.txt"):
        assert ((tmp_path / "flags" / name).read_bytes()
                == (tmp_path / "config" / name).read_bytes())
    by_flags = load_json(tmp_path / "flags" / "config_echo.json")
    by_config = load_json(tmp_path / "config" / "config_echo.json")
    assert by_config.pop("schema") == json.dumps(json.loads(SCHEMA))
    assert by_flags.pop("schema") == SCHEMA
    assert by_config.pop("out") != by_flags.pop("out")
    assert by_config == by_flags
    echo_text = (tmp_path / "config" / "config_echo.json").read_text()
    assert '"trim": 0.0' in echo_text
    assert by_config["seed"] == 0


# the options each command's --help lists
COMMAND_OPTIONS = {
    "estimate": ["--bootstrap-reps", "--config", "--dump-nuisances",
                 "--dump-scores", "--input", "--jobs", "--mechanism",
                 "--methods", "--missing-policy", "--normalize-weights",
                 "--out", "--schema", "--se", "--seed", "--trim"],
    "simulate": ["--bins", "--case", "--config", "--jobs", "--mechanism",
                 "--mu-a", "--mu-b", "--n", "--normalize-weights", "--out",
                 "--replications", "--seed", "--trim"],
    "replicate": ["--bootstrap-reps", "--config", "--input", "--jobs",
                  "--out", "--schema", "--se", "--seed"],
    "validate": ["--config", "--input", "--mechanism", "--missing-policy",
                 "--out", "--schema"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_every_command_prints_its_help(command, capsys):
    # a stray % in a help string fails only when help is printed
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    listed = re.findall(r"(?m)^  (--[\w-]+)", capsys.readouterr().out)
    assert sorted(listed) == COMMAND_OPTIONS[command]


def test_config_file_unknown_key(panel_csv, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"funky": 1}))
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--config", conf, "--out", tmp_path / "o"]) == 2


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("delimiter", ";;"), ("group_a_value", 1), ("y1", 3)])
def test_validate_with_a_bad_schema_value_is_exit_2(panel_csv, tmp_path,
                                                    key, value):
    # a two-character delimiter once reached csv.reader, whose TypeError
    # exited 1 with a traceback and no error.json; a number for a level
    # or a column once read as an empty cell or a missing column
    out = tmp_path / "o"
    schema = json.dumps({**json.loads(SCHEMA), key: value})
    assert run(["validate", "--input", panel_csv, "--schema", schema,
                "--out", out]) == 2
    err = load_json(out / "error.json")
    assert err["error"] == "SchemaError" and err["exit_code"] == 2
    assert err["message"].startswith(f'schema key "{key}" ')
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_validate_pass(panel_csv, tmp_path):
    out = tmp_path / "v"
    code = run(["validate", "--input", panel_csv, "--schema", SCHEMA,
                "--out", out])
    assert code == 0
    doc = json.loads((out / "validation.json").read_text())
    assert doc["passed"] is True
    assert doc["n"] == 400


@pytest.mark.parametrize("how", ["flag", "config"])
def test_validate_takes_no_seed(panel_csv, tmp_path, how):
    # validate draws nothing at random, so a seed is an unknown option
    args = ["validate", "--input", panel_csv, "--schema", SCHEMA,
            "--out", tmp_path / "v"]
    if how == "flag":
        args += ["--seed", "1"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"seed": 1}))
        args += ["--config", tmp_path / "config.json"]
    assert run(args) == 2
    assert sorted(p.name for p in (tmp_path / "v").iterdir()) == [
        "error.json"]


def with_bom(path, text):
    """Write text as UTF-8 behind a byte-order mark, as Excel's "CSV
    UTF-8" and some editors save files, and return the path."""
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    return path


def test_validate_reads_a_csv_with_a_byte_order_mark(panel_csv, tmp_path):
    marked = with_bom(tmp_path / "bom.csv", panel_csv.read_text())
    out = tmp_path / "v"
    assert run(["validate", "--input", marked, "--schema", SCHEMA,
                "--out", out]) == 0
    doc = load_json(out / "validation.json")
    assert doc["passed"] is True and doc["n"] == 400


def test_schema_file_with_a_byte_order_mark(panel_csv, tmp_path):
    schema = with_bom(tmp_path / "schema.json", SCHEMA)
    out = tmp_path / "v"
    assert run(["validate", "--input", panel_csv, "--schema", schema,
                "--out", out]) == 0
    assert load_json(out / "validation.json")["n"] == 400


def test_config_file_with_a_byte_order_mark(panel_csv, tmp_path):
    conf = with_bom(tmp_path / "conf.json", json.dumps(
        {"schema": json.loads(SCHEMA), "methods": "dr", "trim": 0.0}))
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--config", conf,
                "--out", out]) == 0
    echo = load_json(out / "config_echo.json")
    assert (echo["methods"], echo["trim"]) == ("dr", 0.0)


def test_validate_reruns_an_echo_holding_a_null_seed(panel_csv, tmp_path):
    # an echo written when validate still took --seed held "seed": null,
    # and a null keeps the default, so the echo still reruns
    first = tmp_path / "first"
    assert run(["validate", "--input", panel_csv, "--schema", SCHEMA,
                "--out", first]) == 0
    echo = load_json(first / "config_echo.json")
    assert "seed" not in echo
    (tmp_path / "old.json").write_text(json.dumps({**echo, "seed": None}))
    rerun = tmp_path / "rerun"
    assert run(["validate", "--config", tmp_path / "old.json",
                "--out", rerun]) == 0
    assert ((first / "validation.json").read_bytes()
            == (rerun / "validation.json").read_bytes())


def test_json_output_refuses_nan_and_leaves_no_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _write_json(path, {"x": float("nan")})
    assert not path.exists()


def test_validate_fail_small_sample(tmp_path):
    # four units, one per cell: below the 4(d+1) = 8 regression floor
    path = tmp_path / "tiny.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", "x"])
        for i, (g, e) in enumerate([("a", 2), ("a", 0), ("b", 2), ("b", 0)]):
            writer.writerow([i, g, e, 1.0 + i, 2.0 + i, 0.5 * i])
    out = tmp_path / "v"
    code = run(["validate", "--input", path, "--schema", SCHEMA,
                "--out", out])
    assert code == 2
    doc = json.loads((out / "validation.json").read_text())
    assert doc["passed"] is False
    assert doc["failures"]


# ---------------------------------------------------------------------------
# replicate
def test_estimate_bootstrap_in_workers_is_byte_identical(panel_csv, tmp_path):
    args = ["estimate", "--input", panel_csv, "--schema", SCHEMA,
            "--methods", "dr,naive,ols-tdid,or-diffs", "--trim", "0",
            "--bootstrap-reps", "19", "--seed", "6"]
    for jobs in ("1", "2"):
        assert run(args + ["--jobs", jobs, "--out", tmp_path / jobs]) == 0
    for name in ("results.json", "results.txt"):
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())


def test_estimate_without_mallopt_writes_the_same_results(panel_csv,
                                                         tmp_path,
                                                         monkeypatch):
    args = ["estimate", "--input", panel_csv, "--schema", SCHEMA,
            "--methods", "dr,naive,ols-tdid,or-diffs", "--trim", "0",
            "--bootstrap-reps", "9", "--seed", "6", "--jobs", "1"]
    assert run(args + ["--out", tmp_path / "kept"]) == 0

    def failing_loader(name):
        raise OSError("cannot load the C library")

    monkeypatch.setattr(parallel.ctypes, "CDLL", failing_loader)
    assert parallel._retain_freed_heap() is False
    assert run(args + ["--out", tmp_path / "trimmed"]) == 0
    assert ((tmp_path / "kept" / "results.json").read_bytes()
            == (tmp_path / "trimmed" / "results.json").read_bytes())


def test_estimate_bootstrap_in_spawned_workers_is_byte_identical(panel_csv,
                                                                tmp_path):
    # spawned (and forkserver) workers import tridiff afresh and get the
    # callable, with its dataset, by pickle
    args = ["estimate", "--input", str(panel_csv), "--schema", SCHEMA,
            "--methods", "dr,naive,ols-tdid,or-diffs", "--trim", "0",
            "--bootstrap-reps", "19", "--seed", "6"]
    assert run(args + ["--jobs", "1", "--out", tmp_path / "serial"]) == 0
    code = ("import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from tridiff.cli import main\n"
            f"sys.exit(main({args + ['--jobs', '2', '--out', 'spawn']!r}))\n")
    src = str(Path(tridiff.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    for name in ("results.json", "results.txt"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "spawn" / name).read_bytes())


def test_bootstrap_workers_leave_numpy_random_out_of_the_parent(panel_csv,
                                                                tmp_path):
    # the workers draw and screen every resample; a draw in this process
    # would import numpy.random, about 5.5 MB resident that each worker
    # forked after it would start with. Trimming is not under test, and
    # the panel has a unit below the default threshold
    args = ["estimate", "--input", str(panel_csv), "--schema", SCHEMA,
            "--methods", "dr,naive,or-diffs", "--trim", "0",
            "--bootstrap-reps", "9", "--jobs", "2",
            "--out", str(tmp_path / "o")]
    code = ("import sys\n"
            "from tridiff.cli import main\n"
            f"code = main({args!r})\n"
            "print('numpy.random' in sys.modules)\n"
            "sys.exit(code)\n")
    src = str(Path(tridiff.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


@pytest.mark.parametrize("command", ["estimate", "replicate", "simulate"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_exit_2(command, jobs, panel_csv, wage_csv,
                                  tmp_path):
    args = {"estimate": ["estimate", "--input", panel_csv, "--schema",
                         SCHEMA, "--bootstrap-reps", "5"],
            "replicate": ["replicate", "--input", wage_csv],
            "simulate": ["simulate", "--n", "100", "--replications", "2"]}
    out = tmp_path / "o"
    assert run(args[command] + ["--jobs", jobs, "--out", out]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "--jobs" in err["message"]
    assert not (out / "results.json").exists()
    assert not (out / "summary.json").exists()


def test_jobs_defaults_to_the_usable_cores(panel_csv, tmp_path):
    from tridiff.parallel import default_jobs
    out = tmp_path / "o"
    assert run(["estimate", "--input", panel_csv, "--schema", SCHEMA,
                "--methods", "dr", "--out", out]) == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["jobs"] == default_jobs()


# ---------------------------------------------------------------------------

def test_replicate_without_input_explains_schema(tmp_path, capsys):
    code = run(["replicate", "--out", tmp_path / "r"])
    assert code == 2
    err = capsys.readouterr().err
    assert "WAGE_ST" in err and "STATE" in err and "EMPFT" in err


def test_replicate_happy_path(wage_csv, tmp_path):
    out = tmp_path / "r"
    code = run(["replicate", "--input", wage_csv, "--bootstrap-reps", "15",
                "--seed", "2", "--out", out])
    assert code == 0
    with open(out / "table_comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16  # 14 reference comparisons + 2 extra quantities
    noted = [row for row in rows if row["note"]]
    assert len(noted) == 2
    assert all(row["block"] == "or" and row["controls"] == "none"
               for row in noted)
    results = json.loads((out / "results.json").read_text())
    assert results["n"] == 239
    assert any("695" in w for w in results["warnings"])
    # synthetic data must not match the published numbers
    matched = [row for row in rows
               if row["point_within_tolerance"] == "True"]
    assert len(matched) < 14


def test_replicate_at_its_defaults_exits_0(wage_csv, tmp_path):
    # 999 draws from seed 0: a few with-controls resamples leave NMGRS
    # collinear in the (A, Never) cell, and those refits are redrawn
    # instead of failing the command
    assert run(["replicate", "--input", wage_csv, "--out", tmp_path / "r"]) == 0


def test_replicate_schema_overrides(wage_csv, tmp_path):
    # single-column outcomes instead of the weighted composite
    overrides = json.dumps({"y1": "EMPFT", "y2": "EMPFT2",
                            "covariates": ["HRSOPEN"]})
    code = run(["replicate", "--input", wage_csv, "--schema", overrides,
                "--bootstrap-reps", "5", "--seed", "1",
                "--out", tmp_path / "r"])
    assert code == 0


def test_replicate_unknown_override_key(wage_csv, tmp_path):
    assert run(["replicate", "--input", wage_csv,
                "--schema", json.dumps({"wages": "x"}),
                "--out", tmp_path / "r"]) == 2


@pytest.mark.parametrize("key, value", [
    ("wage_cutoff", [4.5]), ("y1_components", [["EMPFT", "a"]])],
    ids=["list-cutoff", "string-weight"])
def test_replicate_override_of_the_wrong_type_is_exit_2(wage_csv, tmp_path,
                                                        key, value):
    # checked before float() or numpy's multiply sees the value: their
    # TypeErrors belong to no exit-code family
    out = tmp_path / "r"
    assert run(["replicate", "--input", wage_csv,
                "--schema", json.dumps({key: value}), "--out", out]) == 2
    err = load_json(out / "error.json")
    assert err["error"] == "SchemaError" and err["exit_code"] == 2
    assert f'"{key}" must be' in err["message"]


def test_replicate_empty_cell_is_exit_2(tmp_path):
    rows = wage_rows(n=60)
    for row in rows:
        row["STATE"] = 1
    out = tmp_path / "r"
    assert run(["replicate", "--input", write_rows(tmp_path / "w.csv", rows),
                "--bootstrap-reps", "5", "--out", out]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "PanelValidationError"
    assert err["message"] == "empty cell (A, Never), (B, Never)"


def test_replicate_bootstrap_in_workers_is_byte_identical(wage_csv,
                                                          tmp_path):
    args = ["replicate", "--input", wage_csv, "--bootstrap-reps", "19",
            "--seed", "8"]
    for jobs in ("1", "2"):
        assert run(args + ["--jobs", jobs, "--out", tmp_path / jobs]) == 0
    for name in ("results.json", "table_comparison.csv"):
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())


def test_replicate_deterministic(wage_csv, tmp_path):
    args = ["replicate", "--input", wage_csv, "--bootstrap-reps", "10",
            "--seed", "3"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    assert ((tmp_path / "a" / "results.json").read_bytes()
            == (tmp_path / "b" / "results.json").read_bytes())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_small_run(tmp_path):
    out = tmp_path / "s"
    code = run(["simulate", "--n", "200", "--replications", "5",
                "--seed", "11", "--bins", "4", "--out", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 5
    assert summary["oracle"]["reweighted_diff"] == 3.0
    assert (out / "histogram.csv").exists()


@pytest.mark.parametrize("bins", ["0", "-3"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_bins_below_one_is_exit_2_before_any_replication(
        bins, source, tmp_path, monkeypatch):
    import tridiff.cli as cli

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")
    monkeypatch.setattr(cli, "run_monte_carlo", no_replications)
    out = tmp_path / "o"
    args = ["simulate", "--n", "100", "--replications", "3", "--jobs", "1",
            "--out", out]
    if source == "flag":
        args += ["--bins", bins]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bins": int(bins)}))
        args += ["--config", config]
    assert run(args) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError" and "--bins" in err["message"]
    assert not (out / "summary.json").exists()
    assert not (out / "histogram.csv").exists()


def test_simulate_normalized_weights(tmp_path):
    out = tmp_path / "s"
    code = run(["simulate", "--n", "300", "--replications", "20",
                "--normalize-weights", "--mechanism", "only-a",
                "--seed", "11", "--out", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failed"] == 0


def test_simulate_parallel_matches_serial(tmp_path):
    base = ["simulate", "--n", "150", "--replications", "6", "--seed", "17"]
    assert run(base + ["--jobs", "1", "--out", tmp_path / "serial"]) == 0
    assert run(base + ["--jobs", "2", "--out", tmp_path / "par"]) == 0
    serial = (tmp_path / "serial" / "summary.json").read_bytes()
    parallel = (tmp_path / "par" / "summary.json").read_bytes()
    # the echoed config differs only through --jobs, which summary.json
    # does not contain; the statistical content must be bitwise equal
    assert serial == parallel
    assert ((tmp_path / "serial" / "histogram.csv").read_bytes()
            == (tmp_path / "par" / "histogram.csv").read_bytes())
