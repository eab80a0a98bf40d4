"""Acceptance gate: the package's headline claims, one line each.

Every test prints `criterion N (...): PASS` or `: FAIL` so a full run
reads as a checklist (use `pytest -rA` to see the lines for passing
tests). Tolerances are fixed here on purpose; loosening them is not a
fix for a failing criterion.
"""

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from tridiff.cli import (POINT_TOLERANCE, REFERENCE_TABLE,
                         SE_RELATIVE_TOLERANCE, load_replication_csv, main)
from tridiff.data import Cell, PanelDataset, save_csv
from tridiff.dgp import (DgpSpec, EffectCase, closed_form_oracle,
                         run_monte_carlo, simulate_sample)
from tridiff.estimators import (OR_METHODS, BootstrapConfig, SeKind,
                                bootstrap_ses, estimate_doubly_robust,
                                ols_did, ols_tdid, refit_estimates)
from tridiff.nuisance import LinearModel, NuisanceMode, fit_nuisances
from tridiff.scores import FitEvaluation, ScoreKind, score_vector


def or_table(ds, boot):
    """The five outcome-regression quantities, keyed as in the reference
    table, with bootstrap SEs from one refit of the change regressions
    per resample."""
    nuis = fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY)
    points = estimate_doubly_robust(ds, nuis, methods=OR_METHODS)
    ses = bootstrap_ses(ds, refit_estimates(nuis, methods=OR_METHODS), boot)
    return {key: dataclasses.replace(res, se=se) for key, res, se in zip(
        ("did_a", "did_b", "wdid_b", "diff_ab", "diff_awb"), points, ses)}


def report(num, name, failures):
    print(f"criterion {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def mc_default():
    # the headline study: 2000 samples of 2000 units from the default
    # process, untrimmed (the covariate has unbounded support)
    return run_monte_carlo(DgpSpec(n=2000, seed=7), 2000)


@pytest.fixture(scope="module")
def big_sample():
    ds = simulate_sample(DgpSpec(n=20000, seed=101))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    return ds, nuis


# ---------------------------------------------------------------------------
# 1. The simulation study lands both estimator means on their targets.
# ---------------------------------------------------------------------------

def test_criterion_1_simulation_means(mc_default):
    summary = mc_default.summary()
    naive = summary["naive"]["mean"]
    reweighted = summary["reweighted"]["mean"]
    failures = []
    if not -1.05 <= naive <= -0.95:
        failures.append(f"naive mean {naive:.4f} outside [-1.05, -0.95]")
    if not 2.95 <= reweighted <= 3.05:
        failures.append(
            f"reweighted mean {reweighted:.4f} outside [2.95, 3.05]")
    if mc_default.n_failed:
        failures.append(f"{mc_default.n_failed} replications failed")
    report(1, "simulation means within 0.05 of closed forms", failures)


# ---------------------------------------------------------------------------
# 2. Closed forms are exact and every estimator recovers them at n=20000.
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_recovery(big_sample):
    failures = []
    constant = closed_form_oracle(
        DgpSpec(n=100, seed=0, effect_case=EffectCase.CONSTANT))
    varying = closed_form_oracle(DgpSpec(n=100, seed=0))
    exact = [
        ("constant did_a", constant.did_a_on_a, 5.0),
        ("constant did_b", constant.did_b_on_b, 4.0),
        ("constant did_b on A", constant.did_b_on_a, 2.0),
        ("constant naive", constant.naive_diff, 1.0),
        ("constant reweighted", constant.reweighted_diff, 3.0),
        ("varying did_a", varying.did_a_on_a, 5.0),
        ("varying did_b", varying.did_b_on_b, 6.0),
        ("varying did_b on A", varying.did_b_on_a, 2.0),
        ("varying naive", varying.naive_diff, -1.0),
        ("varying reweighted", varying.reweighted_diff, 3.0),
    ]
    for name, got, want in exact:
        if got != want:
            failures.append(f"{name} = {got!r}, want {want} exactly")

    ds, nuis = big_sample
    reweighted, naive = estimate_doubly_robust(ds, nuis)
    if abs(reweighted.estimate - 3.0) > 3 * reweighted.se:
        failures.append(f"reweighted {reweighted.estimate:.3f} "
                        f"not within 3 se of 3.0")
    if abs(naive.estimate + 1.0) > 3 * naive.se:
        failures.append(f"naive {naive.estimate:.3f} not within 3 se of -1.0")

    table = or_table(ds, BootstrapConfig(replications=150, seed=9))
    for key, want in [("did_a", 5.0), ("did_b", 6.0), ("wdid_b", 2.0),
                      ("diff_ab", -1.0), ("diff_awb", 3.0)]:
        res = table[key]
        if abs(res.estimate - want) > 3 * res.se:
            failures.append(f"regression {key} = {res.estimate:.3f} "
                            f"not within 3 se of {want}")
    report(2, "closed forms exact and recovered at large n", failures)


# ---------------------------------------------------------------------------
# 3. Regression, weighting, and combined scores estimate the same means.
# ---------------------------------------------------------------------------

def test_criterion_3_score_agreement(big_sample):
    ds, nuis = big_sample
    ev = FitEvaluation(ds, nuis)
    failures = []
    pairs = [
        (ScoreKind.OR_A, ScoreKind.IPW_A, "group A regression vs weighting"),
        (ScoreKind.OR_A, ScoreKind.DR_A, "group A regression vs combined"),
        (ScoreKind.WOR, ScoreKind.WIPW, "reweighted regression vs weighting"),
        (ScoreKind.WOR, ScoreKind.WDR, "reweighted regression vs combined"),
    ]
    for first, second, label in pairs:
        a = score_vector(first, ev)
        b = score_vector(second, ev)
        gap = abs(float(np.mean(a)) - float(np.mean(b)))
        band = 3.0 * float(np.std(a - b, ddof=1)) / math.sqrt(ds.n)
        if gap > band:
            failures.append(f"{label}: gap {gap:.4f} exceeds {band:.4f}")
    report(3, "all three score constructions agree", failures)


# ---------------------------------------------------------------------------
# 4. One correctly specified nuisance model is enough.
# ---------------------------------------------------------------------------

def test_criterion_4_double_robustness():
    failures = []
    flat_prop_ds = simulate_sample(DgpSpec(n=20000, seed=211))
    flat_prop, _ = estimate_doubly_robust(
        flat_prop_ds,
        fit_nuisances(flat_prop_ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                      propensity_covariates=[]))
    if abs(flat_prop.estimate - 3.0) > 3 * flat_prop.se:
        failures.append(f"intercept-only propensity: {flat_prop.estimate:.3f} "
                        f"not within 3 se of 3.0")
    flat_out_ds = simulate_sample(DgpSpec(n=20000, seed=223))
    flat_out, _ = estimate_doubly_robust(
        flat_out_ds,
        fit_nuisances(flat_out_ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                      outcome_covariates=[]))
    if abs(flat_out.estimate - 3.0) > 3 * flat_out.se:
        failures.append(f"intercept-only regressions: {flat_out.estimate:.3f} "
                        f"not within 3 se of 3.0")
    report(4, "single correct nuisance model suffices", failures)


# ---------------------------------------------------------------------------
# 5. The minimum-wage reference table, when its data file is supplied.
# ---------------------------------------------------------------------------

def _replication_csv():
    override = os.environ.get("TRIDIFF_REPLICATION_CSV")
    root = Path(__file__).resolve().parent.parent
    candidates = ([Path(override)] if override else []) + [
        root / "data" / "minimum_wage.csv",
        root / "minimum_wage.csv",
    ]
    for path in candidates:
        if path.exists():
            return path
    return None


def test_criterion_5_reference_table_replication():
    path = _replication_csv()
    if path is None:
        print("criterion 5 (minimum-wage reference table): SKIPPED "
              "(no replication CSV; set TRIDIFF_REPLICATION_CSV)")
        pytest.skip("replication data not supplied")
    ds = load_replication_csv(path)
    boot = BootstrapConfig(replications=999, seed=0)
    failures = []
    for with_controls in (False, True):
        computed = {
            "did_a": ols_did(ds, Group.A, with_controls, SeKind.ROBUST),
            "did_b": ols_did(ds, Group.B, with_controls, SeKind.ROBUST),
            "diff_ab": ols_tdid(ds, with_controls, SeKind.ROBUST),
        }
        block = ds if with_controls else ds.without_covariates()
        computed_or = or_table(block, boot)
        for kind, values in (("ols", computed), ("or", computed_or)):
            for quantity, (point, se) in REFERENCE_TABLE[
                    (kind, with_controls)].items():
                res = values[quantity]
                tag = f"{kind} {quantity} ({'with' if with_controls else 'no'}"\
                      " controls)"
                if abs(res.estimate - point) > POINT_TOLERANCE:
                    failures.append(f"{tag}: {res.estimate:.3f} vs {point}")
                if abs(res.se - se) > SE_RELATIVE_TOLERANCE * se:
                    failures.append(f"{tag} se: {res.se:.3f} vs {se}")
    report(5, "minimum-wage reference table", failures)


# ---------------------------------------------------------------------------
# 6. Finite-sample identities that hold exactly, not just asymptotically.
# ---------------------------------------------------------------------------

def test_criterion_6_exact_identities(big_sample):
    ds, nuis = big_sample
    failures = []

    for cell in (Cell.A_ELIGIBLE, Cell.B_ELIGIBLE):
        gap = abs(float(np.mean(FitEvaluation(ds, nuis).weight_t(cell)))
                  - 1.0)
        if gap > 1e-12:
            failures.append(f"treatment weight mean off one by {gap:.2e}")

    small = simulate_sample(DgpSpec(n=600, seed=5))
    delta = small.delta_y()

    def cell_mean_contrast(group_is_a):
        g = small.group_is_a == group_is_a
        return (delta[g & small.eligible].mean()
                - delta[g & ~small.eligible].mean())

    saturated = ols_tdid(small, with_controls=False).estimate
    by_hand = cell_mean_contrast(True) - cell_mean_contrast(False)
    if abs(saturated - by_hand) > 1e-8:
        failures.append(f"saturated regression {saturated:.10f} vs "
                        f"cell means {by_hand:.10f}")

    zero = LinearModel(coefficients=np.zeros(2),
                       column_names=("intercept", "x"),
                       residual_variance=0.0, n_obs=1)
    zeroed = dataclasses.replace(
        nuis, outcome_models={c: zero for c in nuis.outcome_models})
    zeroed_ev = FitEvaluation(ds, zeroed)
    for combined, weighting in ((ScoreKind.DR_A, ScoreKind.IPW_A),
                                (ScoreKind.DR_B, ScoreKind.IPW_B),
                                (ScoreKind.WDR, ScoreKind.WIPW)):
        same = np.array_equal(
            score_vector(combined, zeroed_ev),
            score_vector(weighting, zeroed_ev))
        if not same:
            failures.append(f"zero regressions: {combined.value} differs "
                            f"from {weighting.value} pointwise")

    shifted = PanelDataset(
        ids=small.ids, y1=small.y1 + 1000.0, y2=small.y2 + 1000.0,
        group_is_a=small.group_is_a, eligible=small.eligible, x=small.x,
        covariate_names=small.covariate_names, mechanism=small.mechanism)
    base, _ = estimate_doubly_robust(
        small, fit_nuisances(small, NuisanceMode.SCORE_SET, trim_epsilon=0.0))
    moved, _ = estimate_doubly_robust(
        shifted,
        fit_nuisances(shifted, NuisanceMode.SCORE_SET, trim_epsilon=0.0))
    if abs(moved.estimate - base.estimate) > 1e-10:
        failures.append(f"outcome shift moved the contrast by "
                        f"{abs(moved.estimate - base.estimate):.2e}")
    report(6, "exact finite-sample identities", failures)


# ---------------------------------------------------------------------------
# 7. Covariate imbalance is the whole gap between the two estimators.
# ---------------------------------------------------------------------------

def test_criterion_7_imbalance_drives_the_gap(mc_default):
    failures = []
    balanced = run_monte_carlo(DgpSpec(n=2000, seed=13, mu_b=1.0), 200)
    summary = balanced.summary()
    gap = abs(summary["naive"]["mean"] - summary["reweighted"]["mean"])
    if gap > 0.05:
        failures.append(f"equal covariate means: estimators differ by "
                        f"{gap:.4f} > 0.05")
    summary = mc_default.summary()
    spread = summary["reweighted"]["mean"] - summary["naive"]["mean"]
    if not 3.9 <= spread <= 4.1:
        failures.append(f"default means: estimator gap {spread:.3f} "
                        f"not near 4")
    report(7, "covariate imbalance drives the naive gap", failures)


# ---------------------------------------------------------------------------
# 8. Reruns are byte-identical; parallel equals serial.
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    failures = []
    panel = tmp_path / "panel.csv"
    save_csv(simulate_sample(DgpSpec(n=400, seed=3)), panel)
    schema = json.dumps({
        "group": "group", "group_a_value": "a",
        "eligibility": "eligibility", "eligible_value": "2",
        "id": "id", "y1": "y1", "y2": "y2", "covariates": ["x"],
    })
    est = ["estimate", "--input", str(panel), "--schema", schema,
           "--methods", "dr,naive", "--trim", "0", "--bootstrap-reps", "8",
           "--seed", "5", "--dump-scores"]
    codes = (main(est + ["--out", str(tmp_path / "r1")]),
             main(est + ["--out", str(tmp_path / "r2")]))
    if codes != (0, 0):
        failures.append(f"estimate exited {codes}")
    else:
        for name in ("results.json", "results.txt", "scores.csv"):
            if ((tmp_path / "r1" / name).read_bytes()
                    != (tmp_path / "r2" / name).read_bytes()):
                failures.append(f"estimate rerun changed {name}")

    sim = ["simulate", "--n", "200", "--replications", "6", "--seed", "11",
           "--bins", "8"]
    codes = (main(sim + ["--out", str(tmp_path / "s1")]),
             main(sim + ["--out", str(tmp_path / "s2")]))
    if codes != (0, 0):
        failures.append(f"simulate exited {codes}")
    else:
        for name in ("summary.json", "histogram.csv"):
            if ((tmp_path / "s1" / name).read_bytes()
                    != (tmp_path / "s2" / name).read_bytes()):
                failures.append(f"simulate rerun changed {name}")

    spec = DgpSpec(n=200, seed=19)
    serial = run_monte_carlo(spec, 6)
    parallel = run_monte_carlo(spec, 6, n_jobs=2)
    same = (np.array_equal(serial.naive, parallel.naive)
            and np.array_equal(serial.reweighted, parallel.reweighted)
            and np.array_equal(serial.se_naive, parallel.se_naive)
            and np.array_equal(serial.se_reweighted, parallel.se_reweighted))
    if not same:
        failures.append("parallel and serial simulation runs differ")
    report(8, "byte-identical reruns, parallel equals serial", failures)
