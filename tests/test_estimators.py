"""Estimator behavior: analytic identities, influence-based variance,
bootstrap determinism, regressions, and the simulated ground truth.

Simulation-backed checks draw from the analytic design whose targets
are known in closed form (reweighted contrast 3, naive contrast -1 at
the default means), so every tolerance is a sampling band around an
independently known number, not a snapshot.
"""

import concurrent.futures
import cProfile
import dataclasses
import functools
import math
import pstats
import re

import numpy as np
import pytest

import tridiff.dgp as dgp_mod
import tridiff.estimators as est_mod
import tridiff.scores as scores_mod
from tridiff.data import AssignmentMechanism, Cell, Group, PanelDataset
from tridiff.dgp import (DgpSpec, closed_form_oracle, simulate_replicate,
                         simulate_sample)
from tridiff.estimators import (DR_METHODS, OR_METHODS, BootstrapConfig,
                                EstimandLabel, EstimateResult, Method, SeKind,
                                bias_diagnostic, bootstrap_replicates,
                                bootstrap_ses, estimate_doubly_robust,
                                ols_did, ols_tdid, refit_estimates)
from tridiff.exceptions import (EstimationError, ResamplingError,
                                UnsupportedMechanismError)
from tridiff.nuisance import (LinearModel, NuisanceMode, NuisanceSet,
                              PropensityModel, fit_linear, fit_nuisances)
from tridiff.scores import (FitEvaluation, ScoreKind, dump_scores,
                            score_means, score_vector)

REWEIGHTED = (Method.DR_REWEIGHTED,)
NAIVE = (Method.DR_NAIVE_DIFFERENCE,)


def dr_reweighted(ds, nuis) -> EstimateResult:
    return estimate_doubly_robust(ds, nuis, REWEIGHTED)[0]


def dr_naive(ds, nuis) -> EstimateResult:
    return estimate_doubly_robust(ds, nuis, NAIVE)[0]


@pytest.fixture(scope="module")
def big_sample():
    ds = simulate_sample(DgpSpec(n=20000, seed=11))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    return ds, nuis


@pytest.fixture(scope="module")
def small_sample():
    ds = simulate_sample(DgpSpec(n=600, seed=5))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    return ds, nuis


# ---------------------------------------------------------------------------
# Influence-function SEs, bit for bit against the hand-built formulas
# ---------------------------------------------------------------------------

def test_reweighted_se_is_influence_formula(small_sample):
    ds, nuis = small_sample
    res = dr_reweighted(ds, nuis)
    ev = FitEvaluation(ds, nuis)
    diff = score_vector(ScoreKind.DR_A, ev) - score_vector(ScoreKind.WDR, ev)
    tau = float(np.mean(diff))
    eta = diff - ev.weight_t(Cell.A_ELIGIBLE) * tau
    assert res.estimate == tau
    assert res.se == math.sqrt(float(np.mean(eta * eta)) / ds.n)
    assert np.array_equal(res.influence_values, eta)
    # the influence values average to zero by construction
    assert abs(np.mean(res.influence_values)) < 1e-10


def difference_of_means(ev, first, second):
    """Mean of the `first` score minus mean of group B's `second`, each
    recentred by its own target cell's treatment weight: (estimate, se,
    eta)."""
    psi_a, psi_b = score_vector(first, ev), score_vector(second, ev)
    mean_a, mean_b = float(np.mean(psi_a)), float(np.mean(psi_b))
    eta = ((psi_a - ev.weight_t(Cell.A_ELIGIBLE) * mean_a)
           - (psi_b - ev.weight_t(Cell.B_ELIGIBLE) * mean_b))
    se = math.sqrt(float(np.mean(eta * eta)) / ev.dataset.n)
    return mean_a - mean_b, se, eta


def test_naive_se_uses_per_component_centring(small_sample):
    ds, nuis = small_sample
    res = dr_naive(ds, nuis)
    estimate, se, eta = difference_of_means(
        FitEvaluation(ds, nuis), ScoreKind.DR_A, ScoreKind.DR_B)
    assert (res.estimate, res.se) == (estimate, se)
    assert np.array_equal(res.influence_values, eta)


def test_bias_diagnostic_is_influence_formula():
    ds = simulate_sample(DgpSpec(n=600, seed=5,
                                 mechanism=AssignmentMechanism.ONLY_GROUP_A))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    estimate, se, _ = difference_of_means(
        FitEvaluation(ds, nuis), ScoreKind.WDR, ScoreKind.DR_B)
    assert bias_diagnostic(ds, nuis) == (estimate, se)


# ---------------------------------------------------------------------------
# Ground truth on the analytic design
# ---------------------------------------------------------------------------

def test_estimates_recover_closed_forms(big_sample):
    ds, nuis = big_sample
    oracle = closed_form_oracle(DgpSpec(n=20000, seed=11))
    rew, nai = estimate_doubly_robust(ds, nuis)
    assert rew.estimate == pytest.approx(oracle.reweighted_diff,
                                         abs=4 * rew.se)
    assert nai.estimate == pytest.approx(oracle.naive_diff, abs=4 * nai.se)
    # the two contrasts bracket different numbers: -1 vs 3
    assert nai.estimate < 0.5 < rew.estimate
    assert rew.estimand_label is EstimandLabel.AVG_CATT_DIFF_ON_A
    assert nai.estimand_label is EstimandLabel.DESCRIPTIVE


def test_double_robustness_outcome_side():
    # correct outcome regressions, nonsense (intercept-only) propensity
    ds = simulate_sample(DgpSpec(n=20000, seed=17))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                         propensity_covariates=[])
    res = dr_reweighted(ds, nuis)
    assert res.estimate == pytest.approx(3.0, abs=3 * res.se)


def test_double_robustness_propensity_side():
    # correct propensity, intercept-only outcome regressions
    ds = simulate_sample(DgpSpec(n=20000, seed=19))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                         outcome_covariates=[])
    res = dr_reweighted(ds, nuis)
    assert res.estimate == pytest.approx(3.0, abs=3 * res.se)


def test_mechanism_changes_label_and_target():
    spec = DgpSpec(n=20000, seed=23,
                   mechanism=AssignmentMechanism.ONLY_GROUP_A)
    ds = simulate_sample(spec)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    res = dr_reweighted(ds, nuis)
    oracle = closed_form_oracle(spec)
    assert res.estimand_label is EstimandLabel.ATT_A
    assert oracle.target == pytest.approx(oracle.att_a)
    assert res.estimate == pytest.approx(oracle.target, abs=4 * res.se)


def test_bias_diagnostic_matches_mean_gap():
    spec = DgpSpec(n=20000, seed=29,
                   mechanism=AssignmentMechanism.ONLY_GROUP_A)
    ds = simulate_sample(spec)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    bias_hat, se = bias_diagnostic(ds, nuis)
    # trend gap delta(x)=x averaged under A vs B: mu_a - mu_b = -2
    assert bias_hat == pytest.approx(-2.0, abs=4 * se)
    assert se > 0


def test_bias_diagnostic_rejects_both_groups_mechanism(small_sample):
    ds, nuis = small_sample
    with pytest.raises(UnsupportedMechanismError):
        bias_diagnostic(ds, nuis)


# ---------------------------------------------------------------------------
# One evaluation of the fit for both doubly robust estimators
# ---------------------------------------------------------------------------

def _assert_same_result(got: EstimateResult, want: EstimateResult):
    assert got.estimate == want.estimate
    assert got.se == want.se
    assert (got.n, got.estimand_label, got.method) == (
        want.n, want.estimand_label, want.method)
    np.testing.assert_array_equal(got.influence_values, want.influence_values)


@pytest.mark.parametrize("normalize, trim_epsilon", [
    (False, None), (True, None), (False, 1e-4)])
def test_joint_estimator_equals_separate_estimators(small_sample, normalize,
                                                    trim_epsilon):
    # trim_epsilon None keeps the fit's own threshold
    ds, nuis = small_sample
    if normalize:
        nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                             normalize=True)
    if trim_epsilon is not None:
        nuis = dataclasses.replace(nuis, fit_options={
            **nuis.fit_options, "trim_epsilon": trim_epsilon})
    rew, naive = estimate_doubly_robust(ds, nuis)
    _assert_same_result(rew, dr_reweighted(ds, nuis))
    _assert_same_result(naive, dr_naive(ds, nuis))


@pytest.fixture
def counted(monkeypatch):
    """Records PropensityModel.predict calls, the outcome predictions
    (each LinearModel.predict, each batched NuisanceSet.outcome_means
    and the models it predicts) and the score kinds built."""
    calls = {"predict": 0, "outcome_predict": 0, "outcome_batches": 0,
             "batched_models": 0, "kinds": []}
    predict = PropensityModel.predict
    outcome_predict = LinearModel.predict
    outcome_means = NuisanceSet.outcome_means
    build = scores_mod.score_vector

    def counted_predict(self, x):
        calls["predict"] += 1
        return predict(self, x)

    def counted_outcome_predict(self, x):
        calls["outcome_predict"] += 1
        return outcome_predict(self, x)

    def counted_outcome_means(self, x):
        calls["outcome_batches"] += 1
        calls["batched_models"] += len(self.outcome_models)
        return outcome_means(self, x)

    def recorded_build(kind, *args, **kwargs):
        calls["kinds"].append(kind)
        return build(kind, *args, **kwargs)

    monkeypatch.setattr(PropensityModel, "predict", counted_predict)
    monkeypatch.setattr(LinearModel, "predict", counted_outcome_predict)
    monkeypatch.setattr(NuisanceSet, "outcome_means", counted_outcome_means)
    monkeypatch.setattr(scores_mod, "score_vector", recorded_build)
    return calls


def assert_one_outcome_batch(calls, models):
    # every fitted model predicted once, in one batched product, and no
    # model predicted on its own
    assert calls["outcome_predict"] == 0
    assert calls["outcome_batches"] == 1
    assert calls["batched_models"] == models


@pytest.mark.parametrize("methods, kinds", [
    (REWEIGHTED + NAIVE, [ScoreKind.DR_A, ScoreKind.WDR, ScoreKind.DR_B]),
    (REWEIGHTED, [ScoreKind.DR_A, ScoreKind.WDR]),
    (NAIVE, [ScoreKind.DR_A, ScoreKind.DR_B]),
], ids=["both", "reweighted", "naive"])
def test_one_prediction_per_evaluation(small_sample, counted, methods,
                                       kinds):
    ds, nuis = small_sample
    estimate_doubly_robust(ds, nuis, methods=methods)
    # no propensity prediction on the fitted sample, whose probabilities
    # the fit holds; the three fitted outcome models (A, Never), (B,
    # Eligible) and (B, Never) in one batch, whichever the kinds use
    assert counted["predict"] == 0
    assert_one_outcome_batch(counted, 3)
    # each kind once, and only the kinds the estimator needs
    assert counted["kinds"] == kinds


def test_dump_scores_predicts_each_model_once(small_sample, counted,
                                              tmp_path):
    # all nine kinds together use the three fitted outcome models, and
    # the fitted sample's propensities are the fit's own
    ds, nuis = small_sample
    dump_scores(FitEvaluation(ds, nuis), list(ScoreKind),
                tmp_path / "scores.csv")
    assert counted["predict"] == 0
    assert_one_outcome_batch(counted, 3)
    assert counted["kinds"] == list(ScoreKind)


def test_bias_diagnostic_builds_only_its_kinds(counted):
    ds = simulate_sample(DgpSpec(n=600, seed=5,
                                 mechanism=AssignmentMechanism.ONLY_GROUP_A))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    bias_diagnostic(ds, nuis)
    assert counted["predict"] == 0
    assert_one_outcome_batch(counted, 3)
    assert counted["kinds"] == [ScoreKind.WDR, ScoreKind.DR_B]


def test_evaluation_of_another_dataset_predicts_once(small_sample, counted):
    # a fit evaluated on units it was not fitted on predicts their
    # propensities, once per evaluation, exactly as the model does
    ds, nuis = small_sample
    other = simulate_sample(DgpSpec(n=400, seed=9))
    ev = FitEvaluation(other, nuis)
    estimate_doubly_robust(other, nuis, ev=ev)
    assert counted["predict"] == 1
    assert np.array_equal(ev.propensities(), nuis.propensity.predict(other.x))


# Python-level call budgets, as cProfile counts calls, each about 5%
# above its count. One evaluation of a fit (dr and naive, n=2000) makes
# 196 calls: 11 are the score formula and weight operands it shares
# with the cell-sum means; it made 237 calls when each model was
# predicted on its own, and a Python-level hash per cell key lookup and
# np.mean-style wrappers on the hot path took it to about 900. One
# Monte Carlo replication (n=2000) makes 738 calls, 1,202 when each
# cell's regression was its own fit. One bootstrap draw of the
# benchmark's n=5000 panel makes 663 from the one cell-sum evaluation
# (685 when a per-unit evaluation was built around it and Method keys
# hashed in Python, 651 when the means had formulas of their own), 734
# from per-unit score vectors and 1,232 before that.
MAX_EVALUATION_CALLS = 206
MAX_REPLICATION_CALLS = 775
MAX_DRAW_CALLS = 696


def profiled_calls(function, *args):
    """cProfile's count of the calls one warm run of function makes: a
    first run pays the first-call imports and caches."""
    function(*args)
    profile = cProfile.Profile()
    profile.runcall(function, *args)
    return pstats.Stats(profile).total_calls


def test_evaluation_call_count_stays_low():
    # deterministic, like the Newton-iteration guards: a helper call
    # added per cell or per unit of work shows up here at once
    ds = simulate_sample(DgpSpec(n=2000, seed=1))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    calls = profiled_calls(estimate_doubly_robust, ds, nuis)
    assert calls <= MAX_EVALUATION_CALLS, calls


def test_replication_call_count_stays_low():
    # the simulate benchmark's unit of work: a fresh panel, its logit and
    # stacked cell regressions, and their dr and naive evaluation
    calls = profiled_calls(dgp_mod._run_one, DgpSpec(n=2000, seed=1), 1,
                           {"trim_epsilon": 0.0})
    assert calls <= MAX_REPLICATION_CALLS, calls


def test_bootstrap_draw_call_count_stays_low():
    # the estimate-bootstrap benchmark's unit of work: a resample of its
    # n=5000 panel with good overlap, refitted and evaluated for the dr,
    # naive and outcome-regression differences at the default trim
    ds = simulate_sample(DgpSpec(n=5000, seed=1, mu_b=1.5))
    refit = refit_estimates(fit_nuisances(ds), DR_METHODS + (
        Method.OR_DIFFERENCE, Method.OR_REWEIGHTED_DIFFERENCE))
    calls = profiled_calls(est_mod._estimate_draw, ds, refit, 1, 1)
    assert calls <= MAX_DRAW_CALLS, calls


def test_bootstrap_draw_builds_one_cell_sum_evaluation(monkeypatch):
    # a draw of the benchmark panel reads only score means, so it builds
    # no per-unit evaluation
    ds = simulate_sample(DgpSpec(n=5000, seed=1, mu_b=1.5))
    refit = refit_estimates(fit_nuisances(ds), DR_METHODS + OR_METHODS)
    built = []
    init = FitEvaluation.__init__

    def counted_init(self, *args):
        built.append(type(self))
        init(self, *args)
    monkeypatch.setattr(FitEvaluation, "__init__", counted_init)
    assert not isinstance(est_mod._estimate_draw(ds, refit, 1, 1),
                          est_mod._Draw)
    assert built == [scores_mod._CellSums]


def test_evaluation_of_another_fit_or_dataset_is_rejected():
    spec = DgpSpec(n=600, seed=5, mechanism=AssignmentMechanism.ONLY_GROUP_A)
    ds = simulate_sample(spec)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    ev = FitEvaluation(ds, nuis)
    # equal in value, but not the objects the evaluation was built from
    other_fit = dataclasses.replace(nuis)
    other_data = simulate_sample(spec)
    for data, fit in ((ds, other_fit), (other_data, nuis)):
        with pytest.raises(ValueError, match="another dataset or another fit"):
            estimate_doubly_robust(data, fit, ev=ev)
        with pytest.raises(ValueError, match="another dataset or another fit"):
            bias_diagnostic(data, fit, ev=ev)
    # the evaluation of this fit on this dataset is reused as given
    for got, want in zip(estimate_doubly_robust(ds, nuis, ev=ev),
                         estimate_doubly_robust(ds, nuis)):
        _assert_same_result(got, want)
    assert bias_diagnostic(ds, nuis, ev=ev) == bias_diagnostic(ds, nuis)


# ---------------------------------------------------------------------------
# Invariances
# ---------------------------------------------------------------------------

def shift_outcomes(ds, c):
    return PanelDataset(ids=ds.ids, y1=ds.y1 + c, y2=ds.y2 + c,
                        group_is_a=ds.group_is_a, eligible=ds.eligible,
                        x=ds.x, covariate_names=ds.covariate_names,
                        mechanism=ds.mechanism)


def test_location_shift_invariance(small_sample):
    ds, _ = small_sample
    shifted = shift_outcomes(ds, 1000.0)
    base = dr_reweighted(
        ds, fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0))
    moved = dr_reweighted(
        shifted, fit_nuisances(shifted, NuisanceMode.SCORE_SET,
                               trim_epsilon=0.0))
    assert moved.estimate == pytest.approx(base.estimate, abs=1e-10)


def test_ols_location_shift_invariance(small_sample):
    ds, _ = small_sample
    shifted = shift_outcomes(ds, 1000.0)
    assert ols_tdid(shifted, True).estimate == pytest.approx(
        ols_tdid(ds, True).estimate, abs=1e-8)


def test_row_permutation_invariance(small_sample):
    ds, _ = small_sample
    perm = np.random.default_rng(77).permutation(ds.n)
    shuffled = ds.subset(perm)
    for build, run in (
            (NuisanceMode.SCORE_SET,
             lambda d, nu: dr_reweighted(d, nu).estimate),
            (NuisanceMode.SCORE_SET,
             lambda d, nu: dr_naive(d, nu).estimate),
            (NuisanceMode.OUTCOME_ONLY,
             lambda d, nu: or_table(d, nu)["did_a"].estimate)):
        base = run(ds, fit_nuisances(ds, build, trim_epsilon=0.0))
        moved = run(shuffled, fit_nuisances(shuffled, build,
                                            trim_epsilon=0.0))
        assert moved == pytest.approx(base, abs=1e-8)
    assert ols_tdid(shuffled, True).estimate == pytest.approx(
        ols_tdid(ds, True).estimate, abs=1e-8)


# ---------------------------------------------------------------------------
# Interaction regressions on the outcome change
# ---------------------------------------------------------------------------

def cell_mean_did(ds, group_is_a_value):
    d = ds.delta_y()
    g = ds.group_is_a == group_is_a_value
    return (d[g & ds.eligible].mean() - d[g & ~ds.eligible].mean())


def test_saturated_regression_equals_cell_means(small_sample):
    # no-controls interaction coefficients are cell-mean differences
    ds, _ = small_sample
    did_a = ols_did(ds, Group.A, with_controls=False)
    did_b = ols_did(ds, Group.B, with_controls=False)
    tdid = ols_tdid(ds, with_controls=False)
    assert did_a.estimate == pytest.approx(cell_mean_did(ds, True), abs=1e-10)
    assert did_b.estimate == pytest.approx(cell_mean_did(ds, False), abs=1e-10)
    assert tdid.estimate == pytest.approx(
        cell_mean_did(ds, True) - cell_mean_did(ds, False), abs=1e-10)


def test_tdid_nests_the_two_group_regressions(small_sample):
    ds, _ = small_sample
    lhs = ols_tdid(ds, with_controls=False).estimate
    rhs = (ols_did(ds, Group.A, with_controls=False).estimate
           - ols_did(ds, Group.B, with_controls=False).estimate)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_ols_did_counts_group_units(small_sample):
    ds, _ = small_sample
    res = ols_did(ds, Group.A, with_controls=True)
    assert res.n == int(np.count_nonzero(ds.group_is_a))
    assert res.method is Method.OLS_DID_A


def one_unit_per_cell(ds):
    """The rows of the first unit of each cell, in Cell order."""
    return ds.subset(np.array([np.flatnonzero(mask)[0]
                               for mask in ds.cell_masks]))


@pytest.mark.parametrize("kind", list(SeKind))
def test_saturated_regressions_have_no_se(kind):
    # one unit per cell: group A's DID regression has two units for two
    # coefficients and the TDID one four for four, so they fit exactly
    # and leave no residual to estimate a variance from
    ds = one_unit_per_cell(simulate_sample(DgpSpec(n=200, seed=3)))
    dy = ds.delta_y()
    did_a = ols_did(ds, Group.A, False, kind)
    assert did_a.se is None and did_a.to_dict()["se"] is None
    assert did_a.influence_values is None
    assert did_a.estimate == pytest.approx(dy[Cell.A_ELIGIBLE]
                                           - dy[Cell.A_NEVER])
    tdid = ols_tdid(ds, False, kind)
    assert tdid.se is None and tdid.influence_values is None
    assert tdid.estimate == pytest.approx(
        dy[Cell.A_ELIGIBLE] - dy[Cell.A_NEVER]
        - dy[Cell.B_ELIGIBLE] + dy[Cell.B_NEVER])


def test_ols_missing_side_raises():
    ds = simulate_sample(DgpSpec(n=200, seed=3))
    only_b = ds.subset(np.flatnonzero(~ds.group_is_a))
    with pytest.raises(EstimationError):
        ols_did(only_b, Group.A, with_controls=False)


REGRESSIONS = {  # each regression, its units and its estimate's column
    "tdid": (lambda ds, c, kind: ols_tdid(ds, c, kind),
             lambda ds: np.ones(ds.n, dtype=bool), 3),
    "did_a": (lambda ds, c, kind: ols_did(ds, Group.A, c, kind),
              lambda ds: ds.group_is_a, 1),
    "did_b": (lambda ds, c, kind: ols_did(ds, Group.B, c, kind),
              lambda ds: ~ds.group_is_a, 1)}


@pytest.mark.parametrize("name", REGRESSIONS)
@pytest.mark.parametrize("controls", [True, False])
def test_regression_influence_values_give_the_hc1_se(small_sample, name,
                                                     controls):
    # one eta_i = n [(X'X)^{-1} x_i]_k e_i per regression unit, whatever
    # the SE kind; they sum to zero by the normal equations, and the hc1
    # se is sqrt(sum(eta^2) / (n - p) / n) of them bit for bit
    ds, _ = small_sample
    regression, units, _ = REGRESSIONS[name]
    robust = regression(ds, controls, SeKind.ROBUST)
    classical = regression(ds, controls, SeKind.CLASSICAL)
    eta = robust.influence_values
    n = int(np.count_nonzero(units(ds)))
    p = (4 if name == "tdid" else 2) + (ds.d if controls else 0)
    assert robust.n == n and eta.shape == (n,)
    assert abs(eta.sum()) <= 1e-12 * n * np.max(np.abs(eta))
    assert robust.se == est_mod._influence_se(eta, p)
    assert np.array_equal(classical.influence_values, eta)
    assert classical.se > 0
    assert classical.se != pytest.approx(robust.se, rel=1e-6)


@pytest.mark.parametrize("name", REGRESSIONS)
@pytest.mark.parametrize("controls", [True, False])
def test_sandwich_se_equals_by_hand_reference(small_sample, name,
                                              controls):
    # the outcome change on the cell columns (and x), fitted by lstsq,
    # with the meat summed unit by unit: sum_i x_i x_i' e_i^2
    ds, _ = small_sample
    regression, units, column = REGRESSIONS[name]
    mask = units(ds)
    e, g = ds.eligible[mask].astype(float), ds.group_is_a[mask].astype(float)
    cells = [np.ones_like(e), e] if name != "tdid" else [
        np.ones_like(e), e, g, e * g]
    design = np.column_stack(cells + ([ds.x[mask]] if controls else []))
    dy = ds.y2[mask] - ds.y1[mask]
    beta = np.linalg.lstsq(design, dy, rcond=None)[0]
    resid = dy - design @ beta
    n, p = design.shape
    meat = sum(np.outer(row, row) * r * r for row, r in zip(design, resid))
    bread = np.linalg.inv(design.T @ design)
    cov = n / (n - p) * bread @ meat @ bread
    res = regression(ds, controls, SeKind.ROBUST)
    assert res.estimate == pytest.approx(beta[column], rel=1e-12)
    assert res.se == pytest.approx(math.sqrt(cov[column, column]), rel=1e-12)
    eta = n * (design @ bread[column]) * resid
    np.testing.assert_allclose(res.influence_values, eta, rtol=0,
                               atol=1e-10 * np.max(np.abs(eta)))


def test_ols_tdid_and_dr_influence_values_pair_unit_by_unit(small_sample):
    # the paired contrast of ols-tdid against dr reads both estimators'
    # influence values unit by unit: one per panel unit each, in the
    # panel's unit order, so that permuting the panel permutes both
    ds, nuis = small_sample
    ols = ols_tdid(ds, True).influence_values
    dr = dr_reweighted(ds, nuis).influence_values
    assert ols.shape == dr.shape == (ds.n,)
    perm = np.random.default_rng(4).permutation(ds.n)
    moved = ds.subset(perm)
    for got, want in (
            (ols_tdid(moved, True).influence_values, ols),
            (dr_reweighted(moved, fit_nuisances(
                moved, NuisanceMode.SCORE_SET,
                trim_epsilon=0.0)).influence_values, dr)):
        np.testing.assert_allclose(got, want[perm], rtol=0,
                                   atol=1e-10 * np.max(np.abs(want)))
    paired_se = math.sqrt(float(np.mean((ols - dr) ** 2)) / ds.n)
    assert math.isfinite(paired_se) and paired_se > 0


def test_controls_move_the_tdid_regression():
    # x shifted by 1 for (A, Eligible) units: the cell means of x now
    # differ by eligibility, so the controlled TDID is the cell-mean TDID
    # of the change minus the pooled within-cell slope times the cell-mean
    # TDID of x (Frisch-Waugh-Lovell on the saturated cell columns)
    ds = simulate_sample(DgpSpec(n=2000, seed=1, mu_b=1.5))
    shifted = PanelDataset(
        ids=ds.ids, y1=ds.y1, y2=ds.y2, group_is_a=ds.group_is_a,
        eligible=ds.eligible,
        x=ds.x + (ds.group_is_a & ds.eligible)[:, None],
        covariate_names=ds.covariate_names, mechanism=ds.mechanism)
    without = ols_tdid(shifted, with_controls=False).estimate
    with_x = ols_tdid(shifted, with_controls=True).estimate
    assert without == ols_tdid(ds, with_controls=False).estimate
    assert abs(with_x - without) > 1.0

    x, dy, codes = shifted.x[:, 0], shifted.delta_y(), shifted.cell_codes()
    x_within, dy_within = x.copy(), dy.copy()
    for cell in Cell:
        in_cell = codes == cell
        x_within[in_cell] -= x[in_cell].mean()
        dy_within[in_cell] -= dy[in_cell].mean()
    slope = (x_within @ dy_within) / (x_within @ x_within)

    def cell_tdid(values):
        mean = {cell: values[codes == cell].mean() for cell in Cell}
        return (mean[Cell.A_ELIGIBLE] - mean[Cell.A_NEVER]
                - mean[Cell.B_ELIGIBLE] + mean[Cell.B_NEVER])

    assert with_x == pytest.approx(cell_tdid(dy) - slope * cell_tdid(x),
                                   abs=1e-10)


def test_tdid_regression_se_is_calibrated():
    # under this process eligibility is independent of x within a group,
    # so with or without controls the regression's limit is naive_diff;
    # 1,000 replications at n=2000 and good overlap
    spec = DgpSpec(n=2000, seed=12, mu_b=1.5)
    reps = 1000
    results = [[ols_tdid(ds, controls) for controls in (False, True)]
               for ds in (simulate_replicate(spec, r) for r in range(reps))]
    estimates = np.array([[res.estimate for res in row] for row in results])
    ses = np.array([[res.se for res in row] for row in results])
    sd = estimates.std(axis=0, ddof=1)
    naive_diff = closed_form_oracle(spec).naive_diff
    for j, controls in enumerate(("without", "with")):
        ratio = ses[:, j].mean() / sd[j]
        assert 0.9 <= ratio <= 1.1, f"{controls} controls: SE/sd {ratio:.3f}"
        z = (estimates[:, j].mean() - naive_diff) / (sd[j] / math.sqrt(reps))
        assert abs(z) <= 4, f"{controls} controls: mean {z:.2f} MC SE off"


def test_ols_recovers_simulated_interaction(big_sample):
    # with unequal covariate means the no-controls TDID regression centres
    # on the naive contrast, not the reweighted one
    ds, _ = big_sample
    res = ols_tdid(ds, with_controls=False)
    assert res.estimate == pytest.approx(-1.0, abs=0.3)


# ---------------------------------------------------------------------------
# Outcome-regression benchmarks
# ---------------------------------------------------------------------------

OR_KEYS = {"did_a": Method.OR_DID_A, "did_b": Method.OR_DID_B,
           "wdid_b": Method.OR_WDID_B, "diff_ab": Method.OR_DIFFERENCE,
           "diff_awb": Method.OR_REWEIGHTED_DIFFERENCE}


def or_table(ds, nuis):
    """The OR_METHODS' results keyed by their reference-table names."""
    results = estimate_doubly_robust(ds, nuis, methods=OR_METHODS)
    assert tuple(OR_KEYS.values()) == OR_METHODS
    return dict(zip(OR_KEYS, results))


@pytest.fixture(scope="module")
def or_sample():
    ds = simulate_sample(DgpSpec(n=20000, seed=37))
    return ds, fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY)


def test_or_quantities_recover_closed_forms(or_sample):
    ds, nuis = or_sample
    table = or_table(ds, nuis)
    assert table["did_a"].estimate == pytest.approx(5.0, abs=0.2)
    assert table["did_b"].estimate == pytest.approx(6.0, abs=0.2)
    assert table["wdid_b"].estimate == pytest.approx(2.0, abs=0.2)
    assert table["diff_ab"].estimate == pytest.approx(-1.0, abs=0.3)
    assert table["diff_awb"].estimate == pytest.approx(3.0, abs=0.3)
    assert table["diff_awb"].method is Method.OR_REWEIGHTED_DIFFERENCE
    assert all(r.se is None for r in table.values())


def level_model_or_quantities(ds):
    """Reference for the five OR quantities, the long way: regress y1 and
    y2 on the covariates within each cell, then average one group's DID
    contrast of fitted levels over a target cell."""
    def did_of(group, target):
        x_target = ds.x[ds.cell_masks[target]]
        contrast = np.zeros(len(x_target))
        for cell in (c for c in Cell if c.group is group):
            sign = 1.0 if cell.eligible else -1.0
            mask = ds.cell_masks[cell]
            for y, period_sign in ((ds.y2, 1.0), (ds.y1, -1.0)):
                model = fit_linear(ds.x[mask], y[mask])
                contrast += sign * period_sign * model.predict(x_target)
        return float(np.mean(contrast))

    a, b, wb = (did_of(Group.A, Cell.A_ELIGIBLE),
                did_of(Group.B, Cell.B_ELIGIBLE),
                did_of(Group.B, Cell.A_ELIGIBLE))
    return {"did_a": a, "did_b": b, "wdid_b": wb, "diff_ab": a - b,
            "diff_awb": a - wb}


@pytest.mark.parametrize("covariates", [True, False],
                         ids=["covariates", "intercept-only"])
@pytest.mark.parametrize("mechanism", list(AssignmentMechanism),
                         ids=lambda m: m.value)
def test_or_quantities_equal_level_model_reference(mechanism, covariates):
    ds = simulate_sample(DgpSpec(n=2000, seed=71, mechanism=mechanism))
    if not covariates:
        ds = ds.without_covariates()
    table = or_table(ds, fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY))
    for key, want in level_model_or_quantities(ds).items():
        assert table[key].method is OR_KEYS[key]
        assert table[key].estimate == pytest.approx(want, abs=1e-12)


def test_or_results_are_score_means_without_se(small_sample):
    # a row mixing regression scores gets no influence-function SE; the
    # A-minus-weighted-B contrast is the mean of one per-unit difference,
    # since both of its scores target (A, Eligible)
    ds, nuis = small_sample
    table = or_table(ds, nuis)
    assert all(r.se is None and r.influence_values is None
               for r in table.values())
    ev = FitEvaluation(ds, nuis)
    assert table["diff_awb"].estimate == float(np.mean(
        score_vector(ScoreKind.OR_A, ev) - score_vector(ScoreKind.WOR, ev)))
    assert table["did_a"].estimate == float(np.mean(
        score_vector(ScoreKind.OR_A, ev)))


def test_or_table_consistency(small_sample):
    ds, _ = small_sample
    nuis = fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY)
    boot = BootstrapConfig(replications=30, seed=8)
    table = or_table(ds, nuis)
    assert set(table) == {"did_a", "did_b", "wdid_b", "diff_ab", "diff_awb"}
    assert table["diff_ab"].estimate == pytest.approx(
        table["did_a"].estimate - table["did_b"].estimate, abs=1e-12)
    assert table["diff_awb"].estimate == pytest.approx(
        table["did_a"].estimate - table["wdid_b"].estimate, abs=1e-12)
    runner = refit_estimates(nuis, methods=OR_METHODS)
    assert all(se > 0 for se in bootstrap_ses(ds, runner, boot))
    # a full-sample refit reproduces the points: the fit options carry
    # the outcome-only mode
    assert nuis.fit_options["mode"] is NuisanceMode.OUTCOME_ONLY
    # bit for bit the OR rows of the fit's own score means; the table
    # averages per-unit scores, so only up to that sum's rounding
    a, b, wb = score_means(
        ds, nuis, [ScoreKind.OR_A, ScoreKind.OR_B, ScoreKind.WOR]).values()
    assert runner(ds) == (a, b, wb, a - b, a - wb)
    assert runner(ds) == pytest.approx(
        tuple(res.estimate for res in table.values()), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_se_deterministic(small_sample):
    ds, nuis = small_sample
    runner = refit_estimates(nuis, methods=REWEIGHTED)
    config = BootstrapConfig(replications=25, seed=42)
    (first,) = bootstrap_ses(ds, runner, config)
    (second,) = bootstrap_ses(ds, runner, config)
    assert first == second
    assert first > 0
    (other,) = bootstrap_ses(ds, runner,
                             BootstrapConfig(replications=25, seed=43))
    assert other != first


def test_bootstrap_se_is_sd_of_replicates(small_sample):
    ds, nuis = small_sample
    runner = refit_estimates(nuis, methods=REWEIGHTED)
    config = BootstrapConfig(replications=20, seed=4)
    reps = bootstrap_replicates(ds, runner, config)
    assert reps.shape == (20, 1)
    assert bootstrap_ses(ds, runner, config)[0] == pytest.approx(
        float(np.std(reps[:, 0], ddof=1)), abs=1e-14)


def test_bootstrap_of_constant_estimator_is_zero(small_sample):
    ds, _ = small_sample
    assert bootstrap_ses(ds, lambda d: (7.25,),
                         BootstrapConfig(replications=12, seed=0)) == (0.0,)


def test_naive_refit_runner_differs(small_sample):
    ds, nuis = small_sample
    (rew,) = refit_estimates(nuis, methods=REWEIGHTED)(ds)
    (naive,) = refit_estimates(nuis, methods=NAIVE)(ds)
    assert rew == pytest.approx(dr_reweighted(ds, nuis).estimate, abs=1e-12)
    assert naive == pytest.approx(dr_naive(ds, nuis).estimate, abs=1e-12)
    assert rew != naive


def test_naive_refit_is_a_view_on_the_joint_refit(small_sample, counted):
    ds, nuis = small_sample
    (naive,) = refit_estimates(nuis, methods=NAIVE)(ds)
    # one refit, evaluated on the sample it was fitted on, so with no
    # prediction, and from its cell sums, so with no per-unit score
    assert counted["predict"] == 0
    assert counted["kinds"] == []
    assert counted["outcome_batches"] == counted["outcome_predict"] == 0
    both = refit_estimates(nuis)(ds)
    assert both == (
        refit_estimates(nuis, methods=REWEIGHTED)(ds)[0], naive)


@pytest.mark.parametrize("normalize", [False, True])
def test_paired_bootstrap_ses_equal_separate_passes(small_sample, normalize):
    ds, _ = small_sample
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                         normalize=normalize)
    # with this many draws, np.std(draws, axis=0) on the 2-D draws would
    # differ from the 1-D sd in the last bit
    config = BootstrapConfig(replications=99, seed=8)
    paired = bootstrap_ses(ds, refit_estimates(nuis), config)
    assert paired == (
        bootstrap_ses(ds, refit_estimates(nuis, REWEIGHTED), config)[0],
        bootstrap_ses(ds, refit_estimates(nuis, NAIVE), config)[0])


def test_normalized_refit_reproduces_the_fit(small_sample):
    # a refit takes normalization from the fit's options: on the fitted
    # sample itself it gives the fit's score means bit for bit, and its
    # estimates up to the rounding of the per-unit sums, which an
    # unnormalized refit would miss by a few hundredths
    ds, _ = small_sample
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                         normalize=True)
    methods = DR_METHODS + OR_METHODS
    refit = refit_estimates(nuis, methods)(ds)
    dr_a, wdr, dr_b, or_a, or_b, wor = score_means(ds, nuis, [
        ScoreKind.DR_A, ScoreKind.WDR, ScoreKind.DR_B, ScoreKind.OR_A,
        ScoreKind.OR_B, ScoreKind.WOR]).values()
    assert refit == (dr_a - wdr, dr_a - dr_b, or_a, or_b, wor, or_a - or_b,
                     or_a - wor)
    assert refit == pytest.approx(tuple(
        res.estimate for res in estimate_doubly_robust(ds, nuis, methods)),
        rel=1e-12, abs=0)


def test_degenerate_resamples_redrawn_then_capped(small_sample, monkeypatch):
    ds, nuis = small_sample
    runner = refit_estimates(nuis)
    # every resample repeats unit 0, so it holds one cell
    monkeypatch.setattr(est_mod, "_draw_indices",
                        lambda n, seed, counter: np.zeros(n, dtype=int))
    with pytest.raises(ResamplingError):
        bootstrap_ses(ds, runner, BootstrapConfig(replications=3, seed=0))


def only_some_draws_usable(usable, draw_indices, n, seed, counter):
    """Draw `counter`'s units if it is in `usable`, else unit 0 n times,
    which leaves three cells empty."""
    if counter in usable:
        return draw_indices(n, seed, counter)
    return np.zeros(n, dtype=int)


def failing_estimator(d):
    raise EstimationError(f"the refit on units {d.ids[:4].tolist()} fails")


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_resampling_cap_beats_a_failing_refit(small_sample, monkeypatch,
                                              n_jobs):
    # only draws 3 and 17 of the first 30 have every cell, and both fail
    # to refit, so they are redrawn too: the cap is raised, counting
    # both kinds of redraw, however many workers refit them
    ds, _ = small_sample
    monkeypatch.setattr(est_mod, "_draw_indices", functools.partial(
        only_some_draws_usable, (3, 17), est_mod._draw_indices))
    with pytest.raises(ResamplingError, match=re.escape(
            "exceeded 30 resampling attempts with only 0 usable replicates: "
            "28 resample(s) lacked a cell and 2 refit(s) failed")):
        bootstrap_ses(ds, failing_estimator,
                      BootstrapConfig(replications=3, seed=0), n_jobs=n_jobs)


def buggy_estimator(d):
    raise ZeroDivisionError(f"the refit on units {d.ids[:4].tolist()} fails")


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_the_first_failing_kept_draw_is_raised(small_sample, n_jobs):
    # an exception that is no TridiffError is a bug, not a redraw: the
    # first draw's is raised as it is
    ds, _ = small_sample
    first = ds.ids[est_mod._draw_indices(ds.n, 0, 0)[:4]].tolist()
    with pytest.raises(ZeroDivisionError,
                       match=re.escape(f"units {first} fails")):
        bootstrap_ses(ds, buggy_estimator,
                      BootstrapConfig(replications=4, seed=0), n_jobs=n_jobs)


def cell_gap(d):
    dd = d.delta_y()
    return (float(dd[d.group_is_a & d.eligible].mean()
                  - dd[d.group_is_a & ~d.eligible].mean()),)


def resample_ids(d):
    """A fingerprint of the resample: its unit ids, in draw order."""
    return tuple(float(i) for i in d.ids)


def usable_draws(dataset, config):
    """Reference selection rule: the counters of the first
    config.replications draws whose resample has every (group,
    eligibility) cell, found by drawing each resample in turn."""
    cells = dataset.cell_codes()
    usable = []
    counter = 0
    while len(usable) < config.replications:
        idx = est_mod._draw_indices(dataset.n, config.seed, counter)
        if np.bincount(cells[idx], minlength=4).all():
            usable.append(counter)
        counter += 1
    return usable


@pytest.fixture(scope="module")
def sparse_panel():
    # tiny cells make degenerate resamples likely, exercising the redraw
    r = np.random.default_rng(55)
    n = 24
    group = np.arange(n) % 2 == 0
    elig = np.repeat([True] * 2 + [False] * 10, 2)
    return PanelDataset(ids=np.arange(n), y1=r.normal(size=n),
                        y2=r.normal(size=n), group_is_a=group, eligible=elig,
                        x=np.empty((n, 0)), covariate_names=(),
                        mechanism=AssignmentMechanism.BOTH_GROUPS)


def test_bootstrap_empty_cell_redraw_is_deterministic(sparse_panel):
    ds = sparse_panel
    config = BootstrapConfig(replications=40, seed=6)
    assert usable_draws(ds, config)[-1] >= 40  # some were redrawn
    serial = bootstrap_ses(ds, cell_gap, config)
    assert serial == bootstrap_ses(ds, cell_gap, config)
    # worker processes get the same draws, redraws included
    assert serial == bootstrap_ses(ds, cell_gap, config, n_jobs=2)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_bootstrap_evaluates_the_first_usable_draws_in_order(sparse_panel,
                                                             n_jobs):
    ds = sparse_panel
    config = BootstrapConfig(replications=40, seed=6)
    expected = [list(resample_ids(ds.subset(est_mod._draw_indices(
        ds.n, config.seed, counter)))) for counter in usable_draws(ds, config)]
    assert bootstrap_replicates(ds, resample_ids, config,
                                n_jobs).tolist() == expected


def test_each_bootstrap_round_has_its_own_worker_pool(sparse_panel,
                                                      monkeypatch):
    # the redraws take a second round, which starts two workers of its
    # own once the first round's are shut down; the draws are the serial
    # ones
    ds = sparse_panel
    config = BootstrapConfig(replications=40, seed=6)
    serial = bootstrap_replicates(ds, resample_ids, config)
    events = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append(("start", kwargs["max_workers"]))
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            events.append(("map", sum(map(len, args[1]))))
            return super().map(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            events.append(("shutdown",))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountedPool)
    assert np.array_equal(bootstrap_replicates(ds, resample_ids, config,
                                               n_jobs=2), serial)
    assert [event[0] for event in events] == ["start", "map", "shutdown"] * 2
    assert events[0] == events[3] == ("start", 2)
    assert events[1] == ("map", 40)


def fails_on(fingerprint, d):
    if resample_ids(d) == fingerprint:
        raise EstimationError("this refit fails")
    return resample_ids(d)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_draws_past_the_last_kept_one_are_dropped(sparse_panel, n_jobs):
    # the second round takes the 41st usable draw too: its failure is
    # dropped with it
    ds = sparse_panel
    config = BootstrapConfig(replications=40, seed=6)
    extra = usable_draws(ds, BootstrapConfig(replications=41, seed=6))[-1]
    estimator = functools.partial(fails_on, resample_ids(ds.subset(
        est_mod._draw_indices(ds.n, config.seed, extra))))
    assert np.array_equal(bootstrap_replicates(ds, estimator, config, n_jobs),
                          bootstrap_replicates(ds, resample_ids, config))


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_refits_that_fail_are_redrawn(sparse_panel, n_jobs):
    # the third usable draw's refit raises a TridiffError: it is redrawn
    # as a draw that lacks a cell is, and the 41st usable draw takes its
    # place
    ds = sparse_panel
    config = BootstrapConfig(replications=40, seed=6)
    counters = usable_draws(ds, BootstrapConfig(replications=41, seed=6))
    fingerprints = [resample_ids(ds.subset(est_mod._draw_indices(
        ds.n, config.seed, counter))) for counter in counters]
    estimator = functools.partial(fails_on, fingerprints[2])
    assert bootstrap_replicates(ds, estimator, config, n_jobs).tolist() == [
        list(f) for f in fingerprints[:2] + fingerprints[3:]]


def test_bootstrap_refits_in_workers_equal_serial(small_sample):
    ds, nuis = small_sample
    runner = refit_estimates(nuis, methods=DR_METHODS + OR_METHODS)
    config = BootstrapConfig(replications=20, seed=3)
    serial = bootstrap_replicates(ds, runner, config, n_jobs=1)
    assert serial.shape == (20, 7)
    assert np.array_equal(bootstrap_replicates(ds, runner, config, n_jobs=2),
                          serial)


# Newton iterations of 30 bootstrap refits of an n=5000 panel with good
# overlap: each refit starts from its own cell moments and takes 2
# (60 in all); the zero start, the fallback for an unusable moment
# start, takes 4 (120 in all)
MAX_REFIT_NEWTON_ITERS = 75


def test_bootstrap_refits_take_few_newton_iterations(monkeypatch):
    # deterministic, like the traced Newton-iteration guards: a refit
    # that loses the moment-matched start shows here at once
    ds = simulate_sample(DgpSpec(n=5000, seed=1, mu_b=1.5))
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
    iters = []

    def counted(*args, **kwargs):
        fit = fit_nuisances(*args, **kwargs)
        iters.append(fit.propensity.n_iter)
        return fit

    monkeypatch.setattr(est_mod, "fit_nuisances", counted)
    bootstrap_ses(ds, refit_estimates(nuis),
                  BootstrapConfig(replications=30, seed=1), n_jobs=1)
    assert len(iters) == 30
    assert sum(iters) < MAX_REFIT_NEWTON_ITERS, iters


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replications=0)


def test_bootstrap_config_rejects_one_draw():
    # the sd of a single draw is undefined, not 0
    with pytest.raises(ValueError, match="≥ 2"):
        BootstrapConfig(replications=1)
    assert BootstrapConfig(replications=2).replications == 2


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

def test_estimate_result_to_dict_handles_missing_se():
    res = EstimateResult(estimate=1.5, se=None, n=10,
                         estimand_label=EstimandLabel.DESCRIPTIVE,
                         method=Method.OR_DID_A)
    doc = res.to_dict()
    assert doc["se"] is None
    assert doc["estimate"] == 1.5
    res_nan = dataclasses.replace(res, se=float("nan"))
    assert res_nan.to_dict()["se"] is None


def test_estimate_result_to_dict_round_trip(small_sample):
    ds, nuis = small_sample
    doc = dr_reweighted(ds, nuis).to_dict()
    assert doc["method"] == "dr_reweighted"
    assert doc["estimand"] == "avg_catt_diff_on_a"
    assert doc["n"] == ds.n
    assert isinstance(doc["se"], float)
