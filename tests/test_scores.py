"""Score construction against a fully hand-computed four-unit fixture.

One unit per cell, intercept-only nuisances, equal shares of 1/4: every
weight and every score value below was worked out by hand, so the
assertions are exact arithmetic, not regression snapshots.

Fixture: units (id, group, eligibility, change in y, x) =
    u1 (A, Eligible, 3.0, 1), u2 (A, Never, 1.0, 2),
    u3 (B, Eligible, 4.0, 3), u4 (B, Never, 0.5, 4).
Intercept-only fits give m(A,Never)=1, m(B,Eligible)=4, m(B,Never)=0.5
and flat cell probabilities 0.25; all shares are 0.25, so every
treatment weight is 4 on its own cell.
"""

import dataclasses
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tridiff.estimators as est_mod
from tridiff.data import AssignmentMechanism, Cell, Group, PanelDataset
from tridiff.dgp import DgpSpec, simulate_sample
from tridiff.estimators import (METHOD_SCORES, Method, bias_diagnostic,
                                estimate_doubly_robust, score_contrast)
from tridiff.exceptions import (EstimationError, FittingError,
                                MissingNuisanceError, TrimmingError)
from tridiff.nuisance import LinearModel, NuisanceMode, fit_nuisances
from tridiff.scores import (FitEvaluation, ScoreForm, ScoreKind, dump_scores,
                            score_means, score_vector, score_vectors)

A2, A_NEVER, B2, B_NEVER = Cell


@pytest.fixture(scope="module")
def fixture():
    ds = PanelDataset(
        ids=["u1", "u2", "u3", "u4"],
        y1=[0.0, 0.0, 0.0, 0.0],
        y2=[3.0, 1.0, 4.0, 0.5],
        group_is_a=[True, True, False, False],
        eligible=[True, False, True, False],
        x=np.array([[1.0], [2.0], [3.0], [4.0]]),
        covariate_names=("x",),
        mechanism=AssignmentMechanism.BOTH_GROUPS)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET,
                         propensity_covariates=[], outcome_covariates=[])
    return ds, nuis


def with_trim(nuis, trim_epsilon):
    """The same fit with another propensity trim threshold."""
    return dataclasses.replace(nuis, fit_options={
        **nuis.fit_options, "trim_epsilon": trim_epsilon})


HAND_VALUES = {
    ScoreKind.OR_A: ([8.0, 0.0, 0.0, 0.0], 2.0),
    ScoreKind.IPW_A: ([12.0, -4.0, 0.0, 0.0], 2.0),
    ScoreKind.DR_A: ([8.0, 0.0, 0.0, 0.0], 2.0),
    ScoreKind.OR_B: ([0.0, 0.0, 14.0, 0.0], 3.5),
    ScoreKind.IPW_B: ([0.0, 0.0, 16.0, -2.0], 3.5),
    ScoreKind.DR_B: ([0.0, 0.0, 14.0, 0.0], 3.5),
    ScoreKind.WOR: ([14.0, 0.0, 0.0, 0.0], 3.5),
    ScoreKind.WIPW: ([0.0, 0.0, 16.0, -2.0], 3.5),
    ScoreKind.WDR: ([14.0, 0.0, 0.0, 0.0], 3.5),
}


def test_fixture_nuisances_are_as_stated(fixture):
    ds, nuis = fixture
    probs = nuis.propensities(ds.x)
    np.testing.assert_allclose(probs, 0.25, atol=1e-8)
    x = nuis.outcome_features(ds.x)
    for cell, value in ((A_NEVER, 1.0), (B2, 4.0), (B_NEVER, 0.5)):
        assert nuis.outcome_models[cell].predict(x)[0] == pytest.approx(
            value)
    for cell in Cell:
        assert ds.cell_counts[cell] / ds.n == 0.25


def test_weight_t_values(fixture):
    ev = FitEvaluation(*fixture)
    w = ev.weight_t(A2)
    np.testing.assert_array_equal(w, [4.0, 0.0, 0.0, 0.0])
    assert abs(np.mean(w) - 1.0) <= 1e-12
    w_b = ev.weight_t(B2)
    np.testing.assert_array_equal(w_b, [0.0, 0.0, 4.0, 0.0])
    assert abs(np.mean(w_b) - 1.0) <= 1e-12


def test_same_cell_control_weight_equals_treatment_weight(fixture):
    # identical floating-point operations: p/p is exactly 1, the share
    # division is the same division
    ev = FitEvaluation(*fixture)
    np.testing.assert_array_equal(ev.weight_c(A2, A2), ev.weight_t(A2))


def test_cross_cell_control_weights(fixture):
    ev = FitEvaluation(*fixture)
    wc = ev.weight_c(A2, A_NEVER)
    np.testing.assert_allclose(wc, [0.0, 4.0, 0.0, 0.0], atol=1e-8)
    wcb = ev.weight_c(A2, B_NEVER)
    np.testing.assert_allclose(wcb, [0.0, 0.0, 0.0, 4.0], atol=1e-8)


@pytest.mark.parametrize("kind", list(ScoreKind))
def test_score_vectors_match_hand_computation(fixture, kind):
    expected_values, expected_mean = HAND_VALUES[kind]
    vec = score_vector(kind, FitEvaluation(*fixture))
    np.testing.assert_allclose(vec, expected_values, atol=1e-8)
    assert vec.mean() == pytest.approx(expected_mean, abs=1e-8)
    assert len(vec) == 4


def test_reweighting_changes_only_the_counterfactual_term(fixture):
    # headline contrast: mean DR(a) - mean WDR = 2 - 3.5
    ev = FitEvaluation(*fixture)
    tau = (score_vector(ScoreKind.DR_A, ev).mean()
           - score_vector(ScoreKind.WDR, ev).mean())
    assert tau == pytest.approx(-1.5, abs=1e-8)


def test_or_scores_vanish_outside_their_cells(fixture):
    ev = FitEvaluation(*fixture)
    or_a = score_vector(ScoreKind.OR_A, ev)
    assert np.all(or_a[1:] == 0.0)
    ipw_a = score_vector(ScoreKind.IPW_A, ev)
    assert np.all(ipw_a[2:] == 0.0)  # group B never contributes
    wor = score_vector(ScoreKind.WOR, ev)
    assert np.all(wor[1:] == 0.0)  # evaluated on (A, Eligible) units only


def zeroed_outcomes(nuis):
    """The same fit with every outcome regression replaced by zero."""
    zero = LinearModel(coefficients=np.zeros(1), column_names=("intercept",),
                       residual_variance=0.0, n_obs=1)
    return dataclasses.replace(
        nuis, outcome_models={cell: zero for cell in nuis.outcome_models})


def test_zeroed_outcome_models_collapse_dr_to_ipw(fixture):
    ds, nuis = fixture
    ev = FitEvaluation(ds, zeroed_outcomes(nuis))
    for dr, ipw in ((ScoreKind.DR_A, ScoreKind.IPW_A),
                    (ScoreKind.DR_B, ScoreKind.IPW_B),
                    (ScoreKind.WDR, ScoreKind.WIPW)):
        np.testing.assert_array_equal(score_vector(dr, ev),
                                      score_vector(ipw, ev))


@pytest.mark.parametrize("zeroed, method, estimate, eta", [
    # one unit per cell: each fitted DR score sits on its target cell's
    # unit alone, so recentring by the treatment weight zeroes it
    (False, Method.DR_REWEIGHTED, -1.5, [0.0, 0.0, 0.0, 0.0]),
    (False, Method.DR_NAIVE_DIFFERENCE, -1.5, [0.0, 0.0, 0.0, 0.0]),
    # zeroed regressions leave the IPW values: DR_A - WDR is
    # [12, -4, -16, 2], mean -1.5, less 4 * -1.5 on u1; the naive parts
    # are [12, -4, 0, 0] - 4 * 2 on u1 and -([0, 0, 16, -2] - 4 * 3.5 on
    # u3)
    (True, Method.DR_REWEIGHTED, -1.5, [18.0, -4.0, -16.0, 2.0]),
    (True, Method.DR_NAIVE_DIFFERENCE, -1.5, [4.0, -4.0, -2.0, 2.0]),
], ids=["fitted-reweighted", "fitted-naive", "zeroed-reweighted",
        "zeroed-naive"])
def test_score_contrast_hand_arithmetic(fixture, zeroed, method, estimate,
                                        eta):
    ds, nuis = fixture
    ev = FitEvaluation(ds, zeroed_outcomes(nuis) if zeroed else nuis)
    psi = score_vectors(list(ScoreKind), ev)
    got, se, got_eta = score_contrast(ev, psi, METHOD_SCORES[method])
    assert got == pytest.approx(estimate, abs=1e-8)
    np.testing.assert_allclose(got_eta, eta, atol=1e-8)
    assert se == pytest.approx(math.sqrt(np.mean(np.square(eta)) / 4),
                               abs=1e-8)
    # a row with any score that is not doubly robust has no SE
    assert score_contrast(ev, psi, ((1, ScoreKind.IPW_A),))[1:] == (None,
                                                                   None)


def test_score_vectors_equal_score_vector(fixture):
    # kinds built from one shared evaluation equal kinds built each from
    # a fresh one, bit for bit
    kinds = list(ScoreKind)
    built = score_vectors(kinds, FitEvaluation(*fixture))
    assert list(built) == kinds
    for kind in kinds:
        np.testing.assert_array_equal(
            built[kind],
            score_vector(kind, FitEvaluation(*fixture)))


def test_evaluation_computes_each_weight_once(fixture):
    ev = FitEvaluation(*fixture)
    assert ev.weight_t(A2) is ev.weight_t(A2)
    assert ev.weight_c(A2, B2) is ev.weight_c(A2, B2)
    assert ev.outcome(B2) is ev.outcome(B2)
    assert ev.propensities() is ev.propensities()
    assert ev.weight_c(A2, B2) is not ev.weight_c(A2, B_NEVER)
    # shared by every score built from the evaluation, so not writable
    with pytest.raises(ValueError):
        ev.weight_t(A2)[0] = 0.0


def test_trimming_error_names_offending_units(fixture):
    ds, nuis = fixture
    with pytest.raises(TrimmingError) as err:
        score_vector(ScoreKind.IPW_A, FitEvaluation(ds, with_trim(nuis, 0.3)))
    assert "u1" in str(err.value) or "u2" in str(err.value)
    assert err.value.unit_ids


def test_trimming_only_inspects_source_cell_units(fixture):
    # OR scores use no propensity ratio, so even an absurd threshold passes
    ds, nuis = fixture
    vec = score_vector(ScoreKind.OR_A, FitEvaluation(ds, with_trim(nuis, 0.3)))
    np.testing.assert_allclose(vec, HAND_VALUES[ScoreKind.OR_A][0],
                               atol=1e-8)


# ---------------------------------------------------------------------------
# Normalized weights need a fixture whose weight means are not 1
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sloped_fixture():
    r = np.random.default_rng(31)
    n = 400
    group = r.random(n) < 0.5
    elig = r.random(n) < 0.5
    x = r.normal(size=(n, 1)) + np.where(group, 0.6, -0.6)[:, None]
    y1 = x[:, 0] + r.normal(size=n)
    y2 = y1 + 0.5 * x[:, 0] * elig + r.normal(size=n)
    ds = PanelDataset(ids=np.arange(n), y1=y1, y2=y2, group_is_a=group,
                      eligible=elig, x=x, covariate_names=("x",),
                      mechanism=AssignmentMechanism.BOTH_GROUPS)
    return ds


def test_normalization_requires_treated_cell_outcome_model(sloped_fixture):
    ds = sloped_fixture
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, normalize=True)
    stripped = dataclasses.replace(nuis, outcome_models={
        cell: model for cell, model in nuis.outcome_models.items()
        if cell != A2})
    with pytest.raises(MissingNuisanceError, match=r"\(A, Eligible\)"):
        score_vector(ScoreKind.DR_A, FitEvaluation(ds, stripped))


def test_normalized_scores_finite_and_close_to_unnormalized(sloped_fixture):
    ds = sloped_fixture
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, normalize=True)
    plain = score_vector(ScoreKind.WDR, FitEvaluation(
        ds, dataclasses.replace(nuis, fit_options={**nuis.fit_options,
                                                   "normalize": False})))
    hajek = score_vector(ScoreKind.WDR, FitEvaluation(ds, nuis))
    assert np.all(np.isfinite(hajek))
    assert hajek.mean() != plain.mean()
    assert hajek.mean() == pytest.approx(plain.mean(), abs=0.5)


def test_unnormalized_dr_needs_no_treated_cell_model(sloped_fixture):
    # identical same-cell weights null the treated-cell augmentation, so
    # the plain estimator runs on three outcome regressions
    ds = sloped_fixture
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET)
    assert not nuis.has_outcome(A2)
    vec = score_vector(ScoreKind.DR_A, FitEvaluation(ds, nuis))
    assert np.all(np.isfinite(vec))


def test_dump_scores_round_trips_exact_floats(fixture, tmp_path):
    ds, nuis = fixture
    path = tmp_path / "scores.csv"
    dump_scores(FitEvaluation(ds, nuis), [ScoreKind.DR_A, ScoreKind.WDR],
                path)
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["unit_id"] for row in rows] == ["u1", "u2", "u3", "u4"]
    dr = score_vector(ScoreKind.DR_A, FitEvaluation(ds, nuis))
    got = np.array([float(row["score_dr_a"]) for row in rows])
    np.testing.assert_array_equal(got, dr)


def test_score_vector_rejects_missing_donor_model(fixture):
    ds, nuis = fixture
    stripped = dataclasses.replace(nuis, outcome_models={})
    with pytest.raises(MissingNuisanceError):
        score_vector(ScoreKind.OR_A, FitEvaluation(ds, stripped))


# ---------------------------------------------------------------------------
# The evaluation against an independent reference
# ---------------------------------------------------------------------------

def _reference_mask(dataset, cell):
    return ((dataset.group_is_a == (cell.group is Group.A))
            & (dataset.eligible == cell.eligible))


def _cell_of(group, eligible):
    cell, = (c for c in Cell if c.group is group and c.eligible == eligible)
    return cell


class ReferenceEvaluation:
    """A test-only reference evaluation that shares none of the panel's
    cell caches: every array is stored under a Cell key and built with
    the numpy wrappers (np.mean, np.any, np.all), each cell's mask and
    share come straight from the group and eligibility columns, not from
    cell_codes(), and each control weight is built source by source with
    a masked divide (the propensity ratio divided and scaled only where
    the unit is in the source cell, with the source cell's own
    propensity column as divisor). The propensities follow the fitted
    sample rule by hand: the logit's own fit_state probabilities on the
    covariate array it was fitted on, a prediction on any other.
    FitEvaluation must give its arrays, estimates and exceptions bit for
    bit."""

    def __init__(self, dataset, nuisances):
        self.dataset, self.nuisances = dataset, nuisances
        self.normalize = nuisances.fit_options["normalize"]
        n = dataset.n
        self.shares = {cell: (np.count_nonzero(_reference_mask(dataset, cell))
                              / n if n else 0.0) for cell in Cell}
        self.delta = dataset.delta_y()
        self.memo = {}

    def _stored(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def propensities(self):
        # the fitted sample's are the logit's converged probabilities,
        # any other sample's are predicted from the model's columns
        def build():
            model = self.nuisances.propensity
            if model is None:
                raise MissingNuisanceError("no propensity model fitted")
            if self.dataset.x is self.nuisances.fitted_x:
                return model.fit_state[1].T
            x, cols = self.dataset.x, self.nuisances.propensity_columns
            return model.predict(x if cols is None else x[:, list(cols)])
        return self._stored("p", build)

    def outcome(self, cell):
        # each model's own predict, not the evaluation's batched product
        def build():
            model = self.nuisances.outcome_models.get(cell)
            if model is None:
                raise MissingNuisanceError(
                    f"no outcome-change model for cell {cell.label}")
            return model.predict(
                self.nuisances.outcome_features(self.dataset.x))
        return self._stored(("m", cell), build)

    def weight_t(self, cell):
        def build():
            share = self.shares[cell]
            if share == 0:
                raise EstimationError(f"cell {cell.label} is empty; "
                                      "treatment weight undefined")
            out = np.zeros(self.dataset.n)
            out[_reference_mask(self.dataset, cell)] = 1.0 / share
            return out
        return self._stored(("t", cell), build)

    def weight_c(self, numerator_cell, source_cell):
        return self._stored(("c", numerator_cell, source_cell),
                            lambda: self._weight_c(numerator_cell,
                                                   source_cell))

    def _weight_c(self, numerator_cell, source_cell):
        share = self.shares[numerator_cell]
        if share == 0:
            raise EstimationError(f"cell {numerator_cell.label} is "
                                  "empty; control weight undefined")
        mask = _reference_mask(self.dataset, source_cell)
        out = np.zeros(self.dataset.n)
        if np.any(mask):
            probs = self.propensities()
            p_num = probs[:, numerator_cell]
            p_src = probs[:, source_cell]
            eps = self.nuisances.fit_options["trim_epsilon"]
            low = mask & (p_src < eps)
            if np.any(low):
                ids = tuple(self.dataset.ids[low])
                raise TrimmingError(
                    f"{len(ids)} unit(s) in {source_cell.label} have "
                    f"p{source_cell.label} below trim threshold "
                    f"{eps:g}: {', '.join(repr(i) for i in ids[:10])}"
                    + ("…" if len(ids) > 10 else ""), unit_ids=ids)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(p_num, p_src, out=out, where=mask)
            np.multiply(out, 1.0 / share, out=out, where=mask)
        if self.normalize:
            mean = float(np.mean(out))
            if mean <= 0:
                raise EstimationError(
                    f"control weight for source {source_cell.label} "
                    f"has non-positive mean {mean:g}; cannot normalize")
            out = out / mean
        return out

    def augmentation(self, multiplier, target, cell):
        if cell == target and not self.normalize:
            if np.any(multiplier):
                raise EstimationError(
                    f"augmentation multiplier for m{cell.label} should "
                    "be identically zero with unnormalized weights but is not")
            return np.zeros(len(multiplier))
        if cell == target and not self.nuisances.has_outcome(cell):
            raise MissingNuisanceError(
                f"score needs outcome model m{cell.label} because "
                "normalized weights give it a nonzero multiplier")
        return multiplier * self.outcome(cell)


def reference_score(kind, ev):
    target, group = kind.target, kind.group
    eligible, never = _cell_of(group, True), _cell_of(group, False)
    delta, wt, wc, m = ev.delta, ev.weight_t, ev.weight_c, ev.outcome
    if kind.form is ScoreForm.REGRESSION:
        values = wt(target) * ((delta if target == eligible
                                else m(eligible)) - m(never))
    elif kind.form is ScoreForm.WEIGHTING:
        values = (wc(target, eligible) - wc(target, never)) * delta
    else:
        w_treat = wt(target)
        w_elig, w_never = wc(target, eligible), wc(target, never)
        values = (w_elig - w_never) * delta
        values = values + ev.augmentation(w_treat - w_elig, target, eligible)
        values = values - (w_treat - w_never) * m(never)
    if not np.all(np.isfinite(values)):
        raise EstimationError(
            f"non-finite {kind.value} score values; check overlap and "
            "nuisance fits")
    return values


def reference_contrast(ev, row):
    """(estimate, se, eta) of a row of signed score kinds, each part keyed
    by its target cell and averaged with np.mean."""
    psi = {kind: reference_score(kind, ev)
           for kind in dict.fromkeys(kind for _, kind in row)}
    parts = {}
    for sign, kind in row:
        score = psi[kind]
        if kind.target not in parts:
            parts[kind.target] = score if sign > 0 else -score
        elif sign > 0:
            parts[kind.target] = parts[kind.target] + score
        else:
            parts[kind.target] = parts[kind.target] - score
    means = {target: float(np.mean(part)) for target, part in parts.items()}
    estimate = functools.reduce(operator.add, means.values())
    if any(kind.form is not ScoreForm.DOUBLY_ROBUST for _, kind in row):
        return estimate, None, None
    eta = functools.reduce(operator.add, (
        part - ev.weight_t(target) * means[target]
        for target, part in parts.items()))
    return estimate, math.sqrt(float(np.mean(eta * eta)) / ev.dataset.n), eta


def outcome_of(call):
    """call()'s value, or the type, message and unit ids of what it
    raised. A non-finite outcome model makes NaN scores, which the
    finiteness check is to reject, so that arithmetic may not warn."""
    try:
        with np.errstate(invalid="ignore"):
            return call()
    except (EstimationError, TrimmingError) as exc:
        return (type(exc), str(exc), getattr(exc, "unit_ids", None))


def assert_same(got, want):
    """Bit for bit: arrays and floats by their bytes, the rest by ==."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    elif isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex()
    elif isinstance(want, tuple) and not isinstance(want[0], type):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want  # None, or an exception's type, text and ids


def reference_dump(ev, kinds):
    columns = {kind: reference_score(kind, ev) for kind in kinds}
    lines = ["unit_id," + ",".join(f"score_{k.value}" for k in kinds)]
    for i in range(ev.dataset.n):
        lines.append(",".join([str(ev.dataset.ids[i]), *(
            repr(float(columns[k][i])) for k in kinds)]))
    return ("\r\n".join(lines) + "\r\n").encode()


DGP_FITS = [(seed, mu_b, normalize) for seed in (1, 2, 3, 4)
            for mu_b in (1.5, 3.0) for normalize in (False, True)]


@pytest.mark.parametrize("seed, mu_b, normalize", DGP_FITS)
def test_control_weights_match_masked_divide(seed, mu_b, normalize):
    ds = simulate_sample(DgpSpec(n=2000, seed=seed, mu_b=mu_b))
    nuis = fit_nuisances(ds, trim_epsilon=0.0, normalize=normalize)
    ev, ref = FitEvaluation(ds, nuis), ReferenceEvaluation(ds, nuis)
    for numerator in Cell:
        for source in Cell:
            assert np.array_equal(ev.weight_c(numerator, source),
                                  ref.weight_c(numerator, source))
    for kind in ScoreKind:
        assert np.array_equal(score_vector(kind, ev),
                              reference_score(kind, ref)), kind


def test_trimming_error_matches_masked_divide():
    # thin overlap: (A, Eligible) units fall below a 0.05 threshold
    ds = simulate_sample(DgpSpec(n=2000, seed=1, mu_b=3.0))
    nuis = fit_nuisances(ds, trim_epsilon=0.05)
    with pytest.raises(TrimmingError) as err:
        score_vector(ScoreKind.DR_A, FitEvaluation(ds, nuis))
    with pytest.raises(TrimmingError) as reference:
        reference_score(ScoreKind.DR_A, ReferenceEvaluation(ds, nuis))
    assert len(reference.value.unit_ids) > 1
    assert err.value.unit_ids == reference.value.unit_ids
    assert str(err.value) == str(reference.value)


@pytest.mark.parametrize("string_ids, ids", [
    (False, (462, 416, 462, 161, 27, 72)),
    (True, ("u462", "u416", "u462", "u161", "u27", "u72"))],
    ids=["simulated-ids", "string-ids"])
def test_trimming_error_of_a_resample_names_its_units(string_ids, ids):
    # a resample of a resample keeps its ids as rows of the panel's own
    # until they are read; the error names the drawn units, repeats and
    # order included, in the text and unit ids the gathered ids gave
    base = simulate_sample(DgpSpec(n=600, seed=2, mu_b=3.0))
    ds = base if not string_ids else PanelDataset(
        [f"u{k}" for k in range(base.n)], base.y1, base.y2, base.group_is_a,
        base.eligible, base.x, base.covariate_names, base.mechanism)
    resample = ds.subset(est_mod._draw_indices(ds.n, 7, 3)).subset(
        np.arange(ds.n - 1, -1, -1))
    with pytest.raises(TrimmingError) as err:
        estimate_doubly_robust(resample,
                               fit_nuisances(resample, trim_epsilon=0.1))
    assert err.value.unit_ids == ids
    assert str(err.value) == (
        "6 unit(s) in (A, Eligible) have p(A, Eligible) below trim "
        f"threshold 0.1: {', '.join(map(repr, ids))}")


def test_normalizing_an_empty_source_raises(sloped_fixture):
    # a fit evaluated on units of three cells: the (B, Never) control
    # weight is all zero and cannot be normalized
    ds = sloped_fixture
    nuis = fit_nuisances(ds, normalize=True)
    kept = ds.subset(np.flatnonzero(~ds.cell_masks[B_NEVER]))
    for evaluation in (FitEvaluation, ReferenceEvaluation):
        with pytest.raises(EstimationError, match="non-positive mean 0"):
            evaluation(kept, nuis).weight_c(A2, B_NEVER)


def with_covariates(base, d, seed):
    """The simulated panel with d covariates: its own, then noise columns
    of growing scale drawn from `seed`."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([base.x[:, 0]] + [
        rng.normal(size=base.n) * 4.0 ** j for j in range(1, d)]
    ) if d else np.empty((base.n, 0))
    return PanelDataset(base.ids, base.y1, base.y2, base.group_is_a,
                        base.eligible, x, tuple(f"x{j}" for j in range(d)),
                        base.mechanism)


@st.composite
def evaluated_fits(draw):
    """(dataset, fit) with the fit evaluated on the dataset: simulated
    panels with d = 0 to 3 covariates (the simulated one, then noise
    columns of growing scale), either mechanism, plain or normalized
    weights, trim 0 or 0.01, and all or a subset of the columns for each
    model family. Some fits are evaluated on the panel less one cell, or
    lose the (A, Eligible) model, or get a non-finite outcome model, so
    the failures are compared too."""
    mechanism = draw(st.sampled_from(list(AssignmentMechanism)))
    base = simulate_sample(DgpSpec(
        n=draw(st.integers(200, 900)), seed=draw(st.integers(0, 2 ** 32 - 1)),
        mu_b=draw(st.sampled_from([1.5, 3.0])), mechanism=mechanism))
    ds = with_covariates(base, draw(st.integers(0, 3)),
                         draw(st.integers(0, 2 ** 32 - 1)))
    names = ds.covariate_names
    subsets = (st.none() | st.lists(st.sampled_from(names), unique=True)
               if names else st.none())
    normalize = draw(st.booleans())
    try:
        nuis = fit_nuisances(ds, trim_epsilon=draw(st.sampled_from([0.0,
                                                                    0.01])),
                             normalize=normalize,
                             propensity_covariates=draw(subsets),
                             outcome_covariates=draw(subsets))
    except FittingError:
        return ds, None
    damage = draw(st.sampled_from(["none", "drop cell", "no (A, Eligible) "
                                   "model", "non-finite outcome model"]))
    if damage == "drop cell":
        dropped = draw(st.sampled_from(list(Cell)))
        ds = ds.subset(np.flatnonzero(~_reference_mask(ds, dropped)))
    elif damage == "no (A, Eligible) model":
        nuis = dataclasses.replace(nuis, outcome_models={
            cell: model for cell, model in nuis.outcome_models.items()
            if cell != A2})
    elif damage == "non-finite outcome model":
        cell = draw(st.sampled_from(sorted(nuis.outcome_models)))
        model = nuis.outcome_models[cell]
        nuis = dataclasses.replace(nuis, outcome_models={
            **nuis.outcome_models, cell: dataclasses.replace(
                model, coefficients=np.full_like(model.coefficients,
                                                 np.inf))})
    return ds, nuis


BIAS_ROW = ((1, ScoreKind.WDR), (-1, ScoreKind.DR_B))


@settings(max_examples=40, deadline=None)
@given(case=evaluated_fits())
def test_code_indexed_evaluation_is_bitwise_the_reference(tmp_path_factory,
                                                          case):
    ds, nuis = case
    if nuis is None:
        return  # the logit or a regression could not be fitted
    ev, ref = FitEvaluation(ds, nuis), ReferenceEvaluation(ds, nuis)
    wanted = {kind: outcome_of(lambda: reference_score(kind, ref))
              for kind in ScoreKind}
    for kind in ScoreKind:
        assert_same(outcome_of(lambda: score_vector(kind, ev)), wanted[kind])

    def contrast(result):
        return result.estimate, result.se, result.influence_values
    for method, row in METHOD_SCORES.items():
        assert_same(
            outcome_of(lambda: contrast(estimate_doubly_robust(
                ds, nuis, (method,), ev=FitEvaluation(ds, nuis))[0])),
            outcome_of(lambda: reference_contrast(
                ReferenceEvaluation(ds, nuis), row)))
    if ds.mechanism is AssignmentMechanism.ONLY_GROUP_A:
        assert_same(
            outcome_of(lambda: bias_diagnostic(ds, nuis,
                                               ev=FitEvaluation(ds, nuis))),
            outcome_of(lambda: reference_contrast(
                ReferenceEvaluation(ds, nuis), BIAS_ROW)[:2]))
    if all(isinstance(value, np.ndarray) for value in wanted.values()):
        path = tmp_path_factory.mktemp("dump") / "scores.csv"
        dump_scores(FitEvaluation(ds, nuis), list(ScoreKind), path)
        assert path.read_bytes() == reference_dump(ref, list(ScoreKind))


# ---------------------------------------------------------------------------
# Score means from weighted cell sums against the per-unit scores
# ---------------------------------------------------------------------------

KINDS = tuple(ScoreKind)


def assert_same_failure(got, want):
    """Both calls raised, the same exception type with the same message
    and unit ids."""
    assert isinstance(got, tuple) and isinstance(want, tuple), (got, want)
    assert got[0] is want[0] and got[1:] == want[1:], (got, want)


def assert_means_match(ds, nuis):
    """Every score kind: score_means gives the mean of
    score_vector's values within 1e-12 of its mean |score|, or raises
    what it raises; a kind's mean has the same bits evaluated alone or
    with the others. Returns the kinds that raised."""
    together = outcome_of(lambda: score_means(ds, nuis, KINDS))
    wanted = outcome_of(lambda: score_vectors(KINDS, FitEvaluation(
        ds, nuis)))
    if isinstance(wanted, dict):
        assert isinstance(together, dict) and list(together) == list(KINDS)
    else:
        assert_same_failure(together, wanted)
    raised = []
    for kind in KINDS:
        want = outcome_of(lambda: score_vector(kind, FitEvaluation(ds, nuis)))
        got = outcome_of(lambda: score_means(ds, nuis, [kind])[kind])
        if isinstance(want, np.ndarray):
            assert isinstance(got, float), (kind, got)
            assert abs(got - want.mean()) <= 1e-12 * np.abs(want).mean(), kind
            if isinstance(together, dict):
                assert_same(together[kind], got)
        else:
            assert_same_failure(got, want)
            raised.append(kind)
    return raised


@settings(max_examples=60, deadline=None)
@given(case=evaluated_fits())
def test_score_means_are_the_score_vectors_means(case):
    ds, nuis = case
    if nuis is None:
        return  # the logit or a regression could not be fitted
    assert_means_match(ds, nuis)


@pytest.mark.parametrize("mechanism", list(AssignmentMechanism))
@pytest.mark.parametrize("d, outcome_covariates", [
    (0, None), (1, None), (3, None), (3, ["x0", "x2"])])
@pytest.mark.parametrize("trim", [0.0, 0.01])
@pytest.mark.parametrize("normalize", [False, True])
def test_score_means_over_the_fit_options(normalize, trim, d,
                                          outcome_covariates, mechanism):
    # every option the property draws, each at least once
    ds = with_covariates(simulate_sample(DgpSpec(
        n=500, seed=9, mu_b=1.5, mechanism=mechanism)), d, 4)
    nuis = fit_nuisances(ds, trim_epsilon=trim, normalize=normalize,
                         outcome_covariates=outcome_covariates)
    assert assert_means_match(ds, nuis) == []


def underflowed(ds, nuis):
    """(panel, cell): ds with one unit of the cell moved so far out in x
    that its own-cell propensity is exactly 0, for each such cell at
    x = -1e4 and at 1e4."""
    for x in (-1e4, 1e4):
        probs = nuis.propensity.predict(np.array([[x]]))[0]
        for cell in Cell:
            if probs[cell] == 0:
                unit = int(np.flatnonzero(_reference_mask(ds, cell))[0])
                moved = ds.x.copy()
                moved[unit] = x
                yield PanelDataset(ds.ids, ds.y1, ds.y2, ds.group_is_a,
                                   ds.eligible, moved, ds.covariate_names,
                                   ds.mechanism), cell


def test_structural_zero_augmentation_rejects_nonzero_multiplier():
    # an explicit check, not an assert, so it also holds under python -O:
    # at trim 0 an (A, Eligible) unit whose own-cell propensity underflows
    # to 0 gets a 0/0 same-cell control weight, so the multiplier that
    # unnormalized weights make identically zero is not, in either path
    base = simulate_sample(DgpSpec(n=600, seed=5))
    fit = fit_nuisances(base, trim_epsilon=0.0)
    moved = next(panel for panel, cell in underflowed(base, fit)
                 if cell == A2)
    message = (r"augmentation multiplier for m\(A, Eligible\) should be "
               "identically zero")
    with pytest.raises(EstimationError, match=message):
        score_vector(ScoreKind.DR_A, FitEvaluation(moved, fit))
    with pytest.raises(EstimationError, match=message):
        score_means(moved, fit, [ScoreKind.DR_A])


def test_score_means_raise_what_score_vectors_raise():
    base = simulate_sample(DgpSpec(n=600, seed=5))
    fit = fit_nuisances(base, trim_epsilon=0.0)
    normalized = fit_nuisances(base, trim_epsilon=0.0, normalize=True)
    # a fit evaluated on the panel less one cell: an empty target raises,
    # and so does an empty source whose weight is normalized
    for cell in Cell:
        kept = base.subset(np.flatnonzero(~_reference_mask(base, cell)))
        assert bool(assert_means_match(kept, fit)) == cell.eligible
        assert assert_means_match(kept, normalized)
    # an own-cell propensity that underflows to 0 at trim 0: NaN odds in
    # its own cell's weights, inf or NaN ones in other cells'
    cells = []
    for moved, cell in underflowed(base, fit):
        assert fit.propensities(moved.x)[:, cell].min() == 0
        raised = assert_means_match(moved, fit)
        assert raised and raised != list(KINDS)
        cells.append(cell)
    assert A2 in cells and B_NEVER in cells
    # source units below the trim threshold
    thin = simulate_sample(DgpSpec(n=2000, seed=1, mu_b=3.0))
    raised = assert_means_match(thin, fit_nuisances(thin, trim_epsilon=0.05))
    assert raised and raised != list(KINDS)
    with pytest.raises(TrimmingError):
        score_means(thin, fit_nuisances(thin, trim_epsilon=0.05),
                    [ScoreKind.DR_A])
    # a normalized fit without the (A, Eligible) model
    stripped = dataclasses.replace(normalized, outcome_models={
        cell: model for cell, model in normalized.outcome_models.items()
        if cell != A2})
    assert assert_means_match(base, stripped) == [ScoreKind.DR_A]
