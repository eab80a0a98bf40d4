"""Estimators assembled from the score functions.

The centerpiece is the reweighted doubly robust difference (group A's
DR change contrast minus group B's contrast reweighted to group A's
covariate distribution), with influence-function and bootstrap
inference. The conventional estimators the framework argues against
are implemented alongside for contrast: the naive DR difference, the
two-way and three-way interaction regressions, and the
outcome-regression benchmarks (each group's regression DID and their
differences), which are means of the regression scores of the same
fit.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .data import AssignmentMechanism, Group, PanelDataset
from .exceptions import (EstimationError, ResamplingError,
                         UnsupportedMechanismError)
from .nuisance import LinearModel, NuisanceSet, fit_nuisances, fit_ols
from .parallel import map_ordered
from .scores import FitEvaluation, ScoreForm, ScoreKind, score_vectors

DEFAULT_BOOTSTRAP_REPS = 999


class EstimandLabel(enum.Enum):
    """What the number means, resolved from the assignment mechanism."""

    ATT_A = "att_a"
    AVG_CATT_DIFF_ON_A = "avg_catt_diff_on_a"
    DESCRIPTIVE = "descriptive"


class Method(enum.Enum):
    DR_REWEIGHTED = "dr_reweighted"
    DR_NAIVE_DIFFERENCE = "dr_naive_difference"
    OLS_TDID = "ols_tdid"
    OLS_DID_A = "ols_did_a"
    OLS_DID_B = "ols_did_b"
    OR_DID_A = "or_did_a"
    OR_DID_B = "or_did_b"
    OR_WDID_B = "or_wdid_b"
    OR_DIFFERENCE = "or_difference"
    OR_REWEIGHTED_DIFFERENCE = "or_reweighted_difference"


class SeKind(enum.Enum):
    ROBUST = "hc1"          # heteroskedasticity-robust sandwich, HC1
    CLASSICAL = "classical"
    CLUSTER = "cluster"     # clustered by unit over the two stacked rows


@dataclass(frozen=True)
class EstimateResult:
    """One estimator's output. se is None when no variance method was
    requested (outcome-regression estimators without a bootstrap)."""

    estimate: float
    se: Optional[float]
    n: int
    estimand_label: EstimandLabel
    method: Method
    influence_values: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return {
            "estimate": float(self.estimate),
            "se": None if self.se is None or math.isnan(self.se) else float(self.se),
            "n": int(self.n),
            "estimand": self.estimand_label.value,
            "method": self.method.value,
        }


# ---------------------------------------------------------------------------
# Doubly robust estimators and influence-function inference
# ---------------------------------------------------------------------------

# each score method as a row of signed score kinds, in the order they
# are built; the methods in _REWEIGHTED contrast group A's DID with
# group B's at group A's covariates, the rest are descriptive
METHOD_SCORES = {
    Method.DR_REWEIGHTED: ((1, ScoreKind.DR_A), (-1, ScoreKind.WDR)),
    Method.DR_NAIVE_DIFFERENCE: ((1, ScoreKind.DR_A), (-1, ScoreKind.DR_B)),
    Method.OR_DID_A: ((1, ScoreKind.OR_A),),
    Method.OR_DID_B: ((1, ScoreKind.OR_B),),
    Method.OR_WDID_B: ((1, ScoreKind.WOR),),
    Method.OR_DIFFERENCE: ((1, ScoreKind.OR_A), (-1, ScoreKind.OR_B)),
    Method.OR_REWEIGHTED_DIFFERENCE: ((1, ScoreKind.OR_A), (-1, ScoreKind.WOR)),
}
DR_METHODS = tuple(METHOD_SCORES)[:2]  # (reweighted, naive)
OR_METHODS = tuple(METHOD_SCORES)[2:]  # (A, B, weighted B, A-B, A-wB)
_REWEIGHTED = (Method.DR_REWEIGHTED, Method.OR_REWEIGHTED_DIFFERENCE)
# group B's DR contrast at group A's covariates minus at its own
_BIAS_ROW = ((1, ScoreKind.WDR), (-1, ScoreKind.DR_B))


def score_contrast(ev: FitEvaluation, psi: dict, row
                   ) -> Tuple[float, Optional[float], Optional[np.ndarray]]:
    """(estimate, se, eta) of a row of signed score kinds, from their
    values `psi`. The signed scores of each target cell sum to that
    cell's part; the estimate sums the parts' means, and the influence
    values eta sum each part minus its cell's treatment weight times its
    mean, so se = sqrt(mean(eta^2) / n). Only a row of doubly robust
    kinds gets eta and se; for any other row both are None."""
    parts = {}  # by target cell
    for sign, kind in row:
        target, score = kind.cells[0], psi[kind]
        if target not in parts:
            parts[target] = score if sign > 0 else -score
        elif sign > 0:
            parts[target] = parts[target] + score
        else:
            parts[target] = parts[target] - score
    n = ev.dataset.n  # sum() / n: np.mean's reduction, without its wrappers
    means = {target: float(part.sum() / n) for target, part in parts.items()}
    estimate = functools.reduce(operator.add, means.values())
    if any(kind.form is not ScoreForm.DOUBLY_ROBUST for _, kind in row):
        return estimate, None, None
    eta = functools.reduce(operator.add, (
        part - ev.weight_t(target) * means[target]
        for target, part in parts.items()))
    return estimate, math.sqrt(float((eta * eta).sum() / n) / n), eta


def _score_result(ev: FitEvaluation, psi: dict,
                  method: Method) -> EstimateResult:
    estimate, se, eta = score_contrast(ev, psi, METHOD_SCORES[method])
    if method not in _REWEIGHTED:
        label = EstimandLabel.DESCRIPTIVE
    elif ev.dataset.mechanism is AssignmentMechanism.ONLY_GROUP_A:
        label = EstimandLabel.ATT_A
    else:
        label = EstimandLabel.AVG_CATT_DIFF_ON_A
    return EstimateResult(estimate=estimate, se=se, n=ev.dataset.n,
                          estimand_label=label, method=method,
                          influence_values=eta)


def _evaluation(dataset: PanelDataset, nuisances: NuisanceSet,
                ev: Optional[FitEvaluation]) -> FitEvaluation:
    """`ev` when given, which must evaluate these nuisances on this
    dataset; else a new evaluation of them."""
    if ev is None:
        return FitEvaluation(dataset, nuisances)
    if ev.dataset is not dataset or ev.nuisances is not nuisances:
        raise ValueError("ev evaluates another dataset or another fit "
                         "than the one given")
    return ev


def estimate_doubly_robust(dataset: PanelDataset, nuisances: NuisanceSet,
                           methods: Tuple[Method, ...] = DR_METHODS, *,
                           ev: Optional[FitEvaluation] = None
                           ) -> Tuple[EstimateResult, ...]:
    """Results of the requested score methods, in the order given, each
    the score_contrast of its METHOD_SCORES row over one FitEvaluation:
    each score kind the methods need is built once (DR_A, WDR, DR_B by
    default) and no other kind is built. `ev`, an evaluation of this fit
    on this dataset, is reused when given, so that other consumers of
    the fit share its arrays; an evaluation of another dataset or fit
    raises ValueError.

    DR_REWEIGHTED is the identification-correct contrast: ATT(A) when
    only group A's eligible units are treated, else the average CATT
    difference over group A's covariates. DR_NAIVE_DIFFERENCE is the
    conventional contrast; descriptive only, it mixes two covariate
    distributions. The OR_METHODS are the outcome-regression benchmarks,
    the panel regression DID of Sant'Anna & Zhao (2020, J. Econometrics
    219, §2); they need no propensity model."""
    kinds = tuple(dict.fromkeys(
        kind for method in methods for _, kind in METHOD_SCORES[method]))
    ev = _evaluation(dataset, nuisances, ev)
    psi = score_vectors(kinds, ev)
    return tuple(_score_result(ev, psi, method) for method in methods)


def bias_diagnostic(dataset: PanelDataset, nuisances: NuisanceSet, *,
                    ev: Optional[FitEvaluation] = None):
    """Estimated gap between group B's change contrast under group A's
    covariate distribution and under its own: the bias the naive
    difference absorbs. Meaningful only when treatment is restricted to
    group A, where group B's contrast is exactly the parallel-trends gap.
    `ev` is reused as in estimate_doubly_robust.

    Returns (bias_hat, se).
    """
    if dataset.mechanism is not AssignmentMechanism.ONLY_GROUP_A:
        raise UnsupportedMechanismError(
            "bias diagnostic requires treatment restricted to group A; "
            "when both groups are treated, group B's contrast mixes its "
            "treatment effect with the trend gap")
    ev = _evaluation(dataset, nuisances, ev)
    psi = score_vectors([kind for _, kind in _BIAS_ROW], ev)
    bias_hat, se, _ = score_contrast(ev, psi, _BIAS_ROW)
    return bias_hat, se


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapConfig:
    """Pairs bootstrap: units are resampled with both periods."""

    replications: int = DEFAULT_BOOTSTRAP_REPS
    seed: int = 0

    def __post_init__(self):
        # one draw has no spread: its standard deviation is undefined
        if self.replications < 2:
            raise ValueError(f"bootstrap replications must be ≥ 2, got "
                             f"{self.replications}")


def _draw_indices(n: int, seed: int, counter: int) -> np.ndarray:
    """Unit indices of bootstrap draw `counter`: n draws with replacement
    from the draw's own counter-derived stream."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(counter,))))
    return rng.integers(0, n, size=n)


class _Draw(enum.Enum):
    LACKS_CELL = "lacks a cell"  # a member keeps its identity when pickled


def _estimate_draw(dataset: PanelDataset, estimator, seed: int,
                   counter: int):
    """The outcome of bootstrap draw `counter`: the estimator's value on
    its resample, _Draw.LACKS_CELL when the resample empties a (group,
    eligibility) cell, or the exception the estimator raised."""
    idx = _draw_indices(dataset.n, seed, counter)
    if not np.bincount(dataset.cell_codes()[idx], minlength=4).all():
        return _Draw.LACKS_CELL
    try:
        return estimator(dataset.subset(idx))
    except Exception as exc:  # re-raised by the parent if the draw is kept
        return exc


def bootstrap_replicates(dataset: PanelDataset,
                         estimator: Callable[[PanelDataset], float],
                         config: BootstrapConfig,
                         n_jobs: int = 1) -> np.ndarray:
    """Estimator values on the first config.replications resamples, by
    draw counter, with every (group, eligibility) cell. n_jobs worker
    processes (1: this one) draw, screen and estimate each draw once;
    this process maps the counters in rounds, in order, so the values
    are the same for any n_jobs. 10 * replications draws without enough
    usable ones raise ResamplingError; else the exception of the first
    kept draw that raised one is raised; draws past the last kept one
    are dropped, errors and all."""
    task = functools.partial(_estimate_draw, dataset, estimator, config.seed)
    wanted, cap = config.replications, 10 * config.replications
    kept, counter = [], 0
    while len(kept) < wanted:
        if counter >= cap:
            raise ResamplingError(
                f"exceeded {cap} resampling attempts with only "
                f"{len(kept)} usable replicates; cells are too sparse to "
                f"bootstrap")
        size = wanted - len(kept)
        if counter:  # scaled by the usable share so far; if none, the rest
            size = -(-size * counter // len(kept)) if kept else cap
        outcomes = map_ordered(task, range(  # a draw per job at least
            counter, min(counter + max(size, n_jobs), cap)), n_jobs)
        counter += len(outcomes)
        kept += [o for o in outcomes if o is not _Draw.LACKS_CELL]
    for outcome in kept[:wanted]:
        if isinstance(outcome, Exception):
            raise outcome
    return np.array(kept[:wanted])


def bootstrap_ses(dataset: PanelDataset,
                  estimator: Callable[[PanelDataset], Tuple[float, ...]],
                  config: BootstrapConfig,
                  n_jobs: int = 1) -> Tuple[float, ...]:
    """Standard deviation of each of the estimator's values over one
    stream of pairs resamples, so the values of a draw are paired. Each
    column's sd is taken on its own, so it equals the sd of a pass that
    returned that value alone."""
    draws = bootstrap_replicates(dataset, estimator, config, n_jobs)
    return tuple(float(np.std(np.ascontiguousarray(column), ddof=1))
                 for column in draws.T)


def refit_estimates(nuisances: NuisanceSet,
                    methods: Tuple[Method, ...] = DR_METHODS
                    ) -> Callable[[PanelDataset], Tuple[float, ...]]:
    """Estimator callable for bootstrap_ses: refits the nuisances once per
    resample with the full-sample fit's fit_options (mode, trimming and
    normalization included) and returns the point estimates of
    estimate_doubly_robust's `methods`.
    The callable pickles, so it can be sent to worker processes.

    Each refit's logit Newton iteration starts from the full-sample
    propensity coefficients, near where a resample's optimum lies, so
    it takes fewer iterations than a start from zero and converges to
    the same optimum as a fit given no start, up to the convergence
    tolerance."""
    options = dict(nuisances.fit_options)
    if nuisances.propensity is not None:
        options["start"] = nuisances.propensity.coefficients
    return functools.partial(_refit, options, methods)


def _refit(options: dict, methods: Tuple[Method, ...],
           ds: PanelDataset) -> Tuple[float, ...]:
    nuis = fit_nuisances(ds, **options)
    return tuple(res.estimate for res in estimate_doubly_robust(
        ds, nuis, methods))


# ---------------------------------------------------------------------------
# Interaction regressions on the stacked two-period layout
# ---------------------------------------------------------------------------

def _stacked(dataset: PanelDataset, mask: np.ndarray):
    """Long form: one row per unit-period, all period-1 rows first, so
    unit i's rows are i and m + i. Returns (y, eligible, group_a, x,
    period2)."""
    m = int(np.count_nonzero(mask))
    y = np.concatenate([dataset.y1[mask], dataset.y2[mask]])
    e = np.tile(dataset.eligible[mask].astype(float), 2)
    g = np.tile(dataset.group_is_a[mask].astype(float), 2)
    x = np.vstack([dataset.x[mask], dataset.x[mask]])
    t = np.concatenate([np.zeros(m), np.ones(m)])
    return y, e, g, x, t


def _regression_se(model: LinearModel, design: np.ndarray, y: np.ndarray,
                   kind: SeKind) -> np.ndarray:
    """Coefficient standard errors for a fitted regression on _stacked's
    rows."""
    if kind is SeKind.CLASSICAL:
        return model.coef_se
    resid = y - design @ model.coefficients
    n_rows, p = design.shape
    gram_inv = model.gram_inverse
    if kind is SeKind.ROBUST:
        meat = design.T @ (design * (resid * resid)[:, None])
        factor = n_rows / (n_rows - p) if n_rows > p else 1.0
        cov = factor * gram_inv @ meat @ gram_inv
    else:  # CLUSTER by unit: its period-1 and period-2 rows
        scores = design * resid[:, None]
        n_clusters = n_rows // 2
        sums = scores[:n_clusters] + scores[n_clusters:]
        meat = sums.T @ sums
        if n_clusters > 1 and n_rows > p:
            factor = (n_clusters / (n_clusters - 1)) * ((n_rows - 1) / (n_rows - p))
        else:
            factor = 1.0
        cov = factor * gram_inv @ meat @ gram_inv
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


def ols_did(dataset: PanelDataset, group: Group, with_controls: bool,
            se_kind: SeKind = SeKind.ROBUST) -> EstimateResult:
    """Two-way interaction regression on one group's stacked rows; the
    eligible-by-period-2 coefficient is the group's DID."""
    mask = dataset.group_is_a if group is Group.A else ~dataset.group_is_a
    for elig in (True, False):
        if not np.any(mask & (dataset.eligible == elig)):
            raise EstimationError(
                f"group {group.name} lacks {'eligible' if elig else 'never-eligible'} "
                "units; DID regression undefined")
    y, e, _, x, t = _stacked(dataset, mask)
    columns = [np.ones_like(y), e, t, e * t]
    names = ["intercept", "eligible", "period2", "eligible_x_period2"]
    if with_controls:
        columns.extend(x.T)
        names.extend(dataset.covariate_names)
    design = np.column_stack(columns)
    model = fit_ols(design, y, names,
                    fitted_on=f"stacked DID, group {group.name}")
    se = _regression_se(model, design, y, se_kind)
    return EstimateResult(
        estimate=float(model.coefficients[3]), se=float(se[3]),
        n=int(np.count_nonzero(mask)),
        estimand_label=EstimandLabel.DESCRIPTIVE,
        method=Method.OLS_DID_A if group is Group.A else Method.OLS_DID_B)


def ols_tdid(dataset: PanelDataset, with_controls: bool,
             se_kind: SeKind = SeKind.ROBUST) -> EstimateResult:
    """Three-way interaction regression on all stacked rows; the
    eligible-by-period-2-by-group-A coefficient is the triple
    difference."""
    y, e, g, x, t = _stacked(dataset, np.ones(dataset.n, dtype=bool))
    columns = [np.ones_like(y), e, t, g, e * t, e * g, t * g, e * t * g]
    names = ["intercept", "eligible", "period2", "group_a",
             "eligible_x_period2", "eligible_x_group_a",
             "period2_x_group_a", "eligible_x_period2_x_group_a"]
    if with_controls:
        columns.extend(x.T)
        names.extend(dataset.covariate_names)
    design = np.column_stack(columns)
    model = fit_ols(design, y, names, fitted_on="stacked TDID")
    se = _regression_se(model, design, y, se_kind)
    return EstimateResult(
        estimate=float(model.coefficients[7]), se=float(se[7]), n=dataset.n,
        estimand_label=EstimandLabel.DESCRIPTIVE, method=Method.OLS_TDID)
