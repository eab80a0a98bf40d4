"""Per-unit weights and score functions for the reweighted estimators.

Everything here is a pure function of (dataset, fitted nuisances),
evaluated for all units at once through one FitEvaluation. The
treatment weight targets one cell; the control weight carries a
propensity ratio that moves a source cell's units to the covariate
distribution of a numerator cell. Scores combine the two with
outcome-change regressions into OR, IPW and doubly robust forms, plus
the reweighted (W-prefixed) forms that evaluate group-B models under
group A's covariate distribution.
"""

from __future__ import annotations

import csv
import enum
import functools
from typing import Dict, Sequence

import numpy as np

from .data import Cell, Group, PanelDataset
from .exceptions import EstimationError, MissingNuisanceError, TrimmingError
from .nuisance import NuisanceSet


class ScoreForm(enum.Enum):
    REGRESSION = "regression"          # OR: fitted change regressions
    WEIGHTING = "weighting"            # IPW: control weights on the change
    DOUBLY_ROBUST = "doubly_robust"    # DR: weights plus regressions


class ScoreKind(enum.Enum):
    """The nine score functions, as a table: value, form, the cell whose
    covariate distribution the score targets, and the group whose
    eligible and never-eligible changes it contrasts. The W-prefixed
    kinds take group B's contrast at group A's covariates. `cells` are
    the target, the group's eligible and its never-eligible cell."""

    OR_A = ("or_a", ScoreForm.REGRESSION, Cell.A_ELIGIBLE, Group.A)
    OR_B = ("or_b", ScoreForm.REGRESSION, Cell.B_ELIGIBLE, Group.B)
    IPW_A = ("ipw_a", ScoreForm.WEIGHTING, Cell.A_ELIGIBLE, Group.A)
    IPW_B = ("ipw_b", ScoreForm.WEIGHTING, Cell.B_ELIGIBLE, Group.B)
    DR_A = ("dr_a", ScoreForm.DOUBLY_ROBUST, Cell.A_ELIGIBLE, Group.A)
    DR_B = ("dr_b", ScoreForm.DOUBLY_ROBUST, Cell.B_ELIGIBLE, Group.B)
    WOR = ("weighted_or", ScoreForm.REGRESSION, Cell.A_ELIGIBLE, Group.B)
    WIPW = ("weighted_ipw", ScoreForm.WEIGHTING, Cell.A_ELIGIBLE, Group.B)
    WDR = ("weighted_dr", ScoreForm.DOUBLY_ROBUST, Cell.A_ELIGIBLE, Group.B)

    __hash__ = object.__hash__  # by identity, in C: Enum's is a Python call

    def __new__(cls, value: str, form: ScoreForm, target: Cell, group: Group):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.form, kind.target, kind.group = form, target, group
        kind.cells = (target, *(cell for cell in Cell if cell.group is group))
        return kind


# ---------------------------------------------------------------------------
# One fit evaluated on one dataset
# ---------------------------------------------------------------------------

def _per_evaluation(method):
    """Compute a FitEvaluation array on its first request for given
    arguments, then return the stored array, read-only because every
    later caller shares it. Without the memo the benchmark's bootstrap
    read 0.66 s against 0.61 s and its Monte Carlo study 1.03 s against
    0.88 s (9 and 12 of 12 alternating CLI pairs)."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            value = method(self, *args)
            value.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]
    return cached


class FitEvaluation:
    """A fitted NuisanceSet evaluated on one dataset's units.

    Holds the cell shares and masks and the outcome changes, and
    computes the propensity matrix, each outcome-change prediction, each
    treatment weight, odds row and control weight once, on first
    request. Every score kind, estimator and bias diagnostic built from
    one evaluation thus shares a single prediction per model. On the
    dataset the fit was fitted on, the propensity matrix is not
    predicted at all: it is the logit's own converged probabilities
    (NuisanceSet.propensities), so a bootstrap refit or a Monte Carlo
    replication predicts no propensity. The fit's options set the trim
    threshold and the weighting: with "normalize" each control weight is
    rescaled by its full-sample mean (the treatment weight already
    averages to one by construction); without it the weights stay
    exactly as defined. Per-cell quantities sit in
    slots indexed by Cell: the `shares` and `masks` sequences and the
    memo, which keys by method name and cells.
    """

    def __init__(self, dataset: PanelDataset, nuisances: NuisanceSet):
        self.dataset = dataset
        self.nuisances = nuisances
        self.normalize = nuisances.fit_options["normalize"]
        self.shares = np.divide(dataset.cell_counts,
                                max(dataset.n, 1)).tolist()
        self.masks = dataset.cell_masks
        self.delta = dataset.delta_y()
        self._memo: dict = {}

    @_per_evaluation
    def propensities(self) -> np.ndarray:
        """Cell probabilities of every unit, shape (n, 4): the fit's own
        on its fitted dataset, else predicted."""
        return self.nuisances.propensities(self.dataset.x)

    @_per_evaluation
    def outcome(self, cell: Cell) -> np.ndarray:
        """Outcome-change regression of `cell` at every unit's covariates."""
        return np.asarray(self.nuisances.outcome_mean(
            cell, self.dataset.x), dtype=float)

    @_per_evaluation
    def weight_t(self, target: Cell) -> np.ndarray:
        """Treatment weights 1{unit in target} / share(target) for all
        units."""
        share = self.shares[target]
        if share == 0:
            raise EstimationError(f"cell {target.label} is empty; "
                                  "treatment weight undefined")
        return self.masks[target] * (1.0 / share)  # +0 outside the cell

    @_per_evaluation
    def own_propensity(self) -> np.ndarray:
        """Every unit's propensity for its own cell."""
        n = self.dataset.n
        # the (n, 4) propensities are the transpose of cell-major rows,
        # so the flat index of unit i's own cell is its code * n + i
        return self.propensities().T.ravel().take(
            self.dataset.cell_codes() * n + np.arange(n))

    @_per_evaluation
    def _odds(self, num: Cell) -> np.ndarray:
        """p(numerator, x) / p(own cell, x) * (1 / share(numerator)) for
        every unit: the control weight of each source cell before its
        mask. A unit whose own-cell propensity underflowed to zero gets
        inf or NaN here without a warning; weight_c masks it away
        outside the source, and inside it the trimming threshold or the
        scores' finiteness check rejects it."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(self.propensities()[:, num],
                            self.own_propensity())
        out *= 1.0 / self.shares[num]
        return out

    @_per_evaluation
    def weight_c(self, num: Cell, src: Cell) -> np.ndarray:
        """Control weights: [1{unit in source} / share(numerator)] times the
        propensity ratio p(numerator, x) / p(source, x), normalized when
        the evaluation normalizes: the odds row of the numerator masked
        to the source.

        Source-cell units whose source-cell propensity falls below the
        fit's trim threshold raise TrimmingError listing the unit ids; no
        propensity is below a threshold of 0, so that one is not checked.
        When numerator and source coincide the ratio is exactly one and
        the unnormalized weight equals the treatment weight bit-for-bit.
        """
        if self.shares[num] == 0:
            raise EstimationError(f"cell {num.label} is empty; control "
                                  "weight undefined")
        mask = self.masks[src]
        out = np.zeros(mask.shape)
        if self.shares[src]:  # the source cell has units
            eps = self.nuisances.fit_options["trim_epsilon"]
            if eps > 0 and (low := mask & (self.own_propensity() < eps)).any():
                ids = tuple(self.dataset.ids[low])
                raise TrimmingError(
                    f"{len(ids)} unit(s) in {src.label} have p{src.label} "
                    f"below trim threshold {eps:g}: "
                    f"{', '.join(repr(i) for i in ids[:10])}"
                    + ("…" if len(ids) > 10 else ""),
                    unit_ids=ids)
            out = np.where(mask, self._odds(num), 0.0)
        if self.normalize:
            mean = float(out.sum() / len(out))  # np.mean's sum and divide
            if mean <= 0:
                raise EstimationError(
                    f"control weight for source {src.label} "
                    f"has non-positive mean {mean:g}; cannot normalize")
            out = out / mean
        return out

    def augmentation(self, multiplier: np.ndarray, target: Cell,
                     cell: Cell) -> np.ndarray:
        """(w_T - w_C) * m(cell, x) for the treatment weight of `target`
        and the control weight from `cell`. When the two cells coincide
        and the weights are unnormalized, the control weight repeats the
        treatment weight's arithmetic operation for operation, so this
        multiplier is identically zero and the regression for `cell`
        need not be fitted. Normalizing breaks the identity, making the
        model mandatory."""
        if cell == target and not self.normalize:
            if multiplier.any():
                raise EstimationError(
                    f"augmentation multiplier for m{cell.label} should "
                    "be identically zero with unnormalized weights but is not")
            return np.zeros(len(multiplier))
        if cell == target and not self.nuisances.has_outcome(cell):
            raise MissingNuisanceError(
                f"score needs outcome model m{cell.label} because "
                "normalized weights give it a nonzero multiplier")
        return multiplier * self.outcome(cell)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

def score_vector(kind: ScoreKind, ev: FitEvaluation) -> np.ndarray:
    """All units' values of one score function of an evaluated fit: the
    contrast of the kind's group's eligible and never-eligible cells at
    its target cell's covariate distribution, in the kind's form."""
    target, eligible, never = kind.cells
    delta, wt, wc, m = ev.delta, ev.weight_t, ev.weight_c, ev.outcome

    if kind.form is ScoreForm.REGRESSION:
        # the observed change on the target's own cell, else the regression
        values = wt(target) * ((delta if target == eligible
                                else m(eligible)) - m(never))
    elif kind.form is ScoreForm.WEIGHTING:
        values = (wc(target, eligible) - wc(target, never)) * delta
    else:
        w_treat = wt(target)  # first, so an empty target cell raises first
        w_elig, w_never = wc(target, eligible), wc(target, never)
        values = (w_elig - w_never) * delta
        values = values + ev.augmentation(w_treat - w_elig, target, eligible)
        values = values - (w_treat - w_never) * m(never)

    if not np.isfinite(values).all():
        raise EstimationError(
            f"non-finite {kind.value} score values; check overlap and "
            "nuisance fits")
    return values


def score_vectors(kinds: Sequence[ScoreKind], ev: FitEvaluation
                  ) -> Dict[ScoreKind, np.ndarray]:
    """Several score functions of one evaluated fit. Kinds are built in
    the order given, so the first failing kind raises exactly what
    score_vector would."""
    return {kind: score_vector(kind, ev) for kind in kinds}


def dump_scores(ev: FitEvaluation, kinds: Sequence[ScoreKind],
                path) -> None:
    """Write the per-unit score values of one evaluated fit (one
    column per kind) for audit."""
    columns = score_vectors(kinds, ev)
    dataset = ev.dataset
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", *(f"score_{k.value}" for k in kinds)])
        for i in range(dataset.n):
            writer.writerow([dataset.ids[i],
                             *(repr(float(columns[k][i])) for k in kinds)])
