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
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .data import (Cell, Eligibility, Group, PanelDataset, cell_index,
                   cell_name, cell_table)
from .exceptions import EstimationError, MissingNuisanceError, TrimmingError
from .nuisance import NuisanceSet

A2: Cell = (Group.A, Eligibility.ELIGIBLE)
A_NEVER: Cell = (Group.A, Eligibility.NEVER)
B2: Cell = (Group.B, Eligibility.ELIGIBLE)
B_NEVER: Cell = (Group.B, Eligibility.NEVER)


class ScoreKind(enum.Enum):
    """The nine score functions. OR/IPW/DR come per group; the weighted
    forms (W prefix) pull group-B quantities to group A's covariates."""

    OR_A = "or_a"
    OR_B = "or_b"
    IPW_A = "ipw_a"
    IPW_B = "ipw_b"
    DR_A = "dr_a"
    DR_B = "dr_b"
    WOR = "weighted_or"
    WIPW = "weighted_ipw"
    WDR = "weighted_dr"


@dataclass(frozen=True)
class ScoreVector:
    """Per-unit score values for one kind, aligned with dataset rows."""

    values: np.ndarray
    kind: ScoreKind

    def mean(self) -> float:
        return float(np.mean(self.values))

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# One fit evaluated on one dataset
# ---------------------------------------------------------------------------

def _per_evaluation(method):
    """Compute a FitEvaluation array on its first request for given
    arguments, then return the stored array, read-only because every
    later caller shares it."""
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

    Holds the cell table and the outcome changes, and computes the
    propensity matrix, each outcome-change prediction, each treatment
    weight and each control weight once, on first request. Every score
    kind, estimator and bias diagnostic built from one evaluation thus
    shares a single prediction per model. The fit's options set the
    trim threshold and the weighting: with "normalize" each control
    weight is rescaled by its full-sample mean (the treatment weight
    already averages to one by construction); without it the weights
    stay exactly as defined.
    """

    def __init__(self, dataset: PanelDataset, nuisances: NuisanceSet):
        self.dataset = dataset
        self.nuisances = nuisances
        self.normalize = nuisances.fit_options["normalize"]
        self.cells = cell_table(dataset)
        self.delta = dataset.delta_y()
        self._memo: dict = {}

    @_per_evaluation
    def propensities(self) -> np.ndarray:
        """Cell probabilities of every unit, shape (n, 4)."""
        return self.nuisances.propensities(self.dataset.x)

    @_per_evaluation
    def outcome(self, cell: Cell) -> np.ndarray:
        """Outcome-change regression of `cell` at every unit's covariates."""
        return np.asarray(self.nuisances.outcome_mean(cell, self.dataset.x),
                          dtype=float)

    @_per_evaluation
    def weight_t(self, target_cell: Cell) -> np.ndarray:
        """Treatment weights 1{unit in cell} / share(cell) for all units."""
        share = self.cells.share(target_cell)
        if share == 0:
            raise EstimationError(f"cell {cell_name(target_cell)} is empty; "
                                  "treatment weight undefined")
        out = np.zeros(self.dataset.n)
        out[self.dataset.cell_mask(target_cell)] = 1.0 / share
        return out

    @_per_evaluation
    def weight_c(self, numerator_cell: Cell, source_cell: Cell) -> np.ndarray:
        """Control weights: [1{unit in source} / share(numerator)] times the
        propensity ratio p(numerator, x) / p(source, x), normalized when
        the evaluation normalizes.

        Source-cell units whose source-cell propensity falls below the
        fit's trim threshold raise TrimmingError listing the unit ids.
        When numerator and source coincide the ratio is exactly one and
        the unnormalized weight equals the treatment weight bit-for-bit.
        """
        dataset = self.dataset
        share = self.cells.share(numerator_cell)
        if share == 0:
            raise EstimationError(f"cell {cell_name(numerator_cell)} is "
                                  "empty; control weight undefined")
        mask = dataset.cell_mask(source_cell)
        out = np.zeros(dataset.n)
        if np.any(mask):
            probs = self.propensities()
            p_num = probs[:, cell_index(numerator_cell)]
            p_src = probs[:, cell_index(source_cell)]
            eps = self.nuisances.fit_options["trim_epsilon"]
            low = mask & (p_src < eps)
            if np.any(low):
                ids = tuple(dataset.ids[low])
                raise TrimmingError(
                    f"{len(ids)} unit(s) in {cell_name(source_cell)} have "
                    f"p{cell_name(source_cell)} below trim threshold {eps:g}: "
                    f"{', '.join(repr(i) for i in ids[:10])}"
                    + ("…" if len(ids) > 10 else ""),
                    unit_ids=ids)
            np.divide(p_num, p_src, out=out, where=mask)
            np.multiply(out, 1.0 / share, out=out, where=mask)
        if self.normalize:
            mean = float(np.mean(out))
            if mean <= 0:
                raise EstimationError(
                    f"control weight for source {cell_name(source_cell)} has "
                    f"non-positive mean {mean:g}; cannot normalize")
            out = out / mean
        return out

    def augmentation(self, multiplier: np.ndarray, cell: Cell) -> np.ndarray:
        """(w_T - w_C) * m(cell, x). With unnormalized weights the same-cell
        control weight repeats the treatment weight's arithmetic operation
        for operation, so this multiplier is identically zero and the
        regression for `cell` need not be fitted. Normalizing breaks the
        identity, making the model mandatory."""
        if not self.normalize:
            if np.any(multiplier):
                raise EstimationError(
                    f"augmentation multiplier for m{cell_name(cell)} should "
                    "be identically zero with unnormalized weights but is not")
            return np.zeros(len(multiplier))
        if not self.nuisances.has_outcome(cell):
            raise MissingNuisanceError(
                f"score needs outcome model m{cell_name(cell)} because "
                "normalized weights give it a nonzero multiplier")
        return multiplier * self.outcome(cell)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

def score_vector(kind: ScoreKind, ev: FitEvaluation) -> ScoreVector:
    """All units' values of one score function of an evaluated fit."""
    delta = ev.delta
    wt, wc, m = ev.weight_t, ev.weight_c, ev.outcome

    if kind in (ScoreKind.OR_A, ScoreKind.OR_B):
        g = Group.A if kind is ScoreKind.OR_A else Group.B
        values = wt((g, Eligibility.ELIGIBLE)) * (
            delta - m((g, Eligibility.NEVER)))
    elif kind in (ScoreKind.IPW_A, ScoreKind.IPW_B):
        g = Group.A if kind is ScoreKind.IPW_A else Group.B
        eligible = (g, Eligibility.ELIGIBLE)
        never = (g, Eligibility.NEVER)
        values = (wc(eligible, eligible) - wc(eligible, never)) * delta
    elif kind in (ScoreKind.DR_A, ScoreKind.DR_B):
        g = Group.A if kind is ScoreKind.DR_A else Group.B
        eligible = (g, Eligibility.ELIGIBLE)
        never = (g, Eligibility.NEVER)
        w_treat = wt(eligible)
        w_same = wc(eligible, eligible)
        w_cross = wc(eligible, never)
        values = (w_same - w_cross) * delta
        values = values + ev.augmentation(w_treat - w_same, eligible)
        values = values - (w_treat - w_cross) * m(never)
    elif kind is ScoreKind.WOR:
        values = wt(A2) * (m(B2) - m(B_NEVER))
    elif kind is ScoreKind.WIPW:
        values = (wc(A2, B2) - wc(A2, B_NEVER)) * delta
    elif kind is ScoreKind.WDR:
        w_treat = wt(A2)
        w_b2 = wc(A2, B2)
        w_bnever = wc(A2, B_NEVER)
        values = (w_b2 - w_bnever) * delta
        values = values + (w_treat - w_b2) * m(B2)
        values = values - (w_treat - w_bnever) * m(B_NEVER)
    else:
        raise ValueError(f"unknown score kind {kind!r}")

    if not np.all(np.isfinite(values)):
        raise EstimationError(
            f"non-finite {kind.value} score values; check overlap and "
            "nuisance fits")
    return ScoreVector(values=values, kind=kind)


def score_vectors(kinds: Sequence[ScoreKind], ev: FitEvaluation
                  ) -> Dict[ScoreKind, ScoreVector]:
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
                             *(repr(float(columns[k].values[i])) for k in kinds)])
