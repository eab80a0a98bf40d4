"""Per-unit weights and score functions for the reweighted estimators.

Everything here is a pure function of (dataset, cell table, fitted
nuisances), evaluated for all units at once. The treatment weight
targets one cell; the control weight carries a propensity ratio that
moves a source cell's units to the covariate distribution of a
numerator cell. Scores combine the two with outcome-change regressions
into OR, IPW and doubly robust forms, plus the reweighted (W-prefixed)
forms that evaluate group-B models under group A's covariate
distribution.
"""

from __future__ import annotations

import csv
import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .data import (Cell, CellTable, Eligibility, Group, PanelDataset,
                   cell_index, cell_name)
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
# Weights
# ---------------------------------------------------------------------------

def weight_t_values(dataset: PanelDataset, target_cell: Cell,
                    cells: CellTable) -> np.ndarray:
    """Treatment weights 1{unit in cell} / share(cell) for all units."""
    share = cells.share(target_cell)
    if share == 0:
        raise EstimationError(
            f"cell {cell_name(target_cell)} is empty; treatment weight undefined")
    out = np.zeros(dataset.n)
    out[dataset.cell_mask(target_cell)] = 1.0 / share
    return out


def _trim_epsilon_of(nuisances: NuisanceSet,
                    override: Optional[float]) -> float:
    if override is not None:
        return override
    if nuisances.propensity is None:
        raise MissingNuisanceError("no propensity model fitted")
    return nuisances.propensity.trim_epsilon


def _propensity_memo(nuisances: NuisanceSet, x) -> Callable[[], np.ndarray]:
    """Zero-argument callable returning the propensity matrix of
    `nuisances` at rows x. It predicts on its first call only, so every
    weight built through one memo shares a single prediction, and a kind
    that never asks for the matrix never triggers one."""
    return functools.cache(lambda: nuisances.propensities(x))


def weight_c_values(dataset: PanelDataset, numerator_cell: Cell,
                    source_cell: Cell, cells: CellTable,
                    nuisances: NuisanceSet,
                    trim_epsilon: Optional[float] = None,
                    propensities: Optional[Callable[[], np.ndarray]] = None
                    ) -> np.ndarray:
    """Control weights: [1{unit in source} / share(numerator)] times the
    propensity ratio p(numerator, x) / p(source, x).

    Source-cell units whose source-cell propensity falls below the trim
    threshold raise TrimmingError listing the unit ids. When numerator
    and source coincide the ratio is exactly one and the weight equals
    the treatment weight bit-for-bit. `propensities`, when given, is a
    memo of the nuisances' matrix at dataset.x (see score_vectors).
    """
    share = cells.share(numerator_cell)
    if share == 0:
        raise EstimationError(
            f"cell {cell_name(numerator_cell)} is empty; control weight undefined")
    mask = dataset.cell_mask(source_cell)
    out = np.zeros(dataset.n)
    if not np.any(mask):
        return out

    probs = (propensities() if propensities
             else nuisances.propensities(dataset.x))
    p_num = probs[:, cell_index(numerator_cell)]
    p_src = probs[:, cell_index(source_cell)]
    eps = _trim_epsilon_of(nuisances, trim_epsilon)
    low = mask & (p_src < eps)
    if np.any(low):
        ids = tuple(dataset.ids[low])
        raise TrimmingError(
            f"{len(ids)} unit(s) in {cell_name(source_cell)} have "
            f"p{cell_name(source_cell)} below trim threshold {eps:g}: "
            f"{', '.join(repr(i) for i in ids[:10])}"
            + ("…" if len(ids) > 10 else ""),
            unit_ids=ids)
    out[mask] = (1.0 / share) * (p_num[mask] / p_src[mask])
    return out


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

def _outcome(nuisances: NuisanceSet, cell: Cell, x) -> np.ndarray:
    return np.asarray(nuisances.outcome_mean(cell, x), dtype=float)


def _augmentation(multiplier: np.ndarray, nuisances: NuisanceSet,
                  cell: Cell, x, structurally_zero: bool) -> np.ndarray:
    """(w_T - w_C) * m(cell, x). With unnormalized weights the same-cell
    control weight repeats the treatment weight's arithmetic operation
    for operation, so this multiplier is identically zero and the
    regression for `cell` need not be fitted. Normalizing breaks the
    identity, making the model mandatory."""
    if structurally_zero:
        if np.any(multiplier):
            raise EstimationError(
                f"augmentation multiplier for m{cell_name(cell)} should be "
                "identically zero with unnormalized weights but is not")
        return np.zeros(len(multiplier))
    if not nuisances.has_outcome(cell):
        raise MissingNuisanceError(
            f"score needs outcome model m{cell_name(cell)} because "
            "normalized weights give it a nonzero multiplier")
    return multiplier * _outcome(nuisances, cell, x)


def score_vector(kind: ScoreKind, dataset: PanelDataset, cells: CellTable,
                 nuisances: NuisanceSet, normalize: bool = False,
                 trim_epsilon: Optional[float] = None,
                 propensities: Optional[Callable[[], np.ndarray]] = None
                 ) -> ScoreVector:
    """All units' values of one score function.

    normalize=True rescales each control weight by its full-sample mean
    (the treatment weight already averages to one by construction). The
    default leaves the weights exactly as defined. The propensity matrix
    is predicted at most once, or taken from the `propensities` memo that
    score_vectors shares across kinds.
    """
    x = dataset.x
    delta = dataset.delta_y()
    if propensities is None:
        propensities = _propensity_memo(nuisances, x)

    def wt(cell):
        return weight_t_values(dataset, cell, cells)

    def wc(numerator, source):
        w = weight_c_values(dataset, numerator, source, cells, nuisances,
                            trim_epsilon, propensities)
        if normalize:
            mean = float(np.mean(w))
            if mean <= 0:
                raise EstimationError(
                    f"control weight for source {cell_name(source)} has "
                    f"non-positive mean {mean:g}; cannot normalize")
            w = w / mean
        return w

    if kind in (ScoreKind.OR_A, ScoreKind.OR_B):
        g = Group.A if kind is ScoreKind.OR_A else Group.B
        w = wt((g, Eligibility.ELIGIBLE))
        values = w * (delta - _outcome(nuisances, (g, Eligibility.NEVER), x))
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
        values = values + _augmentation(w_treat - w_same, nuisances, eligible,
                                        x, structurally_zero=not normalize)
        values = values - (w_treat - w_cross) * _outcome(nuisances, never, x)
    elif kind is ScoreKind.WOR:
        w = wt(A2)
        values = w * (_outcome(nuisances, B2, x) - _outcome(nuisances, B_NEVER, x))
    elif kind is ScoreKind.WIPW:
        values = (wc(A2, B2) - wc(A2, B_NEVER)) * delta
    elif kind is ScoreKind.WDR:
        w_treat = wt(A2)
        w_b2 = wc(A2, B2)
        w_bnever = wc(A2, B_NEVER)
        values = (w_b2 - w_bnever) * delta
        values = values + (w_treat - w_b2) * _outcome(nuisances, B2, x)
        values = values - (w_treat - w_bnever) * _outcome(nuisances, B_NEVER, x)
    else:
        raise ValueError(f"unknown score kind {kind!r}")

    if not np.all(np.isfinite(values)):
        raise EstimationError(
            f"non-finite {kind.value} score values; check overlap and "
            "nuisance fits")
    return ScoreVector(values=values, kind=kind)


def score_vectors(kinds: Sequence[ScoreKind], dataset: PanelDataset,
                  cells: CellTable, nuisances: NuisanceSet,
                  normalize: bool = False,
                  trim_epsilon: Optional[float] = None
                  ) -> Dict[ScoreKind, ScoreVector]:
    """Several score functions of one fit on one dataset, sharing a single
    propensity prediction. Kinds are built in the order given, so the
    first failing kind raises exactly what score_vector would."""
    propensities = _propensity_memo(nuisances, dataset.x)
    return {kind: score_vector(kind, dataset, cells, nuisances, normalize,
                               trim_epsilon, propensities)
            for kind in kinds}


def dump_scores(dataset: PanelDataset, cells: CellTable,
                nuisances: NuisanceSet, kinds: Sequence[ScoreKind],
                path, normalize: bool = False) -> None:
    """Write per-unit score values (one column per kind) for audit."""
    columns = score_vectors(kinds, dataset, cells, nuisances, normalize)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", *(f"score_{k.value}" for k in kinds)])
        for i in range(dataset.n):
            writer.writerow([dataset.ids[i],
                             *(repr(float(columns[k].values[i])) for k in kinds)])
