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
import math
import operator
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

    Holds the cell shares and masks and the outcome changes, and builds
    its arrays on first request, once per evaluation: every fitted
    cell's outcome-change prediction in one batched product
    (NuisanceSet.outcome_means); the own-cell propensities, and one trim
    comparison of them that covers every source cell; each numerator's
    odds row; and each treatment and control weight.
    Every score kind, estimator and bias diagnostic built from one
    evaluation thus shares a single prediction per model. On the
    dataset the fit was fitted on, the propensity matrix is not
    predicted at all: it is the logit's own converged probabilities
    (NuisanceSet.propensities), so a bootstrap refit or a Monte Carlo
    replication predicts no propensity. The fit's options set the trim
    threshold and the weighting: with "normalize" each control weight is
    rescaled by its full-sample mean (the treatment weight already
    averages to one by construction); without it the weights stay
    exactly as defined. Per-cell quantities sit in slots indexed by
    Cell: the `shares` and `masks` sequences, the outcome slots and the
    memo, which keys by method name and cells. Each array is the one
    the per-cell arithmetic gives, bit for bit. A dr and naive
    evaluation of a fresh n=2,000 fit takes 330 us and 193 Python calls
    (cProfile's count), against 351 us and 237 calls when each model
    was predicted on its own and the trimming checked per source cell
    (medians of 12 interleaved blocks of 40 fits, faster in 12; one
    OpenBLAS thread, 2-core x86-64).

    Only what reads values per unit builds one: estimates, influence
    values and SEs, bias_diagnostic and dump_scores. A bootstrap refit's
    score_means builds a _CellSums evaluation alone.
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

    @functools.cached_property
    def _outcomes(self) -> list:
        """Each Cell's slot holds its outcome-change regression at every
        unit's covariates, read-only, or None for a cell without one."""
        cells, values = self.nuisances.outcome_means(self.dataset.x)
        values.setflags(write=False)
        slots = [None] * len(Cell)
        for cell, row in zip(cells, values):
            slots[cell] = row
        return slots

    def outcome(self, cell: Cell) -> np.ndarray:
        """Outcome-change regression of `cell` at every unit's covariates."""
        values = self._outcomes[cell]
        if values is None:
            raise _missing_outcome(cell)
        return values

    @_per_evaluation
    def weight_t(self, target: Cell) -> np.ndarray:
        """Treatment weights 1{unit in target} / share(target) for all
        units."""
        share = self.shares[target]
        if share == 0:
            raise _empty(target, "treatment")
        return self._weights(None, target) * (1.0 / share)  # +0 outside

    def _weights(self, num, cells) -> np.ndarray:
        """The weights of the units of `cells` toward numerator `num`
        before their scale, checks and normalizing: the odds row of `num`
        masked to them, or their mask when `num` is None. `cells` is a
        Cell, or ... for all four cells' rows."""
        mask = self.masks[cells]
        return mask if num is None else np.where(mask, self._odds(num), 0.0)

    # a weight's sum over units, which normalizing divides by n
    _total = staticmethod(np.add.reduce)

    @functools.cached_property
    def _own(self) -> np.ndarray:
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
        scores' finiteness check rejects it. One row per numerator that
        a weight asks for: dividing the four cells' rows at once raised a
        199-draw bootstrap's peak RSS at n=5,000 from 38.17 to 38.38 MB
        (two workers, medians of 5 runs) for rows no score reads."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(self.propensities()[:, num], self._own)
        out *= 1.0 / self.shares[num]
        return out

    @functools.cached_property
    def _trimmed(self) -> np.ndarray:
        """Whether each source cell holds a unit whose own-cell
        propensity is below the trim threshold, by Cell: one comparison
        for every cell."""
        below = self._own < self.nuisances.fit_options["trim_epsilon"]
        return (self.masks & below).any(axis=1)

    @_per_evaluation
    def weight_c(self, num: Cell, src: Cell) -> np.ndarray:
        """Control weights: [1{unit in source} / share(numerator)] times the
        propensity ratio p(numerator, x) / p(source, x), normalized when
        the evaluation normalizes: the odds row of the numerator masked
        to the source. An empty numerator raises EstimationError, and
        source-cell units whose source-cell propensity falls below the
        fit's trim threshold raise TrimmingError listing the unit ids; no
        propensity is below a threshold of 0, so that one is not checked.

        When numerator and source coincide the ratio is exactly one and
        the unnormalized weight equals the treatment weight bit-for-bit.
        """
        if self.shares[num] == 0:
            raise _empty(num, "control")
        if self.shares[src]:  # a unit of the source cell
            eps = self.nuisances.fit_options["trim_epsilon"]
            if eps > 0 and self._trimmed[src]:
                ids = tuple(
                    self.dataset.ids[self.masks[src] & (self._own < eps)])
                raise TrimmingError(
                    f"{len(ids)} unit(s) in {src.label} have p{src.label} "
                    f"below trim threshold {eps:g}: "
                    f"{', '.join(repr(i) for i in ids[:10])}"
                    + ("…" if len(ids) > 10 else ""),
                    unit_ids=ids)
            out = self._weights(num, src)
        else:
            out = np.zeros(len(self.delta))
        if self.normalize:
            # np.mean's sum and divide
            mean = float(self._total(out) / self.dataset.n)
            if mean <= 0:
                raise EstimationError(
                    f"control weight for source {src.label} "
                    f"has non-positive mean {mean:g}; cannot normalize")
            out = out / mean
        return out

    def _augments(self, target: Cell, cell: Cell, nan_weight) -> bool:
        """Whether a doubly robust score adds (w_T - w_C) * m(cell) for
        the treatment weight of `target` and the control weight from
        `cell`. Not when the two cells coincide and the weights are
        unnormalized: the control weight then repeats the treatment
        weight's arithmetic operation for operation, so the multiplier is
        identically zero and the regression for `cell` need not be
        fitted. It is nonzero exactly where the control weight is NaN, an
        own-cell propensity that underflowed to 0 giving 0/0, so
        `nan_weight`, np.isnan of the control weight, must be all False
        (else EstimationError). Normalizing breaks the identity, making
        the model mandatory (else MissingNuisanceError)."""
        if cell == target and not self.normalize:
            if nan_weight.any():
                raise EstimationError(
                    f"augmentation multiplier for m{cell.label} should "
                    "be identically zero with unnormalized weights but is not")
            return False
        if cell == target and not self.nuisances.has_outcome(cell):
            raise MissingNuisanceError(
                f"score needs outcome model m{cell.label} because "
                "normalized weights give it a nonzero multiplier")
        return True


class _CellSums(FitEvaluation):
    """A FitEvaluation in the cell-sum algebra, the one score_means
    builds: one (d+2, n) array of [1, x, Δy] and, per weight block, the
    odds row and a (4, n) weight array.

    Each score is a sum of products of weights with the outcome change
    Δy or with change regressions m(c, x) = a_c + b_c'x, so its sum over
    units is linear in each weight's sums of w_i [1, x_i, Δy_i], with x
    the covariates the regressions read. Here a weight is that (d+2,)
    row (weight_t, weight_c), Δy is the unit vector on its last entry
    (delta), and m(c) is [a_c, b_c, 0] (outcome): the products and
    differences that give a score's per-unit values on a FitEvaluation
    give, on these operands, a (d+2,) vector whose sum is the sum of
    those values. The weights keep their checks; each numerator's rows
    come from one product of its masked odds block (see _moments), so a
    kind has the same bits whichever other kinds are evaluated."""

    # a weight's sum over units is its count column
    _total = staticmethod(operator.itemgetter(0))

    def __init__(self, dataset: PanelDataset, nuisances: NuisanceSet):
        super().__init__(dataset, nuisances)
        x = nuisances.outcome_features(dataset.x)
        self._columns = np.empty((x.shape[1] + 2, dataset.n))
        self._columns[0] = 1.0
        self._columns[1:-1] = x.T
        self._columns[-1] = self.delta
        self.delta = np.zeros(len(self._columns))
        self.delta[-1] = 1.0

    @functools.cached_property
    def _outcomes(self) -> list:
        """Each Cell's slot holds its regression's coefficients padded
        with a 0 for Δy, or None for a cell without one."""
        slots = [None] * len(Cell)
        for cell, model in self.nuisances.outcome_models.items():
            slots[cell] = padded = np.zeros(len(self.delta))
            padded[:-1] = model.coefficients
        return slots

    def _weights(self, num, cells) -> np.ndarray:
        """The rows of `cells` in the table of numerator `num`."""
        return self._moments(num)[cells]

    @_per_evaluation
    def _moments(self, num) -> np.ndarray:
        """One weight block's table, (4, d+2): each source cell's sums of
        [1, x, Δy] over its units, weighted by the odds row of numerator
        `num` masked to the cell, or by one when `num` is None. The
        masking keeps a non-finite odds, from an own-cell propensity
        that underflowed, in its own cell's row."""
        return super()._weights(num, ...) @ self._columns.T


# errors of the evaluation and the scores, built only when raised

def _empty(cell: Cell, weight: str) -> EstimationError:
    return EstimationError(f"cell {cell.label} is empty; {weight} weight "
                           "undefined")


def _missing_outcome(cell: Cell) -> MissingNuisanceError:
    return MissingNuisanceError(
        f"no outcome-change model for cell {cell.label}")


def _nonfinite(kind: ScoreKind) -> EstimationError:
    return EstimationError(f"non-finite {kind.value} score values; check "
                           "overlap and nuisance fits")


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

def _score(kind: ScoreKind, ev: FitEvaluation) -> np.ndarray:
    """One score kind's formula on the operands of `ev`: every unit's
    value on a FitEvaluation, a vector that sums to their sum on its
    _CellSums. The doubly robust form is the DR DiD score of Sant'Anna
    and Zhao (2020), w_T (m_e - m_n) + w_e (Δy - m_e) - w_n (Δy - m_n),
    grouped so that the m_e term drops out where _augments says."""
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
        # + 0.0 without the term turns a -0.0 into 0.0, as adding the
        # term's zeros did
        values = values + ((w_treat - w_elig) * m(eligible) if ev._augments(
            target, eligible, np.isnan(w_elig)) else 0.0)
        values = values - (w_treat - w_never) * m(never)
    return values


def score_vector(kind: ScoreKind, ev: FitEvaluation) -> np.ndarray:
    """All units' values of one score function of an evaluated fit: the
    contrast of the kind's group's eligible and never-eligible cells at
    its target cell's covariate distribution, in the kind's form."""
    values = _score(kind, ev)
    if not np.isfinite(values).all():
        raise _nonfinite(kind)
    return values


def score_vectors(kinds: Sequence[ScoreKind], ev: FitEvaluation
                  ) -> Dict[ScoreKind, np.ndarray]:
    """Several score functions of one evaluated fit. Kinds are built in
    the order given, so the first failing kind raises exactly what
    score_vector would."""
    return {kind: score_vector(kind, ev) for kind in kinds}


def score_means(dataset: PanelDataset, nuisances: NuisanceSet,
                kinds: Sequence[ScoreKind]) -> Dict[ScoreKind, float]:
    """The mean of each score kind of the fit on the dataset, in the
    order given, without any per-unit score vector, weight or outcome
    prediction: each kind's formula (_score) on one _CellSums
    evaluation, whose sum is n times the mean. Since the formula and
    the weights' checks are the code score_vector runs, a kind raises
    what score_vector raises for it, in the same cases and order: empty
    target, trimmed source, non-positive normalizer, non-zero
    augmentation multiplier, missing model, non-finite values. The
    means agree with those of score_vector's values up to rounding,
    since the two sum in different orders, and a kind's mean has the
    same bits whichever other kinds are asked for."""
    sums, means = _CellSums(dataset, nuisances), {}
    for kind in kinds:
        means[kind] = float(np.add.reduce(_score(kind, sums)) / dataset.n)
        # a non-finite weight or coefficient the score reads gives a
        # non-finite sum, as it gives score_vector a non-finite value
        if not math.isfinite(means[kind]):
            raise _nonfinite(kind)
    return means


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
