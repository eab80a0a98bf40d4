"""Synthetic data generator with closed-form truth, plus the Monte
Carlo harness that exercises the estimators against it.

The generating process: groups and eligibility cohorts are assigned
independently with probability one half each; a single covariate X is
normal with a group-specific mean; untreated outcomes follow
Y1 = X + e1 and Y2 = X + 1{eligible} * X + e2. The eligibility trend
term makes parallel trends fail by exactly x for both groups, which is
the group-invariant-bias structure the reweighted estimator needs.
Treatment adds a constant or covariate-proportional effect per group.

Every estimand has a closed form, so simulation output can be checked
against an oracle rather than against the estimators themselves.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import AssignmentMechanism, PanelDataset
from .exceptions import EstimationError, TridiffError
from .estimators import Method, estimate_doubly_robust
from .nuisance import fit_nuisances
from .parallel import map_ordered

BETA_A_CONSTANT = 4.0
BETA_B_CONSTANT = 1.0
BETA_A_SLOPE = 4.0
BETA_B_SLOPE = 1.0
MIN_SAMPLE_SIZE = 40
MAX_FAILURE_SHARE = 0.01
HISTOGRAM_BINS = 50


class EffectCase(enum.Enum):
    CONSTANT = "constant"            # effect 4 for group A, 1 for group B
    HETEROGENEOUS = "heterogeneous"  # effect 4x for group A, x for group B


@dataclass(frozen=True)
class DgpSpec:
    n: int
    seed: int
    mu_a: float = 1.0
    mu_b: float = 3.0
    effect_case: EffectCase = EffectCase.HETEROGENEOUS
    mechanism: AssignmentMechanism = AssignmentMechanism.BOTH_GROUPS

    def __post_init__(self):
        if self.n < MIN_SAMPLE_SIZE:
            raise ValueError(f"n must be ≥ {MIN_SAMPLE_SIZE}, got {self.n}")
        if not (math.isfinite(self.mu_a) and math.isfinite(self.mu_b)):
            raise ValueError("group covariate means must be finite")

    def to_dict(self) -> dict:
        return {
            "n": self.n, "seed": self.seed,
            "mu_a": self.mu_a, "mu_b": self.mu_b,
            "effect_case": self.effect_case.value,
            "mechanism": self.mechanism.value,
        }


def _generate(spec: DgpSpec, seed_sequence: np.random.SeedSequence
              ) -> PanelDataset:
    rng = np.random.Generator(np.random.Philox(seed_sequence))
    group_is_a, eligible = rng.random((2, spec.n)) < 0.5
    x, e1, e2 = rng.standard_normal((3, spec.n))
    x += np.where(group_is_a, spec.mu_a, spec.mu_b)

    # untreated outcomes; the trend break rides on eligibility, so it is
    # common to both groups whichever mechanism assigns treatment
    y1 = x + e1
    y2 = x + eligible * x + e2

    treated = spec.mechanism.treated(group_is_a, eligible)
    if spec.effect_case is EffectCase.CONSTANT:
        effect = np.where(group_is_a, BETA_A_CONSTANT, BETA_B_CONSTANT)
    else:
        effect = np.where(group_is_a, BETA_A_SLOPE * x, BETA_B_SLOPE * x)
    y2 = y2 + treated * effect

    return PanelDataset(
        ids=np.arange(spec.n), y1=y1, y2=y2, group_is_a=group_is_a,
        eligible=eligible, x=x.reshape(-1, 1), covariate_names=("x",),
        mechanism=spec.mechanism)


def simulate_sample(spec: DgpSpec) -> PanelDataset:
    """One dataset draw; a pure function of the spec."""
    return _generate(spec, np.random.SeedSequence(spec.seed))


def simulate_replicate(spec: DgpSpec, replication: int) -> PanelDataset:
    """Dataset for one Monte Carlo replication, derived from the master
    seed by the replication counter. Independent of execution order."""
    return _generate(spec, np.random.SeedSequence(
        spec.seed, spawn_key=(replication,)))


# ---------------------------------------------------------------------------
# Closed-form oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleValues:
    """Analytic values of every estimand the estimators target.

    did_*: expected conditional-DID contrast of one group's models
    averaged over a group's covariate distribution. att_b is NaN when
    group B is never treated. target equals reweighted_diff (what the
    reweighted estimator identifies) under either mechanism.
    """

    att_a: float
    att_b: float
    did_a_on_a: float
    did_b_on_b: float
    did_b_on_a: float
    naive_diff: float
    reweighted_diff: float
    target: float

    def to_dict(self) -> dict:
        def clean(v):
            return None if math.isnan(v) else float(v)
        return {
            "att_a": clean(self.att_a), "att_b": clean(self.att_b),
            "did_a_on_a": self.did_a_on_a, "did_b_on_b": self.did_b_on_b,
            "did_b_on_a": self.did_b_on_a, "naive_diff": self.naive_diff,
            "reweighted_diff": self.reweighted_diff, "target": self.target,
        }


def closed_form_oracle(spec: DgpSpec) -> OracleValues:
    """Exact estimand values under the generating process.

    Group g's conditional DID is effect(g, x) + x where eligible units
    are treated, and just x where they are not (the trend gap alone).
    Averaging over the relevant covariate distribution gives every
    quantity in closed form.
    """
    b_treated = spec.mechanism is AssignmentMechanism.BOTH_GROUPS
    if spec.effect_case is EffectCase.CONSTANT:
        att_a = BETA_A_CONSTANT
        att_b = BETA_B_CONSTANT if b_treated else math.nan
        did_a_on_a = BETA_A_CONSTANT + spec.mu_a
        did_b_on_b = (BETA_B_CONSTANT + spec.mu_b) if b_treated else spec.mu_b
        did_b_on_a = (BETA_B_CONSTANT + spec.mu_a) if b_treated else spec.mu_a
    else:
        att_a = BETA_A_SLOPE * spec.mu_a
        att_b = BETA_B_SLOPE * spec.mu_b if b_treated else math.nan
        did_a_on_a = (BETA_A_SLOPE + 1.0) * spec.mu_a
        did_b_on_b = ((BETA_B_SLOPE + 1.0) if b_treated else 1.0) * spec.mu_b
        did_b_on_a = ((BETA_B_SLOPE + 1.0) if b_treated else 1.0) * spec.mu_a

    naive = did_a_on_a - did_b_on_b
    reweighted = did_a_on_a - did_b_on_a
    return OracleValues(att_a=att_a, att_b=att_b, did_a_on_a=did_a_on_a,
                        did_b_on_b=did_b_on_b, did_b_on_a=did_b_on_a,
                        naive_diff=naive, reweighted_diff=reweighted,
                        target=reweighted)


# ---------------------------------------------------------------------------
# Monte Carlo study
# ---------------------------------------------------------------------------

# the methods a Monte Carlo replication estimates, in the order of
# MonteCarloResult's rows: (method, its key in summary(), the
# OracleValues field it is compared with)
MONTE_CARLO_METHODS = (
    (Method.DR_NAIVE_DIFFERENCE, "naive", "naive_diff"),
    (Method.DR_REWEIGHTED, "reweighted", "reweighted_diff"),
)


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-replication estimates and analytic standard errors, each a
    (methods, replications) array with one row per MONTE_CARLO_METHODS
    entry, and success flags."""

    spec: DgpSpec
    estimates: np.ndarray
    ses: np.ndarray
    ok: np.ndarray
    failure_reasons: tuple

    @property
    def replications(self) -> int:
        return len(self.ok)

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~self.ok))

    def summary(self) -> dict:
        ok = self.ok
        degenerate = int(np.count_nonzero(ok)) < 2
        out = {
            "replications": self.replications,
            "n_failed": self.n_failed,
            "spec": self.spec.to_dict(),
        }
        for (_, key, _), values, ses in zip(MONTE_CARLO_METHODS,
                                            self.estimates, self.ses):
            out[key] = {
                "mean": float(np.mean(values[ok])),
                "sd": 0.0 if degenerate else float(np.std(values[ok], ddof=1)),
                "mean_analytic_se": float(np.mean(ses[ok])),
            }
        if degenerate:
            out["degenerate"] = True
        return out


def _run_one(spec: DgpSpec, replication: int, fit_options: dict):
    """((estimate, se) per MONTE_CARLO_METHODS entry, failure reason or
    "") of one replication."""
    sample = simulate_replicate(spec, replication)
    try:
        nuisances = fit_nuisances(sample, **fit_options)
        results = estimate_doubly_robust(sample, nuisances, tuple(
            method for method, _, _ in MONTE_CARLO_METHODS))
    except TridiffError as exc:
        return (((math.nan, math.nan),) * len(MONTE_CARLO_METHODS),
                f"{type(exc).__name__}: {exc}")
    return tuple((res.estimate, res.se) for res in results), ""


def run_monte_carlo(spec: DgpSpec, replications: int,
                    fit_options: Optional[dict] = None,
                    n_jobs: int = 1) -> MonteCarloResult:
    """Repeatedly simulate and estimate.

    Each replication draws its dataset from a stream derived from
    (spec.seed, replication), so results are identical however the work
    is scheduled; up to n_jobs worker processes run the replications
    (n_jobs=1: this process).
    Failed replications are recorded, not fatal, unless more than 1% of
    them fail.

    fit_options are fit_nuisances' keyword arguments for every
    replication, normalization included. Unless they say otherwise,
    propensities are left untrimmed: the simulated covariate has
    unbounded support, so at the usual 1% threshold almost every draw of
    a few thousand units contains one past the trim boundary and the
    whole study would abort.
    """
    if replications < 1:
        raise ValueError("replications must be ≥ 1")
    options = dict(fit_options or {})
    options.setdefault("trim_epsilon", 0.0)
    rows = map_ordered(functools.partial(_run_one, spec, fit_options=options),
                       range(replications), n_jobs)

    # (estimate or se, method, replication)
    estimates, ses = np.array([values for values, _ in rows]).T
    reasons = tuple(reason for _, reason in rows)
    ok = np.array([not reason for reason in reasons], dtype=bool)

    n_failed = int(np.count_nonzero(~ok))
    if n_failed > MAX_FAILURE_SHARE * replications:
        examples = [rs for rs in reasons if rs][:3]
        raise EstimationError(
            f"{n_failed} of {replications} replications failed "
            f"(limit {MAX_FAILURE_SHARE:.0%}); e.g. {'; '.join(examples)}")

    return MonteCarloResult(spec=spec, estimates=estimates, ses=ses, ok=ok,
                            failure_reasons=reasons)


def export_histogram(result: MonteCarloResult, path,
                     bins: int = HISTOGRAM_BINS) -> None:
    """Binned counts of each method's sampling distribution, one row per
    bin: estimator_label (the Method's value), bin_left, bin_right,
    count."""
    if result.replications == 0:
        raise ValueError("empty Monte Carlo result")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator_label", "bin_left", "bin_right", "count"])
        for (method, _, _), values in zip(MONTE_CARLO_METHODS,
                                          result.estimates):
            counts, edges = np.histogram(values[result.ok], bins=bins)
            for k in range(len(counts)):
                writer.writerow([method.value, repr(float(edges[k])),
                                 repr(float(edges[k + 1])), int(counts[k])])
