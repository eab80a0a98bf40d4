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
from .estimators import estimate_doubly_robust
from .nuisance import fit_nuisances
from .parallel import map_ordered

BETA_A_CONSTANT = 4.0
BETA_B_CONSTANT = 1.0
BETA_A_SLOPE = 4.0
BETA_B_SLOPE = 1.0
MIN_SAMPLE_SIZE = 40
MAX_FAILURE_SHARE = 0.01
HISTOGRAM_BINS = 50

# inverse-CDF input clipped to the largest exactly representable open
# interval so the quantile never sees 0 or 1
_UNIFORM_FLOOR = 2.0 ** -53

# Wichura's algorithm AS241 (PPND16, Applied Statistics 37, 1988):
# rational approximations of the standard normal quantile with a
# relative error near 1e-16. Coefficients run from the highest power
# down; each denominator's constant term is 1. The central one holds
# for |p - 0.5| <= 0.425 in r = 0.180625 - (p - 0.5)^2; the tail ones
# in r = sqrt(-log(min(p, 1 - p))), shifted by 1.6 up to r = 5 and by
# 5 beyond.
_CENTRAL_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4,
                6.7265770927008700853e+4, 4.5921953931549871457e+4,
                1.3731693765509461125e+4, 1.9715909503065514427e+3,
                1.3314166789178437745e+2, 3.3871328727963666080e+0)
_CENTRAL_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4,
                3.9307895800092710610e+4, 2.1213794301586595867e+4,
                5.3941960214247511077e+3, 6.8718700749205790830e+2,
                4.2313330701600911252e+1, 1.0)
_NEAR_NUM = (7.74545014278341407640e-4, 2.27238449892691845833e-2,
             2.41780725177450611770e-1, 1.27045825245236838258e+0,
             3.64784832476320460504e+0, 5.76949722146069140550e+0,
             4.63033784615654529590e+0, 1.42343711074968357734e+0)
_NEAR_DEN = (1.05075007164441684324e-9, 5.47593808499534494600e-4,
             1.51986665636164571966e-2, 1.48103976427480074590e-1,
             6.89767334985100004550e-1, 1.67638483018380384940e+0,
             2.05319162663775882187e+0, 1.0)
_FAR_NUM = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
            1.24266094738807843860e-3, 2.65321895265761230930e-2,
            2.96560571828504891230e-1, 1.78482653991729133580e+0,
            5.46378491116411436990e+0, 6.65790464350110377720e+0)
_FAR_DEN = (2.04426310338993978564e-15, 1.42151175831644588870e-7,
            1.84631831751005468180e-5, 7.86869131145613259100e-4,
            1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


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


def _horner(coefs, r):
    """The polynomial with coefficients `coefs` (highest power first)
    at each r, by in-place Horner steps."""
    out = coefs[0] * r
    for c in coefs[1:-1]:
        out += c
        out *= r
    out += coefs[-1]
    return out


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1), by AS241. The
    central approximation is evaluated for every p and the tail ones
    then overwrite the values with |p - 0.5| > 0.425."""
    q = p - 0.5
    r = 0.180625 - q * q
    x = _horner(_CENTRAL_NUM, r)
    x *= q
    x /= _horner(_CENTRAL_DEN, r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        pt = np.take(p, tail)
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        near = r - 1.6
        xt = _horner(_NEAR_NUM, near) / _horner(_NEAR_DEN, near)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            rf = r[far] - 5.0
            xt[far] = _horner(_FAR_NUM, rf) / _horner(_FAR_DEN, rf)
        np.put(x, tail, np.copysign(xt, np.take(q, tail)))
    return x


def _standard_normal(uniforms: np.ndarray) -> np.ndarray:
    u = np.clip(uniforms, _UNIFORM_FLOOR, 1.0 - _UNIFORM_FLOOR)
    return _normal_quantile(u)


def _generate(spec: DgpSpec, seed_sequence: np.random.SeedSequence
              ) -> PanelDataset:
    rng = np.random.Generator(np.random.Philox(seed_sequence))
    u = rng.random((5, spec.n))

    group_is_a = u[0] < 0.5
    eligible = u[1] < 0.5
    mu = np.where(group_is_a, spec.mu_a, spec.mu_b)
    z = _standard_normal(u[2:])
    x = mu + z[0]
    e1 = z[1]
    e2 = z[2]

    # untreated outcomes; the trend break rides on eligibility, so it is
    # common to both groups whichever mechanism assigns treatment
    y1 = x + e1
    y2 = x + eligible * x + e2

    if spec.mechanism is AssignmentMechanism.ONLY_GROUP_A:
        treated = eligible & group_is_a
    else:
        treated = eligible
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

@dataclass(frozen=True)
class MonteCarloResult:
    """Per-replication estimates of the naive and reweighted contrasts,
    their analytic standard errors, and success flags."""

    spec: DgpSpec
    naive: np.ndarray
    reweighted: np.ndarray
    se_naive: np.ndarray
    se_reweighted: np.ndarray
    ok: np.ndarray
    failure_reasons: tuple

    @property
    def replications(self) -> int:
        return len(self.naive)

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
            "naive": {
                "mean": float(np.mean(self.naive[ok])),
                "sd": 0.0 if degenerate else float(np.std(self.naive[ok], ddof=1)),
                "mean_analytic_se": float(np.mean(self.se_naive[ok])),
            },
            "reweighted": {
                "mean": float(np.mean(self.reweighted[ok])),
                "sd": 0.0 if degenerate else float(np.std(self.reweighted[ok], ddof=1)),
                "mean_analytic_se": float(np.mean(self.se_reweighted[ok])),
            },
        }
        if degenerate:
            out["degenerate"] = True
        return out


def _run_one(spec: DgpSpec, replication: int, fit_options: dict):
    sample = simulate_replicate(spec, replication)
    try:
        nuisances = fit_nuisances(sample, **fit_options)
        rew, naive = estimate_doubly_robust(sample, nuisances)
    except TridiffError as exc:
        return (math.nan, math.nan, math.nan, math.nan, False,
                f"{type(exc).__name__}: {exc}")
    return (naive.estimate, naive.se, rew.estimate, rew.se, True, "")


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

    naive = np.array([r[0] for r in rows])
    se_naive = np.array([r[1] for r in rows])
    rew = np.array([r[2] for r in rows])
    se_rew = np.array([r[3] for r in rows])
    ok = np.array([r[4] for r in rows], dtype=bool)
    reasons = tuple(r[5] for r in rows)

    n_failed = int(np.count_nonzero(~ok))
    if n_failed > MAX_FAILURE_SHARE * replications:
        examples = [rs for rs in reasons if rs][:3]
        raise EstimationError(
            f"{n_failed} of {replications} replications failed "
            f"(limit {MAX_FAILURE_SHARE:.0%}); e.g. {'; '.join(examples)}")

    return MonteCarloResult(spec=spec, naive=naive, reweighted=rew,
                            se_naive=se_naive, se_reweighted=se_rew,
                            ok=ok, failure_reasons=reasons)


def export_histogram(result: MonteCarloResult, path,
                     bins: int = HISTOGRAM_BINS) -> None:
    """Binned counts of both estimators' sampling distributions, one row
    per bin: estimator_label, bin_left, bin_right, count."""
    if result.replications == 0:
        raise ValueError("empty Monte Carlo result")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator_label", "bin_left", "bin_right", "count"])
        for label, values in (("dr_naive_difference", result.naive[result.ok]),
                              ("dr_reweighted", result.reweighted[result.ok])):
            counts, edges = np.histogram(values, bins=bins)
            for k in range(len(counts)):
                writer.writerow([label, repr(float(edges[k])),
                                 repr(float(edges[k + 1])), int(counts[k])])
