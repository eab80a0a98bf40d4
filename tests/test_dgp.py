"""Data generator, closed-form oracle, and Monte Carlo harness.

Oracle assertions are hand arithmetic; generator assertions compare
sample statistics against the generating parameters at 4-sigma bounds,
so failures mean broken code, not unlucky draws.
"""

import csv
import math

import numpy as np
import pytest

from tridiff.data import AssignmentMechanism, Cell, Group
from tridiff.dgp import (DgpSpec, EffectCase, closed_form_oracle,
                         export_histogram, run_monte_carlo,
                         simulate_replicate, simulate_sample)
from tridiff.estimators import estimate_doubly_robust
from tridiff.exceptions import EstimationError
from tridiff.nuisance import NuisanceMode, fit_linear, fit_nuisances


def spec(n=20000, seed=101, **kw):
    return DgpSpec(n=n, seed=seed, **kw)


# ---------------------------------------------------------------------------
# Oracle arithmetic
# ---------------------------------------------------------------------------

def test_oracle_constant_effects_defaults():
    o = closed_form_oracle(spec(effect_case=EffectCase.CONSTANT))
    assert o.att_a == 4.0
    assert o.att_b == 1.0
    assert o.did_a_on_a == 5.0   # 4 + mu_a
    assert o.did_b_on_b == 4.0   # 1 + mu_b
    assert o.did_b_on_a == 2.0   # 1 + mu_a
    assert o.naive_diff == 1.0
    assert o.reweighted_diff == 3.0
    assert o.target == 3.0       # att_a - att_b under shared treatment


def test_oracle_heterogeneous_effects_defaults():
    o = closed_form_oracle(spec())
    assert o.att_a == 4.0        # 4 mu_a
    assert o.att_b == 3.0        # mu_b
    assert o.did_a_on_a == 5.0   # 5 mu_a
    assert o.did_b_on_b == 6.0   # 2 mu_b
    assert o.did_b_on_a == 2.0   # 2 mu_a
    assert o.naive_diff == -1.0
    assert o.reweighted_diff == 3.0
    assert o.target == 3.0       # 3 mu_a


def test_oracle_heterogeneous_custom_means():
    o = closed_form_oracle(spec(mu_a=2.0, mu_b=-1.0))
    assert o.att_a == 8.0
    assert o.att_b == -1.0
    assert o.did_a_on_a == 10.0
    assert o.did_b_on_b == -2.0
    assert o.did_b_on_a == 4.0
    assert o.naive_diff == 12.0
    assert o.reweighted_diff == 6.0


def test_oracle_decomposition_identities():
    for case in EffectCase:
        for mu_a, mu_b in ((1.0, 3.0), (-2.5, 0.5), (4.0, 4.0)):
            o = closed_form_oracle(spec(mu_a=mu_a, mu_b=mu_b,
                                        effect_case=case))
            assert o.naive_diff == o.did_a_on_a - o.did_b_on_b
            assert o.reweighted_diff == o.did_a_on_a - o.did_b_on_a


def test_oracle_equal_means_align_both_contrasts():
    o = closed_form_oracle(spec(mu_a=1.0, mu_b=1.0))
    assert o.naive_diff == o.reweighted_diff == 3.0


def test_oracle_only_group_a_mechanism():
    o = closed_form_oracle(spec(mechanism=AssignmentMechanism.ONLY_GROUP_A))
    assert math.isnan(o.att_b)   # group B is never treated
    assert o.did_b_on_b == 3.0   # pure trend gap, mu_b
    assert o.did_b_on_a == 1.0   # trend gap under A's covariates, mu_a
    assert o.naive_diff == 2.0
    assert o.reweighted_diff == 4.0
    assert o.target == o.att_a == 4.0
    doc = o.to_dict()
    assert doc["att_b"] is None


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_simulation_deterministic():
    a = simulate_sample(spec(n=2000))
    b = simulate_sample(spec(n=2000))
    np.testing.assert_array_equal(a.y1, b.y1)
    np.testing.assert_array_equal(a.y2, b.y2)
    np.testing.assert_array_equal(a.x, b.x)
    c = simulate_sample(spec(n=2000, seed=102))
    assert not np.array_equal(a.y1, c.y1)


def test_replicate_streams_differ_from_master_and_each_other():
    s = spec(n=500)
    base = simulate_sample(s)
    r0 = simulate_replicate(s, 0)
    r1 = simulate_replicate(s, 1)
    assert not np.array_equal(base.x, r0.x)
    assert not np.array_equal(r0.x, r1.x)
    np.testing.assert_array_equal(simulate_replicate(s, 1).x, r1.x)


def test_group_covariate_means():
    ds = simulate_sample(spec())
    a = ds.x[ds.group_is_a, 0]
    b = ds.x[~ds.group_is_a, 0]
    assert a.mean() == pytest.approx(1.0, abs=4 / math.sqrt(len(a)))
    assert b.mean() == pytest.approx(3.0, abs=4 / math.sqrt(len(b)))
    assert a.std(ddof=1) == pytest.approx(1.0, abs=0.05)


def test_cell_shares_near_quarter():
    ds = simulate_sample(spec())
    bound = 4 * math.sqrt(0.25 * 0.75 / ds.n)
    for cell in (Cell.A_ELIGIBLE, Cell.B_NEVER):
        share = ds.cell_counts[cell] / ds.n
        assert share == pytest.approx(0.25, abs=bound)


def test_treatment_assignment_per_mechanism():
    both = simulate_sample(spec(n=2000))
    np.testing.assert_array_equal(both.treated(), both.eligible)
    only = simulate_sample(spec(n=2000,
                                mechanism=AssignmentMechanism.ONLY_GROUP_A))
    np.testing.assert_array_equal(only.treated(),
                                  only.eligible & only.group_is_a)


def cell_slope(ds, group_is_a_value, eligible_value):
    mask = (ds.group_is_a == group_is_a_value) & (ds.eligible == eligible_value)
    model = fit_linear(ds.x[mask], ds.delta_y()[mask])
    return model.coefficients[1], model.coef_se[1]


def test_within_cell_change_slopes():
    # change regressions per cell: never-eligible cells are pure noise
    # (slope 0), eligible cells carry the x trend plus the treatment term
    ds = simulate_sample(spec())
    for g in (True, False):
        slope, se = cell_slope(ds, g, False)
        assert slope == pytest.approx(0.0, abs=4 * se)
        assert abs(slope) < 0.05
    slope_a2, _ = cell_slope(ds, True, True)
    assert slope_a2 == pytest.approx(5.0, abs=0.1)   # 1 trend + 4 effect
    slope_b2, _ = cell_slope(ds, False, True)
    assert slope_b2 == pytest.approx(2.0, abs=0.1)   # 1 trend + 1 effect


def test_trend_break_is_group_invariant_when_untreated():
    # under the restricted mechanism group B is never treated, so its
    # eligible cell shows the bare trend slope of 1
    ds = simulate_sample(spec(mechanism=AssignmentMechanism.ONLY_GROUP_A))
    slope_b2, se = cell_slope(ds, False, True)
    assert slope_b2 == pytest.approx(1.0, abs=4 * se)


def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(n=39, seed=0)
    with pytest.raises(ValueError):
        DgpSpec(n=100, seed=0, mu_a=float("inf"))


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

def test_monte_carlo_shapes_and_determinism():
    s = spec(n=500, seed=7)
    run1 = run_monte_carlo(s, replications=6)
    run2 = run_monte_carlo(s, replications=6)
    assert len(run1.naive) == len(run1.reweighted) == 6
    assert run1.ok.all()
    np.testing.assert_array_equal(run1.naive, run2.naive)
    np.testing.assert_array_equal(run1.reweighted, run2.reweighted)
    summary = run1.summary()
    assert summary["replications"] == 6
    assert summary["n_failed"] == 0
    assert "mean" in summary["naive"] and "sd" in summary["reweighted"]


def test_monte_carlo_single_replication():
    s = spec(n=500, seed=3)
    one = run_monte_carlo(s, replications=1)
    again = run_monte_carlo(s, replications=1)
    assert one.naive[0] == again.naive[0]
    assert one.reweighted[0] == again.reweighted[0]


def test_monte_carlo_parallel_equals_serial():
    s = spec(n=400, seed=13)
    serial = run_monte_carlo(s, replications=8, n_jobs=1)
    parallel = run_monte_carlo(s, replications=8, n_jobs=2)
    np.testing.assert_array_equal(serial.naive, parallel.naive)
    np.testing.assert_array_equal(serial.reweighted, parallel.reweighted)
    np.testing.assert_array_equal(serial.se_naive, parallel.se_naive)


def test_monte_carlo_normalized_weights():
    # normalized weights need the (A, Eligible) outcome regression
    s = spec(n=500, seed=7)
    result = run_monte_carlo(s, replications=4,
                             fit_options={"normalize": True})
    assert result.ok.all()
    sample = simulate_replicate(s, 2)
    nuisances = fit_nuisances(sample, NuisanceMode.SCORE_SET,
                              trim_epsilon=0.0, normalize=True)
    rew, naive = estimate_doubly_robust(sample, nuisances)
    assert result.reweighted[2] == rew.estimate
    assert result.naive[2] == naive.estimate


def test_monte_carlo_refits_with_a_fits_options():
    # a fit's options carry its nuisance mode; each replication refits
    # with them as a bootstrap draw does
    s = spec(n=300, seed=9)
    sample = simulate_replicate(s, 1)
    nuisances = fit_nuisances(sample, NuisanceMode.SCORE_SET,
                              trim_epsilon=0.0)
    result = run_monte_carlo(s, replications=2,
                             fit_options=nuisances.fit_options)
    rew, naive = estimate_doubly_robust(sample, nuisances)
    assert (result.reweighted[1], result.naive[1]) == (rew.estimate,
                                                       naive.estimate)


def test_monte_carlo_aborts_when_all_replications_fail():
    # max_iter 0 exhausts the optimizer instantly in every replication
    with pytest.raises(EstimationError, match="replications failed"):
        run_monte_carlo(spec(n=500, seed=1), replications=5,
                        fit_options={"max_iter": 0})


def test_monte_carlo_rejects_zero_replications():
    with pytest.raises(ValueError):
        run_monte_carlo(spec(n=500, seed=1), replications=0)


# ---------------------------------------------------------------------------
# Histogram export
# ---------------------------------------------------------------------------

def read_histogram(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_export_histogram(tmp_path):
    result = run_monte_carlo(spec(n=500, seed=21), replications=10)
    path = tmp_path / "hist.csv"
    export_histogram(result, path, bins=8)
    rows = read_histogram(path)
    labels = {row["estimator_label"] for row in rows}
    assert labels == {"dr_naive_difference", "dr_reweighted"}
    for label in labels:
        sub = [row for row in rows if row["estimator_label"] == label]
        assert len(sub) == 8
        assert sum(int(row["count"]) for row in sub) == 10
        lefts = [float(row["bin_left"]) for row in sub]
        rights = [float(row["bin_right"]) for row in sub]
        assert all(l < r for l, r in zip(lefts, rights))
        assert lefts[1:] == rights[:-1]  # contiguous bins


def test_export_histogram_single_bin(tmp_path):
    result = run_monte_carlo(spec(n=500, seed=22), replications=4)
    path = tmp_path / "one.csv"
    export_histogram(result, path, bins=1)
    rows = read_histogram(path)
    assert len(rows) == 2  # one row per estimator
    assert all(int(row["count"]) == 4 for row in rows)


def test_export_histogram_single_value(tmp_path):
    result = run_monte_carlo(spec(n=500, seed=23), replications=1)
    path = tmp_path / "single.csv"
    export_histogram(result, path, bins=5)
    rows = read_histogram(path)
    for label in ("dr_naive_difference", "dr_reweighted"):
        sub = [row for row in rows if row["estimator_label"] == label]
        occupied = [row for row in sub if int(row["count"]) > 0]
        assert len(occupied) == 1
        assert int(occupied[0]["count"]) == 1
