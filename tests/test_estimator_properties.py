"""Property tests for the seven score estimators: relabelling the ids,
permuting the rows and an affine map of the covariate must not change
what they estimate. Permuting the rows must not change what the
interaction regressions estimate either.

Panels come from the simulation design, n from 200 to 900, with either
assignment mechanism, plain or normalized weights, and no trimming.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tridiff.data import AssignmentMechanism, Group, PanelDataset
from tridiff.dgp import DgpSpec, simulate_sample
from tridiff.estimators import (DR_METHODS, OR_METHODS, estimate_doubly_robust,
                                ols_did, ols_tdid)
from tridiff.nuisance import NuisanceMode, fit_nuisances

METHODS = DR_METHODS + OR_METHODS


@st.composite
def designs(draw):
    """(panel, normalize, seed for the panel's relabelling draws)."""
    spec = DgpSpec(n=draw(st.integers(200, 900)),
                   seed=draw(st.integers(0, 2 ** 32 - 1)),
                   mechanism=draw(st.sampled_from(list(AssignmentMechanism))))
    return (simulate_sample(spec), draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)))


def estimates(ds, normalize):
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.0,
                         normalize=normalize)
    return estimate_doubly_robust(ds, nuis, METHODS)


def regressions(ds):
    """Each interaction regression's result, with and without controls,
    and the units it fits."""
    for controls in (False, True):
        yield ols_tdid(ds, controls), np.ones(ds.n, dtype=bool)
        yield ols_did(ds, Group.A, controls), ds.group_is_a
        yield ols_did(ds, Group.B, controls), ~ds.group_is_a


def replaced(ds, **fields):
    """The panel with some of its columns replaced."""
    columns = dict(ids=ds.ids, y1=ds.y1, y2=ds.y2, group_is_a=ds.group_is_a,
                   eligible=ds.eligible, x=ds.x,
                   covariate_names=ds.covariate_names,
                   mechanism=ds.mechanism)
    return PanelDataset(**{**columns, **fields})


@settings(max_examples=40, deadline=None)
@given(designs())
def test_relabelling_ids_changes_no_bit(design):
    ds, normalize, seed = design
    labels = np.random.default_rng(seed).permutation(ds.n)
    relabelled = replaced(ds, ids=[f"unit-{k}" for k in labels])
    for got, want in zip(estimates(relabelled, normalize),
                         estimates(ds, normalize)):
        assert (got.estimate, got.se) == (want.estimate, want.se)
        if want.influence_values is None:
            assert got.influence_values is None
        else:
            assert np.array_equal(got.influence_values, want.influence_values)


@settings(max_examples=40, deadline=None)
@given(designs())
def test_row_order_changes_estimates_only_by_rounding(design):
    # the fits sum over units in another order, so only the last bits move;
    # the influence values move with their units
    ds, normalize, seed = design
    perm = np.random.default_rng(seed).permutation(ds.n)
    for got, want in zip(estimates(ds.subset(perm), normalize),
                         estimates(ds, normalize)):
        assert got.estimate == pytest.approx(want.estimate, rel=1e-12)
        if want.se is None:
            assert got.se is None and got.influence_values is None
            continue
        assert got.se == pytest.approx(want.se, rel=1e-12)
        eta = want.influence_values
        np.testing.assert_allclose(got.influence_values, eta[perm], rtol=0,
                                   atol=1e-10 * np.max(np.abs(eta)))
    # a regression's eta covers its own units only: compare each value
    # at its unit's place in the panel
    for (got, got_units), (want, want_units) in zip(
            regressions(ds.subset(perm)), regressions(ds)):
        assert got.estimate == pytest.approx(want.estimate, rel=1e-12)
        assert got.se == pytest.approx(want.se, rel=1e-12)
        eta = np.zeros(ds.n)
        eta[want_units] = want.influence_values
        np.testing.assert_allclose(got.influence_values, eta[perm][got_units],
                                   rtol=0, atol=1e-10 * np.max(np.abs(eta)))


@settings(max_examples=40, deadline=None)
@given(designs(),
       st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       st.sampled_from([1.0, -1.0]),
       st.floats(-3e4, 3e4))
def test_affine_covariate_map_leaves_estimates(design, scale, sign, shift):
    # the fits standardize the covariate, so x -> a*x + b moves estimates
    # and SEs by rounding alone: 1e-8 relative, plus a multiple of the
    # map's own rounding kappa, eps * max|x'| / sd(x'), which raw-scale
    # predictions carry into every score (about 5e-9 at a = 1e-3,
    # b = 3e4). Estimates are compared on the scale of the outcome
    # change, since a contrast near zero has no relative precision.
    ds, normalize, _ = design
    mapped_x = sign * scale * ds.x + shift
    kappa = np.finfo(float).eps * np.max(np.abs(mapped_x)) / np.std(mapped_x)
    tol = 1e-8 + 20 * kappa
    outcome_scale = float(np.std(ds.delta_y()))
    for got, want in zip(estimates(replaced(ds, x=mapped_x), normalize),
                         estimates(ds, normalize)):
        assert abs(got.estimate - want.estimate) <= tol * max(
            abs(want.estimate), outcome_scale)
        if want.se is not None:
            assert abs(got.se - want.se) <= tol * want.se
