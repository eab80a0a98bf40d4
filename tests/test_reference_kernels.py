"""Least squares on numpy's unpivoted QR, checked against LAPACK's
column-pivoted one (scipy.linalg.qr): the numerical rank, the dependent
columns and the coefficients. scipy is a test-only reference; the tests
that need it skip without it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tridiff.nuisance as nuisance_mod
from tridiff.exceptions import SingularDesignError
from tridiff.nuisance import fit_ols


def unit_norm_transpose(design):
    """The transposed unit-norm columns that fit_ols factorizes."""
    norms = np.sqrt(np.sum(design * design, axis=0))
    return design.T / np.where(norms > 0, norms, 1.0)[:, None]


def with_intercept(x):
    return np.hstack([np.ones((len(x), 1)), x])


def rank_test_designs():
    """The transposed designs that the rank tests of test_nuisance.py
    factorize, drawn from the same generators."""
    r = np.random.default_rng(2)
    x = r.normal(size=(30, 2))
    doubled = np.hstack([with_intercept(x), x[:, :1] * 2.0])
    r = np.random.default_rng(3)
    base = r.normal(size=200)
    ill = np.column_stack([np.ones(200), base,
                           base + 1e-4 * r.normal(size=200)])
    r = np.random.default_rng(5)
    const = np.column_stack([r.normal(size=40), np.full(40, 7.0)])
    r = np.random.default_rng(16)
    a = r.normal(size=200)
    copied = np.column_stack([a, r.normal(size=200), a])
    return {
        "ols-doubled-column": unit_norm_transpose(doubled),
        "ols-ill-conditioned": unit_norm_transpose(ill),
        "linear-constant-column": unit_norm_transpose(
            with_intercept(nuisance_mod._standardize(const)[0])),
        "logit-copied-column": nuisance_mod._transposed_design(
            nuisance_mod._standardize(copied)[0]),
        "outcome-flat-covariate": unit_norm_transpose(
            with_intercept(nuisance_mod._standardize(np.ones((400, 1)))[0])),
    }


RANK_DESIGNS = rank_test_designs()


def lapack_rank(at):
    """The numerical rank by LAPACK's pivoted QR of the design with
    transpose `at`: the |diag r| above the largest (the lead column
    norm) times max(n, p) * eps, fit_ols's threshold."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    r = scipy_linalg.qr(at.T, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    return int(np.count_nonzero(
        diag > diag[0] * max(at.shape) * np.finfo(float).eps))


def dependent_columns(at):
    """The columns that fit_ols's factorization finds dependent in the
    design with transpose `at`, at the threshold of its lead column norm."""
    lead = np.sqrt(np.sum(at * at, axis=1)).max()
    _, dependent = nuisance_mod._qr_rank(at.T[None], len(at), (at.shape[1],),
                                         (lead,))
    return tuple(f"c{j}" for j in np.flatnonzero(dependent[0]))


@pytest.mark.parametrize("name", sorted(RANK_DESIGNS))
def test_rank_matches_lapack(name):
    # the unpivoted factorization leaves as many columns dependent as
    # the numerical rank of LAPACK's pivoted one leaves out; which
    # column of a collinear set is named may differ, as the pivoting
    # orders the columns by norm
    at = RANK_DESIGNS[name]
    assert len(dependent_columns(at)) == len(at) - lapack_rank(at)


def lapack_ols(design, y):
    """fit_ols's coefficients by LAPACK: the pivoted QR of the unit-norm
    columns, Q'y and a triangular solve."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    norms = np.sqrt(np.sum(design * design, axis=0))
    safe = np.where(norms > 0, norms, 1.0)
    q, r, piv = scipy_linalg.qr(design / safe, mode="economic",
                                pivoting=True)
    coef = np.empty(design.shape[1])
    coef[piv] = scipy_linalg.solve_triangular(r, q.T @ y)
    return coef / safe


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 9), n=st.integers(18, 5000),
       seed=st.integers(0, 2 ** 32 - 1), intercept=st.booleans(),
       log_scales=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
def test_fit_ols_matches_lapack_on_full_rank_designs(p, n, seed, intercept,
                                                     log_scales):
    # n >= 2p keeps the drawn designs well conditioned, so that both
    # factorizations agree to a few units of rounding; compared on the
    # unit-norm scale that fit_ols solves on, where a column's scale
    # does not weight its coefficient's error
    r = np.random.default_rng(seed)
    n = max(n, 2 * p)
    design = r.normal(size=(n, p)) * 10.0 ** np.array(log_scales[:p])
    if intercept:
        design[:, 0] = 1.0
    y = design @ r.normal(size=p) + r.normal(size=n)

    coef = fit_ols(design, y).coefficients
    ref = lapack_ols(design, y)
    norms = np.sqrt(np.sum(design * design, axis=0))
    np.testing.assert_array_less(np.abs(coef - ref) * norms,
                                 1e-12 * np.max(np.abs(ref) * norms))


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 8), n=st.integers(10, 400),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
       log_scales=st.lists(st.floats(-6.0, 6.0), min_size=8, max_size=8))
def test_a_planted_combination_is_named(p, n, seed, data, log_scales):
    # column k an exact combination of earlier columns (up to the
    # rounding of its weighted sum), the columns at random scales: the
    # error names column k alone, which is the later column of every
    # collinear set the combination forms
    k = data.draw(st.integers(1, p - 1), label="k")
    r = np.random.default_rng(seed)
    n = max(n, 2 * p)
    design = r.normal(size=(n, p))
    weights = r.normal(size=k)
    weights[r.integers(0, k)] = 1.0  # at least one earlier column enters
    design[:, k] = design[:, :k] @ weights
    design *= 10.0 ** np.array(log_scales[:p])
    names = [f"c{j}" for j in range(p)]
    with pytest.raises(SingularDesignError) as err:
        fit_ols(design, r.normal(size=n), column_names=names)
    assert err.value.dependent_columns == (names[k],)
