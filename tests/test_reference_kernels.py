"""The numpy kernels that stand in for LAPACK and a special-function
library, checked against them: the column-pivoted QR against
scipy.linalg.qr and the normal quantile against scipy.special.ndtri and
the standard library's NormalDist. scipy is a test-only reference; the
tests that need it skip without it.
"""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tridiff.nuisance as nuisance_mod
from tridiff.dgp import _normal_quantile
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


def lapack_qr(at):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    _, r, piv = scipy_linalg.qr(at.T, mode="economic", pivoting=True)
    return r, piv


# unit-norm and standardized columns tie in norm up to rounding; here
# the first pivot's tie (the intercept against the first covariate) is
# broken the other way by the two norm computations' summation orders
TIED_FIRST_PIVOT = {"ols-ill-conditioned"}


@pytest.mark.parametrize("name", sorted(RANK_DESIGNS))
def test_pivoted_qr_matches_lapack_on_rank_test_designs(name):
    # the same pivots (bar a rounding-level tie), numerical rank and
    # dependent columns, and the same |diag r| relative to its lead up
    # to the rank; past it the entries are rounding noise of either
    # factorization
    at = RANK_DESIGNS[name]
    r, piv, qty = nuisance_mod._pivoted_qr(at)
    r_ref, piv_ref = lapack_qr(at)
    assert qty is None
    assert r.shape == r_ref.shape
    assert np.array_equal(piv, piv_ref) == (name not in TIED_FIRST_PIVOT)
    diag, diag_ref = np.abs(np.diag(r)), np.abs(np.diag(r_ref))
    tol = diag_ref[0] * max(at.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(diag_ref > tol))
    assert int(np.count_nonzero(diag > tol)) == rank
    np.testing.assert_allclose(diag[:rank], diag_ref[:rank], rtol=0.0,
                               atol=1e-13 * diag_ref[0])
    np.testing.assert_array_less(diag[rank:], tol)
    assert sorted(piv[rank:]) == sorted(piv_ref[rank:])


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
def test_pivoted_qr_matches_lapack_on_full_rank_designs(p, n, seed,
                                                        intercept,
                                                        log_scales):
    # n >= 2p keeps the drawn designs well conditioned, so that both
    # factorizations agree to a few units of rounding
    r = np.random.default_rng(seed)
    n = max(n, 2 * p)
    design = r.normal(size=(n, p)) * 10.0 ** np.array(log_scales[:p])
    if intercept:
        design[:, 0] = 1.0
    y = design @ r.normal(size=p) + r.normal(size=n)

    at = np.ascontiguousarray(design.T)
    r_qr, piv, qty = nuisance_mod._pivoted_qr(at, y)
    r_ref, piv_ref = lapack_qr(at)
    assert np.array_equal(piv, piv_ref)
    np.testing.assert_allclose(np.abs(np.diag(r_qr)),
                               np.abs(np.diag(r_ref)), rtol=1e-13)
    # the carried row is Q'y: the triangle solves to the coefficients
    coef_piv = nuisance_mod._back_substitute(r_qr, qty)
    lstsq = np.linalg.lstsq(design, y, rcond=None)[0]
    np.testing.assert_allclose(coef_piv, lstsq[piv], rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(lstsq)))

    # compared on the unit-norm scale that fit_ols solves on, where a
    # column's scale does not weight its coefficient's error
    coef = fit_ols(design, y).coefficients
    ref = lapack_ols(design, y)
    norms = np.sqrt(np.sum(design * design, axis=0))
    np.testing.assert_array_less(np.abs(coef - ref) * norms,
                                 1e-12 * np.max(np.abs(ref) * norms))


def quantile_points():
    """A uniform grid over the inverse-CDF input range the generator
    clips to, and log-spaced points deep in both tails."""
    eps = 2.0 ** -53
    grid = np.linspace(eps, 1.0 - eps, 2_000_000)
    lower = np.logspace(-300.0, -1.0, 2000)
    upper = 1.0 - np.logspace(-16.0, -1.0, 2000)
    return grid, np.concatenate([lower, upper])


def test_normal_quantile_matches_ndtri():
    special = pytest.importorskip("scipy.special")
    for points in quantile_points():
        np.testing.assert_allclose(_normal_quantile(points),
                                   special.ndtri(points), rtol=4e-15)


def test_normal_quantile_matches_the_standard_library():
    # NormalDist.inv_cdf is AS241 too, one value at a time
    grid, tails = quantile_points()
    points = np.concatenate([grid[::97], tails])
    want = [statistics.NormalDist().inv_cdf(float(p)) for p in points]
    np.testing.assert_allclose(_normal_quantile(points), want, rtol=2e-15)


def test_normal_quantile_keeps_the_input_shape():
    # the generator passes a (3, n) block; the tails are patched in place
    u = np.array([[1e-20, 0.3, 0.5], [0.97, 0.01, 1.0 - 1e-12]])
    z = _normal_quantile(u)
    assert z.shape == u.shape
    np.testing.assert_array_equal(z.ravel(), _normal_quantile(u.ravel()))
    assert z[0, 2] == 0.0
    assert np.all(np.sign(z) == np.sign(u - 0.5))
