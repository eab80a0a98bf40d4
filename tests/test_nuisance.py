"""Least-squares and multinomial-logit nuisance fitting.

Closed-form cross-checks come from the normal equations and from
saturated designs whose solutions are cell means; statistical checks
use the fitted standard errors as their own yardstick.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tridiff.nuisance as nuisance_mod
from tridiff.cli import _write_json
from tridiff.data import AssignmentMechanism, Cell, Group, PanelDataset
from tridiff.dgp import DgpSpec, simulate_replicate, simulate_sample
from tridiff.estimators import estimate_doubly_robust
from tridiff.exceptions import (ConvergenceError, FittingError,
                                InsufficientDataError, MissingNuisanceError,
                                SeparationError, SingularDesignError)
from tridiff.nuisance import (NuisanceMode, PropensityModel, fit_linear,
                              fit_logistic_multinomial, fit_nuisances,
                              fit_ols)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

def test_fit_ols_matches_normal_equations():
    r = rng(1)
    n, p = 50, 3
    design = np.hstack([np.ones((n, 1)), r.normal(size=(n, p - 1))])
    y = r.normal(size=n)
    model = fit_ols(design, y)

    # independent oracle: solve X'X b = X'y directly
    gram = design.T @ design
    beta = np.linalg.solve(gram, design.T @ y)
    np.testing.assert_allclose(model.coefficients, beta, atol=1e-10)

    resid = y - design @ beta
    sigma2 = resid @ resid / (n - p)
    assert model.residual_variance == pytest.approx(sigma2, rel=1e-10)
    np.testing.assert_allclose(model.gram_inverse, np.linalg.inv(gram),
                               rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(
        model.coef_se, np.sqrt(sigma2 * np.diag(np.linalg.inv(gram))),
        rtol=1e-8)


def test_fit_ols_exact_interpolation():
    # square full-rank system: residuals are exactly representable zeros
    design = np.array([[1.0, 0.0], [1.0, 2.0]])
    y = np.array([3.0, 7.0])
    model = fit_ols(design, y)
    np.testing.assert_allclose(model.coefficients, [3.0, 2.0], atol=1e-14)


def test_fit_ols_rank_deficient_names_columns():
    r = rng(2)
    x = r.normal(size=(30, 2))
    design = np.hstack([np.ones((30, 1)), x, (x[:, :1] * 2.0)])
    y = r.normal(size=30)
    with pytest.raises(SingularDesignError) as err:
        fit_ols(design, y, column_names=["intercept", "a", "b", "a_doubled"])
    # the later column of the collinear pair, as R's lm names it
    assert err.value.dependent_columns == ("a_doubled",)
    assert "dependent column(s): a_doubled" in str(err.value)


def test_fit_ols_underdetermined():
    with pytest.raises(InsufficientDataError):
        fit_ols(np.ones((2, 3)), np.zeros(2))


def test_non_finite_design_is_rejected():
    design = np.column_stack([np.ones(40), np.arange(40.0)])
    design[7, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        fit_ols(design, np.ones(40))
    x = rng(8).normal(size=(40, 1))
    x[3, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_logistic_multinomial(x, np.arange(40) % 4)


def test_fit_ols_ill_conditioned_but_full_rank():
    # two nearly, but not exactly, collinear columns must still fit
    r = rng(3)
    n = 200
    base = r.normal(size=n)
    design = np.column_stack([np.ones(n), base, base + 1e-4 * r.normal(size=n)])
    y = design @ np.array([1.0, 2.0, 3.0]) + 0.01 * r.normal(size=n)
    model = fit_ols(design, y)
    gram = design.T @ design
    beta = np.linalg.solve(gram, design.T @ y)
    np.testing.assert_allclose(model.coefficients, beta, rtol=1e-6)


def test_saturated_dummy_design_recovers_group_means():
    y = np.array([1.0, 3.0, 10.0, 14.0, 18.0])
    dummies = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]], dtype=float)
    model = fit_ols(dummies, y)
    np.testing.assert_allclose(model.coefficients, [2.0, 14.0], atol=1e-12)


def test_fit_linear_equals_raw_design_fit():
    r = rng(4)
    n = 120
    x = r.normal(loc=50.0, scale=7.0, size=(n, 3))  # far from the origin
    y = 2.0 + x @ np.array([0.5, -1.0, 0.25]) + r.normal(size=n)
    scaled = fit_linear(x, y)
    raw = fit_ols(np.hstack([np.ones((n, 1)), x]), y)
    np.testing.assert_allclose(scaled.coefficients, raw.coefficients,
                               rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(scaled.coef_se, raw.coef_se, rtol=1e-6)
    np.testing.assert_allclose(
        scaled.predict(x), np.hstack([np.ones((n, 1)), x]) @ raw.coefficients,
        rtol=1e-10)


def eager_gram_inverse(design):
    """(X'X)^{-1} computed eagerly by LAPACK, independently of any fit:
    scipy's pivoted QR of the unit-norm columns, r's triangular inverse,
    the scatter back from pivot order and the column-norm rescale."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    norms = np.sqrt(np.sum(design * design, axis=0))
    safe = np.where(norms > 0, norms, 1.0)
    p = design.shape[1]
    _, r, piv = scipy_linalg.qr(design / safe, mode="economic", pivoting=True)
    r_inv = scipy_linalg.solve_triangular(r, np.eye(p))
    gram_scaled = np.empty((p, p))
    gram_scaled[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return gram_scaled / np.outer(safe, safe)


def gram_inverse_case():
    r = rng(19)
    n = 90
    x = r.normal(loc=[5.0, -2.0], scale=[3.0, 0.5], size=(n, 2))
    y = 1.0 + x @ np.array([0.5, 2.0]) + r.normal(size=n)
    return x, y


def test_gram_inverse_built_on_first_read():
    # a fit stores its QR factor and builds no inverse until one is
    # read, and then once; fit_linear's is the fit of its standardized
    # design's, mapped to the raw scale by t, bit for bit
    x, y = gram_inverse_case()
    n = len(y)
    model = fit_ols(np.hstack([np.ones((n, 1)), x]), y)
    assert "gram_inverse" not in vars(model)
    assert model.gram_inverse is model.gram_inverse

    linear = fit_linear(x, y)
    assert "gram_inverse" not in vars(linear)
    # standardized into one row per covariate, as fit_linear lays out
    # its transposed design
    zt = np.empty((x.shape[1], n))
    _, center, scale = nuisance_mod._standardize(x, out=zt.T)
    t = nuisance_mod._raw_transform_matrix(center, scale)
    standardized = fit_ols(np.hstack([np.ones((n, 1)), zt.T]), y)
    assert np.array_equal(linear.gram_inverse,
                          t @ standardized.gram_inverse @ t.T)


def test_gram_inverse_agrees_with_lapack():
    # numpy's QR and triangular inverse against LAPACK's pivoted ones
    x, y = gram_inverse_case()
    design = np.hstack([np.ones((len(y), 1)), x])
    np.testing.assert_allclose(fit_ols(design, y).gram_inverse,
                               eager_gram_inverse(design), rtol=1e-12)


def test_fit_linear_without_covariates_is_the_mean():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    model = fit_linear(np.empty((4, 0)), y)
    assert model.coefficients[0] == pytest.approx(3.0)
    np.testing.assert_allclose(model.predict(np.empty((2, 0))), [3.0, 3.0])


def test_fit_linear_constant_column_is_reported_dependent():
    r = rng(5)
    x = np.column_stack([r.normal(size=40), np.full(40, 7.0)])
    with pytest.raises(SingularDesignError):
        fit_linear(x, r.normal(size=40), covariate_names=["a", "const"])


@st.composite
def covariate_matrices(draw):
    """(n, d) matrices, d = 0 to 4, of gaussian, shifted and scaled,
    binary or constant columns."""
    n, d = draw(st.integers(1, 300)), draw(st.integers(0, 4))
    r = rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["gaussian", "shifted", "binary", "constant"]),
            min_size=d, max_size=d)):
        if kind == "gaussian":
            columns.append(r.normal(size=n))
        elif kind == "shifted":
            columns.append(1e4 + 1e-3 * r.normal(size=n))
        elif kind == "binary":
            columns.append((r.random(n) < 0.3).astype(float))
        else:
            columns.append(np.full(n, draw(st.floats(-1e6, 1e6))))
    return np.column_stack(columns) if d else np.empty((n, 0))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(x=covariate_matrices())
def test_standardize_is_numpy_mean_and_std_bit_for_bit(x):
    # center and scale come from the reductions x.mean(axis=0) and
    # x.std(axis=0) make, without their wrappers; a numpy whose mean or
    # std reduce differently fails here, not in a downstream digit
    std = x.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    z, center, got_scale = nuisance_mod._standardize(x)
    assert same_bits(center, x.mean(axis=0))
    assert same_bits(got_scale, scale)
    assert same_bits(z, (x - x.mean(axis=0)) / scale)
    # written into a strided view, as fit_linear writes its design
    design = np.empty((len(x), x.shape[1] + 1))
    written = nuisance_mod._standardize(x, out=design[:, 1:])
    assert written[0].base is design
    assert same_bits(design[:, 1:].copy(), z)
    assert same_bits(written[1], center) and same_bits(written[2], scale)


def test_standardize_without_units_centers_at_zero():
    # x.mean(axis=0) of no rows is NaN, with a warning; no units keep
    # center 0 and scale 1
    z, center, scale = nuisance_mod._standardize(np.empty((0, 3)))
    assert z.shape == (0, 3)
    assert same_bits(center, np.zeros(3)) and same_bits(scale, np.ones(3))


def test_linear_model_row_permutation_invariance():
    r = rng(6)
    n = 80
    x = r.normal(size=(n, 2))
    y = 1.0 + x @ np.array([2.0, -1.0]) + r.normal(size=n)
    base = fit_linear(x, y)
    perm = r.permutation(n)
    shuffled = fit_linear(x[perm], y[perm])
    np.testing.assert_allclose(shuffled.coefficients, base.coefficients,
                               rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Multinomial logit
# ---------------------------------------------------------------------------

def cells_from_probs(r, n, probs):
    return r.choice(4, size=n, p=probs)


def test_intercept_only_logit_reproduces_shares():
    # the moment start's intercepts log(n_k / n_ref) are the maximum
    # likelihood estimate, so Newton stops before its first step
    r = rng(7)
    n = 4000
    labels = cells_from_probs(r, n, [0.4, 0.3, 0.2, 0.1])
    shares = np.bincount(labels, minlength=4) / n
    model = fit_logistic_multinomial(np.empty((n, 0)), labels)
    probs = model.predict(np.empty((1, 0)))[0]
    np.testing.assert_allclose(probs, shares, rtol=0, atol=1e-15)
    assert model.n_iter == 0


def test_logit_probabilities_sum_to_one_and_match_pointwise():
    r = rng(8)
    n = 600
    x = r.normal(size=(n, 2))
    true_b = np.array([[0.3, 1.0, -0.5],
                       [-0.2, -1.0, 0.25],
                       [0.1, 0.5, 0.5]])
    logits = np.hstack([np.hstack([np.ones((n, 1)), x]) @ true_b.T,
                        np.zeros((n, 1))])
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    labels = np.array([r.choice(4, p=row) for row in p])
    model = fit_logistic_multinomial(x, labels)
    probs = model.predict(x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    single = model.predict(x[5])[0]
    np.testing.assert_allclose(single, probs[5], atol=1e-12)


def test_logit_recovers_true_coefficients_within_3se():
    r = rng(9)
    n = 20000
    x = r.normal(size=(n, 1))
    true_b = np.array([[0.5, -1.0], [0.0, 0.75], [-0.25, 0.5]])
    logits = np.hstack([np.hstack([np.ones((n, 1)), x]) @ true_b.T,
                        np.zeros((n, 1))])
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = r.random(n)
    labels = (u[:, None] > p.cumsum(axis=1)).sum(axis=1)
    model = fit_logistic_multinomial(x, labels)
    se = model.coef_se()
    err = np.abs(model.coefficients - true_b)
    assert np.all(err <= 3.0 * se), (err / se)


def test_logit_loglik_trace_monotone():
    r = rng(10)
    n = 800
    x = r.normal(size=(n, 2))
    labels = cells_from_probs(r, n, [0.25, 0.25, 0.25, 0.25])
    model = fit_logistic_multinomial(x, labels)
    trace = np.array(model.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9)


def test_logit_separation_detected():
    # labels are a deterministic step function of x; the razor-thin
    # margins push the needed coefficients past the divergence guard
    gap = 0.01
    x = np.concatenate([np.linspace(0, 1, 50),
                        np.linspace(1 + gap, 2 + gap, 50),
                        np.linspace(2 + 2 * gap, 3 + 2 * gap, 50),
                        np.linspace(3 + 3 * gap, 4 + 3 * gap, 50)])
    labels = np.repeat([0, 1, 2, 3], 50)
    with pytest.raises(SeparationError, match="standardized coefficient"):
        fit_logistic_multinomial(x.reshape(-1, 1), labels)


def test_complete_separation_detected():
    # the covariate is the cell label: Newton converges in 26 iterations
    # to a log-likelihood of -3.6e-8, every own-cell probability above
    # 1 - 2.5e-11, before the coefficient norm guard fires
    labels = rng(0).integers(0, 4, 2000)
    with pytest.raises(SeparationError, match="separate the cells"):
        fit_logistic_multinomial(labels.reshape(-1, 1).astype(float), labels)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(200, 2000), d=st.integers(1, 3),
       means=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_overlapping_cells_are_not_separated(n, d, means, seed):
    # Gaussian covariates whose cell means lie within 2 sd of each other
    r = rng(seed)
    labels = r.integers(0, 4, n)
    x = r.normal(size=(n, d)) + np.array(means)[labels, None]
    model = fit_logistic_multinomial(x, labels)
    assert model.loglik_trace[-1] < -nuisance_mod.SEPARATION_LOGLIK


def test_separation_guard_ignores_covariate_location():
    # shifting x by 2e4 leaves the standardized fit as it was, though its
    # raw intercepts grow past the guard's 1e4 norm; the guard keys to
    # the standardized coefficients, so the shifted panel fits and gives
    # the same estimate
    ds = simulate_sample(DgpSpec(n=2000, seed=1, mu_b=1.5))
    shifted = PanelDataset(ids=ds.ids, y1=ds.y1, y2=ds.y2,
                           group_is_a=ds.group_is_a, eligible=ds.eligible,
                           x=ds.x + 2e4, covariate_names=ds.covariate_names,
                           mechanism=ds.mechanism)
    fits = [fit_nuisances(d, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
            for d in (ds, shifted)]
    assert np.linalg.norm(fits[1].propensity.coefficients) > 1e4
    base, moved = (estimate_doubly_robust(d, fit)[0]
                   for d, fit in zip((ds, shifted), fits))
    assert moved.estimate == pytest.approx(base.estimate, rel=1e-10)


def test_logit_max_iter_exhaustion_raises_with_trace(monkeypatch):
    r = rng(11)
    n = 500
    x = r.normal(size=(n, 1))
    labels = cells_from_probs(r, n, [0.3, 0.3, 0.2, 0.2])
    monkeypatch.setattr(nuisance_mod, "DEFAULT_MAX_ITER", 1)
    monkeypatch.setattr(nuisance_mod, "DEFAULT_LL_TOL", 1e-300)
    with pytest.raises(ConvergenceError) as err:
        fit_logistic_multinomial(x, labels)
    assert len(err.value.trace) >= 1


def test_logit_insufficient_cell_count():
    x = rng(12).normal(size=(40, 5))
    labels = np.array([0] * 37 + [1, 2, 3])  # three cells below d+1 = 6
    with pytest.raises(InsufficientDataError, match=r"\(A, Never\)"):
        fit_logistic_multinomial(x, labels)


@pytest.mark.parametrize("fitter", [fit_logistic_multinomial])
def test_logit_rank_deficient_design_names_column(fitter):
    r = rng(16)
    a = r.normal(size=200)
    x = np.column_stack([a, r.normal(size=200), a])
    labels = cells_from_probs(r, 200, [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(SingularDesignError, match="logit design") as err:
        fitter(x, labels, covariate_names=["a", "b", "a_copy"])
    assert err.value.dependent_columns == ("a_copy",)
    assert "dependent column(s): a_copy" in str(err.value)


def test_logit_standardization_is_invisible():
    # shifting and scaling a covariate must not change fitted probabilities
    r = rng(13)
    n = 2500
    x = r.normal(size=(n, 1))
    labels = cells_from_probs(r, n, [0.3, 0.25, 0.25, 0.2])
    base = fit_logistic_multinomial(x, labels)
    moved = fit_logistic_multinomial(1000.0 + 50.0 * x, labels)
    np.testing.assert_allclose(moved.predict(1000.0 + 50.0 * x),
                               base.predict(x), atol=1e-7)


def test_information_inverse_built_once_per_fit(monkeypatch):
    # the stored covariance needs one inverse at convergence; Newton
    # solves its steps without inverting, on this sample or another
    r = rng(16)
    x = r.normal(size=(500, 1))
    labels = cells_from_probs(r, 500, [0.3, 0.25, 0.25, 0.2])
    calls = []
    inverse = nuisance_mod._observed_info_inverse

    def counted_inverse(*args):
        calls.append(args)
        return inverse(*args)

    monkeypatch.setattr(nuisance_mod, "_observed_info_inverse",
                        counted_inverse)
    first = fit_logistic_multinomial(x, labels)
    assert first.coef_cov is not None
    assert len(calls) == 1
    again = fit_logistic_multinomial(x[::-1], labels[::-1])
    assert again.coef_cov is not None
    assert len(calls) == 2


def coef_cov_case():
    r = rng(17)
    x = r.normal(size=(600, 2)) * [1.0, 3.0] + [2.0, -1.0]
    labels = cells_from_probs(r, 600, [0.3, 0.25, 0.25, 0.2])
    return x, labels


def converged_information(x, labels):
    """The observed information at a fit's final Newton probabilities,
    Newton started where a fit starts it, and the map of one cell's
    coefficients to the raw scale."""
    zx, center, scale = nuisance_mod._standardize(x)
    zt = nuisance_mod._transposed_design(zx)
    _, probs, _, _ = nuisance_mod._newton_multinomial(
        zt, labels, nuisance_mod.DEFAULT_MAX_ITER,
        nuisance_mod.DEFAULT_LL_TOL, ("c",) * 3)
    return (nuisance_mod._softmax_information(
                zt, probs, nuisance_mod._design_products(zt)),
            nuisance_mod._raw_transform_matrix(center, scale))


def test_coef_cov_built_on_first_read(monkeypatch):
    # a fit builds no information inverse until coef_cov is read, and
    # then the one it built at convergence: the inverse observed
    # information at the final Newton probabilities, mapped to the raw
    # scale
    x, labels = coef_cov_case()
    calls = []
    inverse = nuisance_mod._observed_info_inverse
    monkeypatch.setattr(nuisance_mod, "_observed_info_inverse",
                        lambda *a: calls.append(1) or inverse(*a))
    model = fit_logistic_multinomial(x, labels)
    assert calls == []

    info, t = converged_information(x, labels)
    t_full = np.kron(np.eye(3), t)
    want = t_full @ np.linalg.inv(info) @ t_full.T
    assert np.array_equal(model.coef_cov, want)
    assert model.coef_cov is model.coef_cov
    assert calls == [1]


def test_coef_cov_agrees_with_lapack():
    # numpy's inverse and the hand-built block diagonal against scipy's
    scipy_linalg = pytest.importorskip("scipy.linalg")
    x, labels = coef_cov_case()
    info, t = converged_information(x, labels)
    t_full = scipy_linalg.block_diag(t, t, t)
    want = t_full @ scipy_linalg.inv(info) @ t_full.T
    np.testing.assert_allclose(fit_logistic_multinomial(x, labels).coef_cov,
                               want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Softmax kernels: bit for bit the row-reduction form
# ---------------------------------------------------------------------------

def reference_softmax(z, labels_onehot, beta):
    """The (n, 4) logit matrix reduced with max and sum along axis 1,
    the form the column-wise kernels must reproduce bit for bit.
    Returns (loglik, probs)."""
    eta = z @ beta.T
    full = np.hstack([eta, np.zeros((len(z), 1))])
    shift = full.max(axis=1, keepdims=True)
    ex = np.exp(full - shift)
    denom = ex.sum(axis=1, keepdims=True)
    probs = ex / denom
    ll = float(np.sum(full[labels_onehot]
                      - (shift[:, 0] + np.log(denom[:, 0]))))
    return ll, probs


# logits from the whole range exp() handles after the shift, with
# repeated values so that rows hold ties, with the zero reference logit
# too; one to a dozen rows
LOGIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 700.0, -700.0]),
                  st.floats(-700.0, 700.0))
LOGIT_ROWS = st.lists(st.tuples(LOGIT, LOGIT, LOGIT, st.integers(0, 3)),
                      min_size=1, max_size=12)


@given(rows=LOGIT_ROWS, scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_softmax_loglik_matches_row_reductions(rows, scale):
    # z @ I gives the drawn logits exactly; z / scale against scale * I
    # gives logits that rounding in the product moves
    eta = np.array([row[:3] for row in rows], dtype=float)
    labels = np.array([row[3] for row in rows])
    n = len(rows)
    onehot = np.zeros((n, 4), dtype=bool)
    onehot[np.arange(n), labels] = True
    own_logit = labels * n + np.arange(n)
    for z, beta in ((eta, np.eye(3)), (eta / scale, scale * np.eye(3))):
        # the kernels take the transposed design and return cell-major
        # (4, n) arrays; the flat take gathers what the boolean mask on
        # the row-major transpose does, in its order
        zt = np.ascontiguousarray(z.T)
        logits = nuisance_mod._softmax(zt, beta)[0]
        assert np.array_equal(logits.ravel().take(own_logit),
                              logits.T[onehot])
        ll, probs = nuisance_mod._softmax_loglik(zt, own_logit, beta)
        want_ll, want_probs = reference_softmax(z, onehot, beta)
        assert ll == want_ll or (np.isnan(ll) and np.isnan(want_ll))
        assert np.array_equal(probs.T, want_probs)


@given(rows=LOGIT_ROWS)
def test_propensity_predict_matches_row_reductions(rows):
    # coefficients that read cell k's logit off covariate k
    x = np.array([row[:3] for row in rows], dtype=float)
    coef = np.hstack([np.zeros((3, 1)), np.eye(3)])
    model = PropensityModel(coefficients=coef, covariate_names=("a", "b", "c"),
                            n_obs=len(x), n_iter=0, loglik_trace=())
    onehot = np.zeros((len(x), 4), dtype=bool)
    onehot[:, 3] = True
    z = np.hstack([np.ones((len(x), 1)), x])
    assert np.array_equal(model.predict(x),
                          reference_softmax(z, onehot, coef)[1])


@given(n=st.integers(5, 300), d=st.integers(0, 3),
       scale=st.floats(1e-3, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_cell_major_information_and_gradient_are_per_unit_sums(n, d, scale,
                                                               seed):
    # sum_i (diag pi_i - pi_i pi_i') kron z_i z_i' and
    # sum_i (y_i - pi_i) kron z_i over the non-reference cells, one unit
    # at a time; each entry may differ by rounding of at most 1e-12 of
    # the sum of the magnitudes of the products it adds up
    r = rng(seed)
    zt = nuisance_mod._transposed_design(r.normal(size=(n, d)))
    beta = scale * r.normal(size=(3, d + 1))
    labels = r.integers(0, 4, size=n)
    probs = nuisance_mod._softmax(zt, beta)[1]
    onehot = np.arange(3)[:, None] == labels
    info = np.zeros((3 * (d + 1), 3 * (d + 1)))
    info_abs = np.zeros_like(info)
    grad = np.zeros(3 * (d + 1))
    grad_abs = np.zeros_like(grad)
    for i in range(n):
        pi, zi = probs[:3, i], zt[:, i]
        zz = np.outer(zi, zi)
        info += np.kron(np.diag(pi) - np.outer(pi, pi), zz)
        info_abs += np.kron(np.diag(pi) + np.outer(pi, pi), np.abs(zz))
        grad += np.kron(onehot[:, i] - pi, zi)
        grad_abs += np.kron(onehot[:, i] + pi, np.abs(zi))
    got_info = nuisance_mod._softmax_information(
        zt, probs, nuisance_mod._design_products(zt))
    got_grad = nuisance_mod._softmax_gradient(zt, onehot, probs)
    assert np.all(np.abs(got_info - info) <= 1e-12 * info_abs)
    assert np.all(np.abs(got_grad - grad) <= 1e-12 * grad_abs)


# ---------------------------------------------------------------------------
# Moment-matched start
# ---------------------------------------------------------------------------

def zero_start_fit(x, labels):
    """fit_logistic_multinomial with Newton started at zero, as a fit
    whose moment start is unusable is: the reference for the moment
    start."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nuisance_mod, "_moment_start", lambda *args: None)
        return fit_logistic_multinomial(x, labels)


def logit_sample(seed, n=3000):
    """Two covariates far from zero mean and unit scale, cells drawn
    from a known softmax model; returns (generator, x, labels)."""
    r = rng(seed)
    x = r.normal(size=(n, 2)) * [1.0, 4.0] + [2.0, -5.0]
    true_b = np.array([[0.4, 0.8, -0.1], [-0.3, -0.6, 0.05],
                       [0.2, 0.3, 0.1]])
    logits = np.hstack([np.hstack([np.ones((n, 1)), x]) @ true_b.T,
                        np.zeros((n, 1))])
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    labels = (r.random(n)[:, None] > p.cumsum(axis=1)).sum(axis=1)
    return r, x, labels


def draw_covariate(r, kind, n):
    if kind == "gaussian":
        return r.normal(size=n)
    if kind == "lognormal":
        return r.lognormal(size=n)
    if kind == "binary":
        return (r.random(n) < 0.5).astype(float)
    return r.standard_t(3, size=n)


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["gaussian", "lognormal", "binary",
                                       "t"]), max_size=3),
       odds=st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_moment_start_reaches_the_zero_start_optimum(kinds, odds, seed):
    # cells drawn from a softmax model of the standardized covariates
    # with unbalanced intercepts, so the smallest cell may hold 3%
    r = rng(seed)
    n, d = 1000, len(kinds)
    x = np.column_stack([draw_covariate(r, kind, n) for kind in kinds]
                        + [np.empty((n, 0))])
    zx = nuisance_mod._standardize(x)[0]
    logits = np.log(odds) + zx @ (0.4 * r.normal(size=(d, 4)))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    labels = (r.random(n)[:, None] > p.cumsum(axis=1)[:, :3]).sum(axis=1)
    # a binary covariate missing a level in some cell separates it
    for j, kind in enumerate(kinds):
        if kind == "binary":
            assume(all(0 < x[labels == k, j].sum() < np.sum(labels == k)
                       for k in range(4)))
    default = fit_logistic_multinomial(x, labels)
    zero = zero_start_fit(x, labels)
    np.testing.assert_allclose(default.coefficients, zero.coefficients,
                               rtol=0, atol=1e-8)
    assert default.loglik_trace[0] >= zero.loglik_trace[0]


@pytest.mark.parametrize("mu_b", [1.5, 3.0])
def test_moment_start_takes_no_more_iterations_than_zero(mu_b):
    # Gaussian covariates within cells: the moment start is used (its
    # likelihood beats zero's) and saves iterations
    spec = DgpSpec(n=2000, seed=1, mu_b=mu_b)
    default_iters = zero_iters = 0
    for replication in range(5):
        ds = simulate_replicate(spec, replication)
        default = fit_logistic_multinomial(ds.x, ds.cell_codes())
        zero = zero_start_fit(ds.x, ds.cell_codes())
        assert default.n_iter <= zero.n_iter
        assert default.loglik_trace[0] > zero.loglik_trace[0]
        default_iters += default.n_iter
        zero_iters += zero.n_iter
    assert default_iters < zero_iters


def test_moment_start_below_zero_likelihood_falls_back(monkeypatch):
    # a start whose log-likelihood is below zero's -n log 4 is dropped:
    # the fit is the zero-start fit, bit for bit
    _, x, labels = logit_sample(35, n=500)
    monkeypatch.setattr(nuisance_mod, "_moment_start",
                        lambda *args: np.full((3, 3), 20.0))
    default = fit_logistic_multinomial(x, labels)
    zero = zero_start_fit(x, labels)
    assert default.loglik_trace == zero.loglik_trace
    assert default.loglik_trace[0] == pytest.approx(-500 * np.log(4))
    assert np.array_equal(default.coefficients, zero.coefficients)


def fit_outcome(fit, x, labels):
    """What fit(x, labels) returns, or the type and text of the fitting
    error it raises; any other exception propagates, so that two fits
    failing alike on a broken call do not compare equal."""
    try:
        model = fit(x, labels)
    except FittingError as exc:
        return type(exc), str(exc)
    return model.coefficients.tolist(), model.n_iter, model.loglik_trace


@pytest.mark.parametrize("levels", [[0.0, 1.0, 2.0, 3.0],
                                    [1.0, 1.0, 0.0, 0.0],
                                    [0.3, 0.1, 0.7, 0.1]])
def test_singular_within_cell_covariance_falls_back_to_zero(levels):
    # a covariate constant within every cell leaves no pooled within-cell
    # variance: the moment start is unusable and Newton starts at zero
    r = rng(34)
    labels = r.integers(0, 4, size=400)
    x = np.column_stack([r.normal(size=400), np.array(levels)[labels]])
    zt = nuisance_mod._transposed_design(nuisance_mod._standardize(x)[0])
    cells = (np.arange(4)[:, None] == labels).astype(float)
    assert nuisance_mod._moment_start(zt, cells, cells.sum(axis=1)) is None
    assert (fit_outcome(fit_logistic_multinomial, x, labels)
            == fit_outcome(zero_start_fit, x, labels))


# ---------------------------------------------------------------------------
# Nuisance assembly
# ---------------------------------------------------------------------------

def toy_dataset(n=400, seed=21, d=1):
    r = rng(seed)
    group = r.random(n) < 0.5
    elig = r.random(n) < 0.5
    x = r.normal(size=(n, d)) + np.where(group, 0.5, -0.5)[:, None]
    y1 = x[:, 0] + r.normal(size=n)
    y2 = y1 + x[:, 0] * elig + r.normal(size=n)
    return PanelDataset(ids=np.arange(n), y1=y1, y2=y2, group_is_a=group,
                        eligible=elig, x=x,
                        covariate_names=tuple(f"x{j}" for j in range(d)),
                        mechanism=AssignmentMechanism.BOTH_GROUPS)


@st.composite
def cell_panels(draw):
    """(panel, flawed cells): units in the four cells at random sizes of
    p = d+1 to 300, d = 0 to 3 covariates at scales 1e-3 to 1e3 and
    offsets up to 1e4, in shuffled order. Each flawed cell has fewer
    units than coefficients or, with covariates, one covariate constant
    within it, collinear with the intercept."""
    d = draw(st.integers(0, 3), label="d")
    sizes = [draw(st.integers(d + 1, 300)) for _ in Cell]
    flaws = draw(st.dictionaries(
        st.sampled_from(nuisance_mod.SCORE_SET_CELLS),
        st.sampled_from(["undersized", "collinear"] if d else
                        ["undersized"]), max_size=2), label="flaws")
    for cell, flaw in flaws.items():
        if flaw == "undersized":
            sizes[cell] = draw(st.integers(0, d))
    r = rng(draw(st.integers(0, 2 ** 32 - 1)))
    codes = np.repeat(np.arange(len(Cell)), sizes)
    r.shuffle(codes)
    scale = 10.0 ** r.uniform(-3.0, 3.0, d)
    offset = r.uniform(-1e4, 1e4, d)
    x = r.normal(size=(len(codes), d)) * scale + offset
    for cell, flaw in flaws.items():
        if flaw == "collinear":
            x[codes == cell, d - 1] = offset[d - 1]
    y2 = ((x - offset) @ (r.normal(size=d) / scale)
          + r.normal(size=len(codes)) * 10.0 ** r.uniform(-3.0, 3.0))
    panel = PanelDataset(np.arange(len(codes)), np.zeros(len(codes)), y2,
                         codes < 2, codes % 2 == 0, x,
                         tuple(f"x{j}" for j in range(d)),
                         AssignmentMechanism.BOTH_GROUPS)
    return panel, set(flaws)


@settings(max_examples=80, deadline=None)
@given(case=cell_panels())
def test_stacked_cell_fits_are_each_cells_own(case):
    # every cell's regression from the one stacked pass is its own least
    # squares fit: its fitted values, and so its residual norm, lie within
    # the backward-error bound 10 eps kappa(A) |y| of LAPACK's SVD
    # solution on the cell's design A alone (at most 1.3 eps kappa |y| in
    # 1,500 draws); and the first cell in SCORE_SET_CELLS order that
    # cannot be fitted raises what fitting it alone raises, its label in
    # front
    panel, flawed = case
    delta = panel.delta_y()
    try:
        fit = fit_nuisances(panel, NuisanceMode.OUTCOME_ONLY)
    except FittingError as err:
        for cell in nuisance_mod.SCORE_SET_CELLS:
            rows = panel.cell_masks[cell]
            try:
                fit_linear(panel.x[rows], delta[rows], panel.covariate_names)
            except FittingError as alone:
                assert type(err) is type(alone)
                assert str(err) == f"{cell.label}: {alone}"
                assert getattr(err, "dependent_columns", ()) == getattr(
                    alone, "dependent_columns", ())
                return
        pytest.fail(f"no cell fails alone, but the stack raised {err!r}")
    assert not flawed
    for cell, model in fit.outcome_models.items():
        rows = panel.cell_masks[cell]
        design = np.column_stack([np.ones(np.count_nonzero(rows)),
                                  panel.x[rows]])
        reference = np.linalg.lstsq(design, delta[rows], rcond=None)[0]
        bound = (10 * np.finfo(float).eps * np.linalg.cond(design)
                 * np.linalg.norm(delta[rows]))
        assert np.linalg.norm(
            design @ (model.coefficients - reference)) <= bound
        # so does its residual norm, which the fitted values bound
        dof = len(design) - len(reference)
        if dof:
            residual = np.linalg.norm(delta[rows] - design @ reference)
            assert abs(math.sqrt(model.residual_variance * dof)
                       - residual) <= 2 * bound
        assert model.n_obs == len(design) and model.fitted_on == cell.label


def test_fit_nuisances_score_set():
    ds = toy_dataset()
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET)
    assert nuis.propensity is not None
    fitted_cells = set(nuis.outcome_models)
    assert fitted_cells == {Cell.A_NEVER, Cell.B_ELIGIBLE, Cell.B_NEVER}
    probs = nuis.propensities(ds.x)
    assert probs.shape == (ds.n, 4)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
    # fitted change regressions predict on the raw covariate scale
    m = nuis.outcome_models[Cell.B_NEVER].predict(
        nuis.outcome_features(ds.x[:5]))
    assert m.shape == (5,)


def test_fit_nuisances_score_set_with_a2():
    ds = toy_dataset()
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, normalize=True)
    assert nuis.has_outcome(Cell.A_ELIGIBLE)
    assert len(nuis.outcome_models) == 4


def test_normalized_fit_needs_a2_only_with_the_logit():
    # normalized weights revive m(A, Eligible) in the DR scores; the
    # outcome-regression scores never weight by the propensity
    ds = toy_dataset()
    assert fit_nuisances(ds, NuisanceMode.SCORE_SET,
                         normalize=True).has_outcome(Cell.A_ELIGIBLE)
    outcome_only = fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY,
                                 normalize=True)
    assert not outcome_only.has_outcome(Cell.A_ELIGIBLE)
    assert outcome_only.fit_options["normalize"] is True


def test_fit_nuisances_outcome_only():
    ds = toy_dataset()
    nuis = fit_nuisances(ds, NuisanceMode.OUTCOME_ONLY)
    assert nuis.propensity is None
    with pytest.raises(MissingNuisanceError):
        nuis.propensities(ds.x)
    # the score set's change regressions, bit for bit
    score_set = fit_nuisances(ds, NuisanceMode.SCORE_SET)
    assert set(nuis.outcome_models) == set(score_set.outcome_models)
    for cell, model in nuis.outcome_models.items():
        np.testing.assert_array_equal(
            model.coefficients, score_set.outcome_models[cell].coefficients)
    doc = nuis.to_dict()
    assert doc["mode"] == "outcome-only" and doc["propensity"] is None


def test_fit_nuisances_records_fit_options():
    ds = toy_dataset()
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=0.05)
    assert nuis.fit_options["trim_epsilon"] == 0.05
    assert nuis.fit_options["mode"] is NuisanceMode.SCORE_SET
    refit = fit_nuisances(ds, **nuis.fit_options)
    np.testing.assert_array_equal(refit.propensity.coefficients,
                                  nuis.propensity.coefficients)


@pytest.mark.parametrize("trim", [math.nan, -1.0, -1e-300, 1.0, 1.5,
                                  math.inf, -math.inf])
def test_fit_nuisances_rejects_a_trim_threshold_outside_0_1(trim):
    ds = toy_dataset()
    with pytest.raises(ValueError, match=r"trim_epsilon must be in \[0, 1\)"):
        fit_nuisances(ds, NuisanceMode.SCORE_SET, trim_epsilon=trim)
    # 0 turns trimming off; anything below 1 is a threshold
    for trim in (0.0, 0.5):
        assert fit_nuisances(ds, trim_epsilon=trim).fit_options[
            "trim_epsilon"] == trim


def test_fit_nuisances_covariate_subsets():
    ds = toy_dataset(d=2)
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET,
                         propensity_covariates=["x0"],
                         outcome_covariates=["x0", "x1"])
    assert nuis.propensity.covariate_names == ("x0",)
    model = nuis.outcome_models[Cell.B_NEVER]
    assert model.column_names == ("intercept", "x0", "x1")
    probs = nuis.propensities(ds.x)  # subset applied internally
    assert probs.shape == (ds.n, 4)


def test_fitted_sample_reads_the_fit_own_probabilities():
    # the fitted covariate array gets the logit's converged probabilities,
    # read-only; an equal copy of it is predicted, column subset and all,
    # and agrees to rounding
    ds = toy_dataset(d=2)
    nuis = fit_nuisances(ds, propensity_covariates=["x1"])
    probs = nuis.propensities(ds.x)
    assert np.array_equal(probs, nuis.propensity.fit_state[1].T)
    assert not probs.flags.writeable
    copy = ds.x.copy()
    predicted = nuis.propensities(copy)
    assert np.array_equal(predicted, nuis.propensity.predict(copy[:, [1]]))
    np.testing.assert_allclose(probs, predicted, rtol=1e-12, atol=1e-15)


def test_fit_nuisances_error_names_cell():
    ds = toy_dataset(n=400)
    # constant covariate makes every outcome design collinear with its intercept
    bad = PanelDataset(ids=ds.ids, y1=ds.y1, y2=ds.y2,
                       group_is_a=ds.group_is_a, eligible=ds.eligible,
                       x=np.ones((ds.n, 1)), covariate_names=("flat",),
                       mechanism=ds.mechanism)
    with pytest.raises(SingularDesignError, match=r"^\(A, Never\): "):
        fit_nuisances(bad, NuisanceMode.OUTCOME_ONLY)


class TwoArgumentError(Exception):
    """Built from two arguments, as numpy's _ArrayMemoryError(shape,
    dtype) is, so that its type cannot be called with a message alone."""

    def __init__(self, shape, dtype):
        super().__init__(f"cannot allocate {shape} of {dtype}")
        self.shape, self.dtype = shape, dtype


@pytest.mark.parametrize("fitter, label", [
    ("fit_logistic_multinomial", "propensity model"),
    ("_linear_fits", "(A, Never)"),
    ("_linear_fits", "outcome-change regressions")],
    ids=["logit", "regression", "stacked-regressions"])
@pytest.mark.parametrize("error, attribute", [
    (lambda: TwoArgumentError((10 ** 9, 4), "float64"), "shape"),
    (lambda: SingularDesignError("rank 1 of 2", dependent_columns=("x0",)),
     "dependent_columns"),
    (lambda: ConvergenceError("no ascent step", trace=(-3.0, -2.5)),
     "trace")], ids=["two-argument", "singular", "convergence"])
def test_failed_fit_raises_its_own_exception(monkeypatch, fitter, label,
                                             error, attribute):
    # the exception a model raises comes out of fit_nuisances itself,
    # type and attributes kept, with the model's label before its message:
    # a cell's when the stacked regressions report that cell's entry as
    # failed, the stack's when the stacked pass itself raises
    raised = error()
    message, value = str(raised), getattr(raised, attribute)

    def fail(*args, **kwargs):
        if label == "(A, Never)":
            return None, (0, raised)
        raise raised

    monkeypatch.setattr(nuisance_mod, fitter, fail)
    with pytest.raises(type(raised)) as caught:
        fit_nuisances(toy_dataset())
    assert caught.value is raised
    assert str(caught.value) == f"{label}: {message}"
    assert getattr(caught.value, attribute) == value


def test_nuisance_set_serialization(tmp_path):
    ds = toy_dataset()
    nuis = fit_nuisances(ds, NuisanceMode.SCORE_SET)
    doc = nuis.to_dict()
    assert doc["mode"] == "score-set"
    assert "propensity" in doc and "outcome_models" in doc
    # the CLI writes the dict through its strict-JSON writer
    path = tmp_path / "nuis.json"
    _write_json(path, doc)
    loaded = json.loads(path.read_text())
    assert loaded["mode"] == "score-set"
    # a non-finite coefficient is refused before the file is opened
    model = nuis.outcome_models[Cell.B_NEVER]
    broken = dataclasses.replace(nuis, outcome_models={
        **nuis.outcome_models, Cell.B_NEVER: dataclasses.replace(
            model, coefficients=np.full_like(model.coefficients, np.nan))})
    with pytest.raises(ValueError):
        _write_json(tmp_path / "broken.json", broken.to_dict())
    assert not (tmp_path / "broken.json").exists()


def test_linear_model_to_dict():
    model = fit_linear(np.arange(10.0).reshape(-1, 1), np.arange(10.0) * 2)
    doc = model.to_dict()
    assert doc["n_obs"] == 10
    assert doc["coefficients"][1] == pytest.approx(2.0)
