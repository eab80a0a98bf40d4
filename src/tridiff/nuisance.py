"""Nuisance model fitting: least-squares outcome regressions on
numpy's QR (LAPACK's unpivoted Householder factorization) and
maximum-likelihood logit propensity models by an in-house Newton
iteration.

The estimation engine consumes a NuisanceSet holding a four-cell
propensity model p(g,e,x) and outcome-change regressions m(g,e,x). The
outcome-regression benchmarks need the change regressions only, so
they can be fitted without the propensity model.

The logit kernels work cell-major: the design is held transposed,
(p, n), and logits and probabilities as (4, n) arrays, so each cell's
values and each covariate's values are one contiguous row. The
reductions over the cells are done in the order of the row-major
(n, 4) form reduced with max and sum along its rows, so predicted
probabilities for given coefficients are bit for bit that form's
whenever the product beta @ zt has the bits of z @ beta.T. The two
products take different BLAS GEMM layouts; their bits were equal on
every shape checked with OpenBLAS on x86-64, but a BLAS build with
other kernels or blocking may round them differently.
PropensityModel.predict returns the (n, 4) transpose.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import Cell, PanelDataset
from .exceptions import (ConvergenceError, InsufficientDataError,
                         MissingNuisanceError, SeparationError,
                         SingularDesignError)

DEFAULT_TRIM_EPSILON = 0.01
DEFAULT_MAX_ITER = 100
DEFAULT_LL_TOL = 1e-10
GRADIENT_TOL = 1e-8
SEPARATION_COEF_NORM = 1e4
MIN_STEP = 2.0 ** -30


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearModel:
    """Least-squares fit with intercept-first coefficients.

    `coefficients` has length p (the design width); for covariate-style
    models p = d+1 with the intercept first, and predict() expects the
    raw d-column covariate matrix. `gram_inverse` is (X'X)^{-1} of the
    design actually fitted (after back-transform), so the classical
    coefficient covariance is residual_variance * gram_inverse. It is
    built from `fit_state` (the QR factor r of the unit-norm columns,
    their norms and, for fit_linear, the raw-scale transform) on first
    read, so a fit whose covariance nobody reads never builds it.
    """

    coefficients: np.ndarray
    column_names: tuple
    residual_variance: float
    n_obs: int
    fitted_on: object = None
    fit_state: Optional[tuple] = field(default=None, repr=False,
                                       compare=False)

    @functools.cached_property
    def gram_inverse(self) -> Optional[np.ndarray]:
        """(X'X)^{-1}; None when there is no fit_state."""
        if self.fit_state is None:
            return None
        r, safe, t = self.fit_state
        r_inv = np.linalg.inv(r)
        gram = (r_inv @ r_inv.T) / np.outer(safe, safe)
        return gram if t is None else t @ gram @ t.T

    @property
    def coef_cov(self) -> np.ndarray:
        return self.residual_variance * self.gram_inverse

    @property
    def coef_se(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.coef_cov), 0.0))

    def predict(self, x) -> np.ndarray:
        """Evaluate intercept + slopes . x on a raw (n, d) matrix."""
        x, _ = _covariates(x, row=True)
        if x.shape[1] != len(self.coefficients) - 1:
            raise ValueError(
                f"expected {len(self.coefficients) - 1} covariate columns, "
                f"got {x.shape[1]}")
        return self.coefficients[0] + x @ self.coefficients[1:]

    def to_dict(self) -> dict:
        return {
            "coefficients": [float(c) for c in self.coefficients],
            "column_names": list(self.column_names),
            "residual_variance": float(self.residual_variance),
            "n_obs": int(self.n_obs),
            "fitted_on": str(self.fitted_on) if self.fitted_on is not None else None,
        }


def _full_rank_r(a, column_names, message):
    """The upper triangle r of numpy's QR (LAPACK's unpivoted Householder
    factorization) of the (n, q) matrix a whose first p = len(column_names)
    columns are a design; a response appended as column p rides along, so
    r[:, p] is Q'y and Q is never formed. Columns whose |r_kk| is at most
    lead * max(n, p) * eps, lead the largest design column norm, raise
    SingularDesignError naming them in declared order: each is the later
    column of a collinear set, as R's lm names aliased terms. Its text
    opens with `message` formatted with {rank} and {p}. A design holding
    an inf or a NaN raises ValueError."""
    p = len(column_names)
    design = a[:, :p]
    if not np.isfinite(design).all():
        raise ValueError("array must not contain infs or NaNs")
    r = np.linalg.qr(a, mode="r")
    lead = np.sqrt(np.einsum("ij,ij->j", design, design)).max(initial=0.0)
    tol = lead * max(len(a), p) * np.finfo(float).eps
    dependent = np.abs(np.diagonal(r)[:p]) <= tol
    if dependent.any():
        dep = tuple(name for name, d in zip(column_names, dependent) if d)
        raise SingularDesignError(
            f"{message.format(rank=p - len(dep), p=p)}; dependent "
            f"column(s): {', '.join(dep)}", dependent_columns=dep)
    return r


def fit_ols(design, response, column_names: Optional[Sequence[str]] = None,
            fitted_on=None) -> LinearModel:
    """Least squares via numpy's QR of the unit-norm columns.

    Rank deficiency raises SingularDesignError naming the dependent
    columns, each the later column of a collinear set (see
    _full_rank_r); n < p raises InsufficientDataError. Coefficients are
    reported on the design's own scale, so fit_state holds no raw-scale
    transform (fit_linear adds one).
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    n, p = design.shape
    if column_names is None:
        column_names = tuple(f"c{j}" for j in range(p))
    else:
        column_names = tuple(column_names)
    if len(y) != n:
        raise ValueError(f"response length {len(y)} != design rows {n}")
    if n < p:
        raise InsufficientDataError(
            f"{n} observations for {p} coefficients"
            + (f" ({fitted_on})" if fitted_on is not None else ""))

    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    safe = np.where(norms > 0, norms, 1.0)
    scaled = np.empty((n, p + 1), order="F")  # the response rides along
    np.divide(design, safe, out=scaled[:, :p])
    scaled[:, p] = y
    r = _full_rank_r(scaled, column_names,
                     "design is rank deficient (rank {rank} of {p})")
    r, qty = r[:p, :p], r[:p, p]
    coef = np.linalg.solve(r, qty) / safe

    residuals = y - design @ coef
    dof = n - p
    rss = float(residuals @ residuals)
    residual_variance = rss / dof if dof > 0 else 0.0
    return LinearModel(coef, column_names, residual_variance, n, fitted_on,
                       (r, safe, None))


def fit_linear(x, y, covariate_names: Optional[Sequence[str]] = None,
               fitted_on=None) -> LinearModel:
    """Regression of y on an intercept and raw covariates.

    Covariates are centered and scaled internally and fitted by fit_ols;
    its coefficients become t @ coefficients with t the raw-scale
    transform, which fit_state keeps for the gram inverse, so callers
    never see the standardized space. fitted_on labels the model, not
    its errors, whose label fit_nuisances puts in front.
    """
    x, covariate_names = _covariates(x, covariate_names)
    n, d = x.shape
    design = np.empty((n, d + 1))  # the intercept, then the standardized x
    design[:, 0] = 1.0
    _, center, scale = _standardize(x, out=design[:, 1:])
    model = fit_ols(design, y, ("intercept", *covariate_names))
    t = _raw_transform_matrix(center, scale)
    return replace(model, coefficients=t @ model.coefficients,
                   fitted_on=fitted_on, fit_state=(*model.fit_state[:2], t))


def _covariates(x, names=None, *, row=False):
    """Covariates as a float (n, d) matrix and their names, by default
    x0, x1, ...: a 1-d x is one covariate's column, or with `row` one
    unit's row (to predict at one point)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape((1, -1) if row else (-1, 1))
    return x, (tuple(f"x{j}" for j in range(x.shape[1])) if names is None
               else tuple(names))


# ---------------------------------------------------------------------------
# Logit propensity models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropensityModel:
    """Fitted four-cell softmax model over the (group, eligibility)
    cells, in Cell order with (B, Never) the reference.

    coefficients: (3, d+1), cells 0..2 against the reference, on the
    raw covariate scale with the intercept first. n_iter and
    loglik_trace describe the Newton run; a fit that does not converge
    raises instead of returning a model. coef_cov covers the
    stacked coefficients; it is built from `fit_state` (the transposed
    standardized design, the fitted (4, n) probabilities, the covariate
    center and scale) on first read, so a fit whose covariance nobody
    reads never builds it.
    """

    coefficients: np.ndarray
    covariate_names: tuple
    n_obs: int
    n_iter: int
    loglik_trace: tuple
    fit_state: Optional[tuple] = field(default=None, repr=False,
                                       compare=False)

    @functools.cached_property
    def coef_cov(self) -> Optional[np.ndarray]:
        """Inverse observed information on the raw scale; None when the
        information is singular or there is no fit_state."""
        if self.fit_state is None:
            return None
        zt, probs, center, scale = self.fit_state
        cov_std = _observed_info_inverse(zt, probs)
        if cov_std is None:
            return None
        # block diagonal, one raw-scale transform per non-reference cell
        t_full = np.kron(np.eye(3), _raw_transform_matrix(center, scale))
        return t_full @ cov_std @ t_full.T

    def predict(self, x) -> np.ndarray:
        """Probabilities, shape (n, 4), rows summing to one: the
        transpose of the cell-major softmax, so each cell's column is
        contiguous."""
        x, _ = _covariates(x, row=True)
        return _softmax(_transposed_design(x), self.coefficients)[1].T

    def coef_se(self) -> np.ndarray:
        if self.coef_cov is None:
            raise MissingNuisanceError("no coefficient covariance stored")
        se = np.sqrt(np.maximum(np.diag(self.coef_cov), 0.0))
        return se.reshape(self.coefficients.shape)

    def to_dict(self) -> dict:
        return {
            "kind": "multinomial4",
            "coefficients": [[float(v) for v in row] for row in self.coefficients],
            "covariate_names": list(self.covariate_names),
            "reference_cell": Cell.B_NEVER.label,
            "n_obs": int(self.n_obs),
            "n_iter": int(self.n_iter),
            "final_loglik": float(self.loglik_trace[-1]) if self.loglik_trace else None,
        }


def _softmax(zt, beta):
    """Softmax over the four cells for the (3, p) coefficients beta and
    the transposed (p, n) design zt, with the reference cell's logit
    fixed at 0. Returns (logits, probs, log_normalizer), logits and
    probs cell-major, (4, n), so that each cell's values are one
    contiguous row. The max and sum over axis 0 combine the four rows in
    cell order, as the (n, 4) form's reductions along its rows do (see
    the module docstring)."""
    n = zt.shape[1]
    logits = np.empty((4, n))
    np.matmul(beta, zt, out=logits[:3])
    logits[3] = 0.0
    shift = logits.max(axis=0)
    probs = np.subtract(logits, shift)
    np.exp(probs, out=probs)
    denom = probs.sum(axis=0)
    probs /= denom
    np.log(denom, out=denom)
    denom += shift
    return logits, probs, denom


def _softmax_loglik(zt, own_logit, beta):
    """Log-likelihood, probabilities for coefficient matrix beta (3, p).
    own_logit holds each unit's flat index into the (4, n) logits,
    label * n + row, so the take gathers the units' own logits in row
    order."""
    logits, probs, log_norm = _softmax(zt, beta)
    return float(np.sum(logits.ravel().take(own_logit) - log_norm)), probs


def _softmax_gradient(zt, onehot, probs):
    """Gradient of the softmax log-likelihood over the non-reference
    cells' stacked coefficients, sum_i (y_i - pi_i) kron z_i: one
    (3, n) @ (n, p) product. onehot is the (3, n) indicator of each
    unit's cell among the non-reference cells."""
    return ((onehot - probs[:3]) @ zt.T).ravel()


def _moment_start(zt, onehot, counts):
    """Moment-matched (3, p) start for the four-cell softmax model on
    the standardized transposed design zt (intercept row first): the
    linear-discriminant coefficients, which are the softmax model's own
    parameters when the covariates are Gaussian within cells with a
    common covariance (Efron 1975). With mu_k the cell means, S their
    pooled within-cell covariance and ref the reference cell, cell k's
    slopes are S^-1 (mu_k - mu_ref) and its intercept
    log(n_k / n_ref) - (mu_k' S^-1 mu_k - mu_ref' S^-1 mu_ref) / 2.
    onehot is the (4, n) cell indicator and counts the cell sizes.
    None when S is singular, or the start is non-finite or its norm
    passes SEPARATION_COEF_NORM (as a nearly singular S makes it).
    The benchmark's seed-1 bootstrap and Monte Carlo runs take 400 and
    896 Newton iterations from this start, 800 and 1842 from zero."""
    p, n = zt.shape
    k1 = len(counts) - 1
    sums = onehot @ zt[1:].T                        # (4, d) cell sums
    means = sums / counts[:, None]
    within = zt[1:] @ zt[1:].T - sums.T @ means     # pooled scatter
    try:
        coef = np.linalg.solve(within / (n - k1 - 1), means.T)   # S^-1 mu
    except np.linalg.LinAlgError:
        return None
    quad = np.einsum("kj,jk->k", means, coef)       # mu_k' S^-1 mu_k
    beta = np.empty((k1, p))
    beta[:, 0] = (np.log(counts[:k1] / counts[k1])
                  - 0.5 * (quad[:k1] - quad[k1]))
    beta[:, 1:] = (coef[:, :k1] - coef[:, k1:]).T
    if (not np.isfinite(beta).all()
            or np.linalg.norm(beta) > SEPARATION_COEF_NORM):
        return None
    return beta


def _newton_multinomial(zt, labels, max_iter, tol, column_names):
    """Damped Newton ascent for the four-cell softmax model with the last
    cell as reference, starting from _moment_start's coefficients, or
    from zero when those are None or their log-likelihood is below
    zero's, -n log 4; the start's likelihood evaluation is the first
    Newton evaluation either way. Returns (beta, probs, trace, n_iter);
    probs are the fitted (4, n) cell probabilities at beta. zt is the
    transposed design (p, n), intercept row first and already
    standardized. The separation check takes the norm of the
    standardized coefficients, so a covariate's location and units do
    not decide whether a fit counts as separated.
    """
    p, n = zt.shape
    k1 = 3
    cells = np.arange(k1 + 1)[:, None] == labels
    onehot = cells[:k1]
    own_logit = labels * n + np.arange(n)
    products = _design_products(zt)

    ll = None
    beta = _moment_start(zt, cells.astype(float),
                         np.count_nonzero(cells, axis=1).astype(float))
    if beta is not None:
        ll, probs = _softmax_loglik(zt, own_logit, beta)
        if not ll >= -n * math.log(k1 + 1):
            ll = None
    if ll is None:
        beta = np.zeros((k1, p))
        ll, probs = _softmax_loglik(zt, own_logit, beta)
    trace = [ll]

    for it in range(1, max_iter + 1):
        grad = _softmax_gradient(zt, onehot, probs)
        if np.max(np.abs(grad)) < GRADIENT_TOL:
            return beta, probs, tuple(trace), it - 1

        try:
            step = np.linalg.solve(
                _softmax_information(zt, probs, products), grad)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "singular information matrix in logit fit; columns: "
                + ", ".join(column_names),
                dependent_columns=tuple(column_names)) from None

        # step-halving: accept the first damped step that does not
        # decrease the likelihood (up to 1e-12 slack); a zero-gain step
        # simply falls through to the convergence test below
        scale = 1.0
        accepted = False
        while scale >= MIN_STEP:
            trial = beta + scale * step.reshape(k1, p)
            ll_trial, probs_trial = _softmax_loglik(zt, own_logit, trial)
            if ll_trial >= ll - 1e-12:
                accepted = True
                gain = ll_trial - ll
                beta, ll, probs = trial, ll_trial, probs_trial
                break
            scale *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"no ascent step found at iteration {it}", trace=tuple(trace))
        trace.append(ll)

        norm = float(np.linalg.norm(beta))
        if norm > SEPARATION_COEF_NORM:
            raise SeparationError(
                f"standardized coefficient norm {norm:.3g} exceeds "
                f"{SEPARATION_COEF_NORM:g} with rising likelihood: data are "
                "(near-)separated; trim the sample or drop covariates")
        if gain < tol:
            return beta, probs, tuple(trace), it

    raise ConvergenceError(
        f"logit fit did not converge in {max_iter} iterations",
        trace=tuple(trace))


# the six pairs k <= l of non-reference cells, in the order of the rows
# of the information's weight array
_CELL_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@functools.lru_cache(maxsize=16)
def _information_layout(p):
    """The column pairs a <= b of a p-column design's p(p+1)/2 product
    rows z_a z_b, and the read-only (3p, 3p) flat index of each
    information entry into the (6, p(p+1)/2) array of cell-pair by
    column-pair sums."""
    col_a, col_b = np.triu_indices(p)
    pair = np.zeros((p, p), dtype=np.intp)
    pair[col_a, col_b] = pair[col_b, col_a] = np.arange(len(col_a))
    cell = np.zeros((3, 3), dtype=np.intp)
    for row, (k, l) in enumerate(_CELL_PAIRS):
        cell[k, l] = cell[l, k] = row
    flat = cell[:, None, :, None] * len(col_a) + pair[None, :, None, :]
    flat = flat.reshape(3 * p, 3 * p)
    flat.setflags(write=False)
    return tuple(zip(col_a.tolist(), col_b.tolist())), flat


def _design_products(zt):
    """The p(p+1)/2 product rows z_a z_b, a <= b, of the transposed
    (p, n) design: the per-unit entries of z_i z_i' that every
    information matrix of one fit weights. At n=2,000, p=2, one
    information from them took 33 us, against 55 us from the p^2 rows
    and 245 us by einsum; a logit fit took 0.58 ms, against 0.85 ms with
    one product per block (one OpenBLAS thread, 2-core x86-64)."""
    column_pairs, _ = _information_layout(zt.shape[0])
    products = np.empty((len(column_pairs), zt.shape[1]))
    for row, (a, b) in zip(products, column_pairs):
        np.multiply(zt[a], zt[b], out=row)
    return products


def _softmax_information(zt, probs, products):
    """Observed information (negative Hessian) of the softmax
    log-likelihood over the non-reference categories' stacked
    coefficients, sum_i (diag pi_i - pi_i pi_i') kron z_i z_i'. The six
    distinct weight rows pi_k (delta_kl - pi_l), k <= l, of the (4, n)
    probabilities fill one (6, n) array, which one product with the
    design's product rows, products = _design_products(zt) (formed once
    per fit), turns into every distinct entry; the symmetric (3p, 3p)
    matrix is gathered from those. The weights are built row by row in
    place: fancy-indexed (6, n) temporaries, which malloc maps afresh on
    every call, made a logit fit at n=5,000 take 1.75 ms against 0.88 ms
    and 354 page faults against none."""
    _, flat = _information_layout(zt.shape[0])
    weights = np.empty((len(_CELL_PAIRS), probs.shape[1]))
    for row, (k, l) in zip(weights, _CELL_PAIRS):
        np.subtract(1.0 if k == l else 0.0, probs[l], out=row)
        row *= probs[k]
    return (weights @ products.T).ravel().take(flat)


def _observed_info_inverse(zt, probs):
    """Inverse observed information, None when it is singular."""
    try:
        return np.linalg.inv(
            _softmax_information(zt, probs, _design_products(zt)))
    except np.linalg.LinAlgError:
        return None


def _transposed_design(x):
    """The (d+1, n) transpose of the intercept-first design of an (n, d)
    covariate matrix: a row of ones, then one row per covariate."""
    zt = np.empty((x.shape[1] + 1, x.shape[0]))
    zt[0] = 1.0
    zt[1:] = x.T
    return zt


def _standardize(x, out=None):
    """Center/scale columns into `out` (default: a new array); returns
    (z, center, scale), the last two by x.mean(axis=0)'s and x.std(axis=0)'s
    own reductions. Zero-variance columns keep scale 1: rank errors later."""
    n, d = x.shape
    center = np.add.reduce(x, axis=0) / n if x.size else np.zeros(d)
    z = np.subtract(x, center, out=out)
    scale = np.sqrt(np.add.reduce(z * z, axis=0) / n) if x.size else np.ones(d)
    scale = np.where(scale > 0, scale, 1.0)
    z /= scale
    return z, center, scale


def _raw_transform_matrix(center, scale):
    """T with beta_raw = T beta_std for one intercept-first coefficient
    vector fitted on (x - center) / scale."""
    t = np.eye(len(center) + 1)
    t[0, 1:] = -center / scale
    t[1:, 1:] = np.diag(1.0 / scale)
    return t


def fit_logistic_multinomial(covariates, cell_labels,
                             covariate_names: Optional[Sequence[str]] = None
                             ) -> PropensityModel:
    """Four-cell softmax model by damped Newton, reference cell (B, Never).

    cell_labels are integer codes, the Cell numbers. Every cell needs
    d+1 units and the intercept-first design full rank. Newton starts at
    the moment-matched linear-discriminant coefficients of the
    standardized covariates, or at zero where those are unusable or fit
    worse than zero (see _moment_start and _newton_multinomial).
    Converges when the likelihood gain drops below DEFAULT_LL_TOL or the
    gradient max-norm below 1e-8. Standardized coefficients whose norm
    passes 1e4 with rising likelihood raise SeparationError, whatever
    the covariates' location and units; DEFAULT_MAX_ITER iterations
    without convergence raise ConvergenceError with the likelihood trace
    attached.
    """
    x, covariate_names = _covariates(covariates, covariate_names)
    labels = np.asarray(cell_labels, dtype=int)
    n, d = x.shape

    counts = np.bincount(labels, minlength=4)
    for cell in Cell:
        if counts[cell] < d + 1:
            raise InsufficientDataError(
                f"cell {cell.label} has {counts[cell]} units, needs ≥ {d + 1}")

    zx, center, scale = _standardize(x)
    zt = _transposed_design(zx)
    names = ("intercept", *covariate_names)
    _full_rank_r(zt.T, names, "logit design is rank deficient")

    beta_std, probs, trace, n_iter = _newton_multinomial(
        zt, labels, DEFAULT_MAX_ITER, DEFAULT_LL_TOL, names)

    raw = beta_std @ _raw_transform_matrix(center, scale).T
    return PropensityModel(coefficients=raw,
                           covariate_names=covariate_names, n_obs=n,
                           n_iter=n_iter, loglik_trace=trace,
                           fit_state=(zt, probs, center, scale))


# ---------------------------------------------------------------------------
# NuisanceSet
# ---------------------------------------------------------------------------

class NuisanceMode(enum.Enum):
    SCORE_SET = "score-set"         # propensity + change regressions
    OUTCOME_ONLY = "outcome-only"   # the same change regressions, no logit


# change regressions the score functions consume; (A, Eligible) enters a
# score with a nonzero multiplier only under normalized weights, so it is
# fitted for those alone
SCORE_SET_CELLS = (Cell.A_NEVER, Cell.B_ELIGIBLE, Cell.B_NEVER)


@dataclass(frozen=True)
class NuisanceSet:
    """Container for fitted nuisance models plus the column subsets they
    were trained with, so that prediction always reuses the training
    features.

    fit_options holds fit_nuisances' five keyword arguments (mode,
    trim_epsilon, normalize, propensity_covariates, outcome_covariates),
    which reproduce this fit on another dataset (bootstrap and Monte
    Carlo refits use exactly these) and say how it is evaluated: its
    mode, the trim threshold and whether the control weights are
    normalized.
    fitted_x is the covariate array the models were fitted on, the
    dataset's read-only x, so that propensities() knows it by identity."""

    covariate_names: tuple
    fit_options: dict
    propensity: Optional[PropensityModel] = None
    outcome_models: dict = field(default_factory=dict)  # Cell -> model
    propensity_columns: Optional[tuple] = None
    outcome_columns: Optional[tuple] = None
    fitted_x: Optional[np.ndarray] = field(default=None, repr=False,
                                           compare=False)

    def _features(self, x_raw, columns) -> np.ndarray:
        x, _ = _covariates(x_raw, row=True)
        return x if columns is None else x[:, list(columns)]

    def propensities(self, x_raw) -> np.ndarray:
        """Cell probabilities at the raw covariates, shape (n, 4). On the
        fitted array itself they are the fit's own converged ones, the
        transposed fit_state probabilities computed in the standardized
        space, read-only; any other array is predicted."""
        if self.propensity is None:
            raise MissingNuisanceError("no propensity model fitted")
        if x_raw is self.fitted_x and self.propensity.fit_state is not None:
            probs = self.propensity.fit_state[1].T
            probs.setflags(write=False)
            return probs
        return self.propensity.predict(
            self._features(x_raw, self.propensity_columns))

    def has_outcome(self, cell: Cell) -> bool:
        return cell in self.outcome_models

    def outcome_mean(self, cell: Cell, x_raw) -> np.ndarray:
        if cell not in self.outcome_models:
            raise MissingNuisanceError(
                f"no outcome-change model for cell {cell.label}")
        return self.outcome_models[cell].predict(
            self._features(x_raw, self.outcome_columns))

    def to_dict(self) -> dict:
        propensity = None
        if self.propensity is not None:
            propensity = {**self.propensity.to_dict(), "trim_epsilon":
                          float(self.fit_options["trim_epsilon"])}
        return {
            "mode": self.fit_options["mode"].value,
            "covariate_names": list(self.covariate_names),
            "propensity": propensity,
            "outcome_models": {
                cell.label: model.to_dict()
                for cell, model in sorted(self.outcome_models.items())
            },
        }


def _column_subset(names, requested):
    if requested is None:
        return None
    idx = []
    for name in requested:
        if name not in names:
            raise MissingNuisanceError(
                f"covariate {name!r} not in {list(names)}")
        idx.append(names.index(name))
    return tuple(idx)


def fit_nuisances(dataset: PanelDataset,
                  mode: NuisanceMode = NuisanceMode.SCORE_SET,
                  *,
                  trim_epsilon: float = DEFAULT_TRIM_EPSILON,
                  normalize: bool = False,
                  propensity_covariates: Optional[Sequence[str]] = None,
                  outcome_covariates: Optional[Sequence[str]] = None
                  ) -> NuisanceSet:
    """Fit the nuisance models an estimator needs.

    SCORE_SET fits the four-cell propensity model on all units plus the
    outcome-change regressions per required cell, each on its own cell.
    OUTCOME_ONLY fits the same change regressions and no propensity
    model: the outcome-regression scores need nothing else, and a logit
    that separates cannot fail them.

    trim_epsilon, in [0, 1) (else ValueError), and normalize say how
    the fit is evaluated (see scores.FitEvaluation). Normalized weights
    give the (A, Eligible) regression a nonzero multiplier in the DR
    scores, so SCORE_SET then fits it too.

    Covariate subsets name columns of the dataset's covariate matrix;
    default is all columns for both families. The logit's Newton
    iteration starts from the cell moments of the covariates (or zero),
    with DEFAULT_MAX_ITER and DEFAULT_LL_TOL, so a fit depends on the
    dataset and fit_options alone. A model that fails raises its own
    exception, with the model's label ("propensity model" or the cell's)
    put in front of its message; a MemoryError is raised as a plain one
    with that message, since numpy's ignores its args. The
    set records the dataset's x as fitted_x, so that an evaluation of this
    dataset reads the probabilities the logit converged to instead of
    predicting them.
    """
    if not 0.0 <= trim_epsilon < 1.0:  # NaN fails too
        raise ValueError(f"trim_epsilon must be in [0, 1), got {trim_epsilon}")
    fit_options = dict(mode=mode, trim_epsilon=trim_epsilon,
                       normalize=normalize,
                       propensity_covariates=propensity_covariates,
                       outcome_covariates=outcome_covariates)

    features = np.asarray(dataset.x, dtype=float)
    names = dataset.covariate_names

    prop_cols = _column_subset(names, propensity_covariates)
    out_cols = _column_subset(names, outcome_covariates)
    prop_x = features if prop_cols is None else features[:, list(prop_cols)]
    out_x = features if out_cols is None else features[:, list(out_cols)]
    prop_names = names if prop_cols is None else tuple(names[j] for j in prop_cols)
    out_names = names if out_cols is None else tuple(names[j] for j in out_cols)

    cells = SCORE_SET_CELLS + ((Cell.A_ELIGIBLE,)
                               if normalize and mode is NuisanceMode.SCORE_SET
                               else ())
    propensity = None
    outcome_models = {}
    delta = dataset.delta_y()
    label = "propensity model"
    try:
        if mode is NuisanceMode.SCORE_SET:
            propensity = fit_logistic_multinomial(
                prop_x, dataset.cell_codes(), covariate_names=prop_names)
        for cell in cells:
            label = cell.label
            rows = np.flatnonzero(dataset.cell_masks[cell])
            outcome_models[cell] = fit_linear(
                out_x.take(rows, axis=0), delta.take(rows), out_names,
                fitted_on=cell.label)
    except MemoryError as exc:
        # numpy's formats its message from the failed allocation and
        # ignores args, so the label rides on a plain MemoryError
        raise MemoryError(f"{label}: {exc}") from exc
    except Exception as exc:
        # the failed model's label goes in front of the message of the
        # exception itself, whose type and attributes are kept
        exc.args = (f"{label}: {exc.args[0] if exc.args else exc}",)
        raise

    return NuisanceSet(covariate_names=dataset.covariate_names,
                       fit_options=fit_options, propensity=propensity,
                       outcome_models=outcome_models,
                       propensity_columns=prop_cols, outcome_columns=out_cols,
                       fitted_x=dataset.x)
