"""Nuisance model fitting: least-squares outcome regressions on
numpy's QR (LAPACK's unpivoted Householder factorization) and
maximum-likelihood logit propensity models by an in-house Newton
iteration.

The estimation engine consumes a NuisanceSet holding a four-cell
propensity model p(g,e,x) and outcome-change regressions m(g,e,x), the
latter fitted together as one stack of cells. The
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
from dataclasses import dataclass, field
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
# a converged log-likelihood above -SEPARATION_LOGLIK puts every unit's
# own-cell probability above exp(-1e-6): complete separation. Separated
# fits end at -5e-8 to -1e-13 (n 50 to 20,000); the benchmark's seed-1
# Monte Carlo fits end at most at -1.01 per unit
SEPARATION_LOGLIK = 1e-6
MIN_STEP = 2.0 ** -30
_EPS = np.finfo(float).eps


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


def _qr_rank(a, p, rows, lead):
    """(r, dependent) of numpy's QR (LAPACK's unpivoted Householder
    factorization) of each (m, q) matrix of the (k, m, q) stack a, whose
    first p columns are a design; a response appended as column p rides
    along, so r[:, :p, p] is Q'y and Q is never formed. dependent, (k, p),
    marks the columns whose |r_jj| is at most lead * max(rows, p) * eps,
    with lead each matrix's largest design column norm and rows its
    observations: each is the later column of a collinear set, as R's lm
    names aliased terms."""
    r = np.linalg.qr(a, mode="r")
    tol = np.multiply(lead, np.maximum(rows, p)) * _EPS
    dependent = np.abs(r.diagonal(axis1=1, axis2=2)[:, :p]) <= tol[:, None]
    return r, dependent


def _rank_error(column_names, dependent, message) -> SingularDesignError:
    """The error of a design whose `dependent` columns are named in
    declared order; its text opens with `message` formatted with {rank}
    and {p}."""
    p = len(column_names)
    dep = tuple(name for name, d in zip(column_names, dependent) if d)
    return SingularDesignError(
        f"{message.format(rank=p - len(dep), p=p)}; dependent column(s): "
        f"{', '.join(dep)}", dependent_columns=dep)


def _least_squares(design_t, y, rows, column_names):
    """Least squares of every entry of a stack at once, on numpy's QR of
    each entry's unit-norm columns: one QR call and one solve call
    whatever the number of entries.

    design_t, (k, p, m), holds each entry's design transposed, one row
    per column, and y, (k, m), its response: entry j's observations are
    its first rows[j] units and zeros follow, which leave its r, Q'y and
    residuals as they are. Every elementwise step runs along the units,
    so none has a p-long inner loop. Returns (fits, failure). failure is
    None, or (j, error) for the first entry in stack order that fails,
    with the error it raises fitted alone: InsufficientDataError when it
    has fewer observations than coefficients, ValueError when its design
    holds an inf or a NaN, SingularDesignError naming its dependent
    columns (see _qr_rank); fits is then None. Else fits is
    (coefficients, r, safe, residual_variance), one row per entry: the
    coefficients on the design's own scale, the QR factor of the
    unit-norm columns and their norms (a LinearModel's fit_state), and
    rss / (rows - p), or 0 for a saturated entry. The norms are known,
    so the unit-norm columns' lead norm is 1 (0 for a design of zero
    columns) and is not taken again, and an entry whose norms are all
    finite holds no inf or NaN.
    """
    k, p, m = design_t.shape
    rows = np.asarray(rows)
    norms = np.sqrt(np.einsum("kji,kji->kj", design_t, design_t))
    safe = np.where(norms > 0, norms, 1.0)
    # the response rides along; zero units past m keep r square
    scaled = np.zeros((k, p + 1, max(m, p + 1)))
    np.divide(design_t, safe[..., None], out=scaled[:, :p, :m])
    scaled[:, p, :m] = y
    r, dependent = _qr_rank(scaled.transpose(0, 2, 1), p, rows,
                            (norms > 0).any(axis=1))
    failed = (rows < p) | ~np.isfinite(norms).all(axis=1) | dependent.any(axis=1)
    for j in failed.nonzero()[0]:
        if rows[j] < p:
            error = InsufficientDataError(
                f"{rows[j]} observations for {p} coefficients")
        elif not np.isfinite(scaled[j, :p]).all():
            error = ValueError("array must not contain infs or NaNs")
        elif dependent[j].any():  # else its norms overflowed, a full-rank design
            error = _rank_error(column_names, dependent[j],
                                "design is rank deficient (rank {rank} of {p})")
        else:
            continue
        return None, (int(j), error)

    r = r[:, :p]
    coef = np.linalg.solve(r[..., :p], r[..., p:])[..., 0] / safe
    residuals = y - np.matmul(coef[:, None], design_t)[:, 0]
    rss = np.matmul(residuals[:, None], residuals[..., None])[:, 0, 0]
    residual_variance = [float(rss_j / (n_j - p)) if n_j > p else 0.0
                         for rss_j, n_j in zip(rss, rows.tolist())]
    return (coef, r[..., :p], safe, residual_variance), None


def fit_ols(design, response, column_names: Optional[Sequence[str]] = None,
            fitted_on=None) -> LinearModel:
    """Least squares via numpy's QR of the unit-norm columns: the
    one-entry case of _least_squares, on the transposed view of the
    design.

    Rank deficiency raises SingularDesignError naming the dependent
    columns, each the later column of a collinear set (see _qr_rank);
    n < p raises InsufficientDataError. Coefficients are reported on the
    design's own scale, so fit_state holds no raw-scale transform
    (fit_linear adds one).
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

    fits, failure = _least_squares(design.T[None], y[None], (n,),
                                   column_names)
    if failure:
        raise failure[1]
    coef, r, safe, residual_variance = fits
    return LinearModel(coef[0], column_names, residual_variance[0], n,
                       fitted_on, (r[0], safe[0], None))


def _linear_fits(x, y, rows, covariate_names, fitted_on):
    """Regressions of y on an intercept and the raw covariates x for
    every entry of a stack, by one _least_squares pass: x, (k, m, d), and
    y, (k, m), hold entry j's observations in their first rows[j] units,
    and the finite values after them are zeroed; fitted_on labels each
    entry's model.

    Each entry's covariates are centered and scaled over its own units
    (see _standardize) into the transposed design, and its coefficients
    mapped back by its raw-scale transform t, which fit_state keeps for
    the gram inverse, so callers never see the standardized space.
    Returns (models, failure) as _least_squares returns (fits, failure),
    with one LinearModel per entry in place of the fits. A fit's three
    change regressions take 278 us and 137 Python calls this way at
    n=2,000, against 477 us and 480 calls as one fit per cell, and 348
    against 565 us on n=5,000 bootstrap resamples (medians of 12
    interleaved blocks of 40 fresh panels, faster in 12; one OpenBLAS
    thread, 2-core x86-64).
    """
    k, m, d = x.shape
    present = np.arange(m) < np.asarray(rows)[:, None]
    x, y = x * present[..., None], y * present
    design_t = np.empty((k, d + 1, m))  # the intercept, then standardized x
    design_t[:, 0] = present
    _, center, scale = _standardize(
        x, out=design_t[:, 1:].transpose(0, 2, 1), present=present[..., None])
    names = ("intercept", *covariate_names)
    fits, failure = _least_squares(design_t, y, rows, names)
    if failure:
        return None, failure
    coef, r, safe, residual_variance = fits
    t = _raw_transform_matrix(center, scale)
    coef = np.matmul(t, coef[..., None])[..., 0]
    return [LinearModel(c, names, v, n_obs, label, (r_j, safe_j, t_j))
            for c, v, n_obs, label, r_j, safe_j, t_j in zip(
                coef, residual_variance, rows, fitted_on, r, safe, t)
            ], None


def fit_linear(x, y, covariate_names: Optional[Sequence[str]] = None,
               fitted_on=None) -> LinearModel:
    """Regression of y on an intercept and raw covariates: the one-entry
    case of _linear_fits. Covariates are centered and scaled internally;
    coefficients are reported on the raw scale. fitted_on labels the
    model, not its errors, whose label fit_nuisances puts in front.
    """
    x, covariate_names = _covariates(x, covariate_names)
    y = np.asarray(y, dtype=float)
    if len(y) != len(x):
        raise ValueError(f"response length {len(y)} != design rows {len(x)}")
    models, failure = _linear_fits(x[None], y[None], (len(x),),
                                   covariate_names, (fitted_on,))
    if failure:
        raise failure[1]
    return models[0]


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


def _norm(beta) -> float:
    """np.linalg.norm(beta) without its wrappers: the square root of the
    flattened coefficients' dot product with themselves."""
    flat = beta.ravel()
    return math.sqrt(flat.dot(flat))


def _softmax_loglik(zt, own_logit, beta):
    """Log-likelihood, probabilities for coefficient matrix beta (3, p).
    own_logit holds each unit's flat index into the (4, n) logits,
    label * n + row, so the take gathers the units' own logits in row
    order."""
    logits, probs, log_norm = _softmax(zt, beta)
    return float((logits.ravel().take(own_logit) - log_norm).sum()), probs


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
            or _norm(beta) > SEPARATION_COEF_NORM):
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
    beta = _moment_start(zt, cells.astype(float), cells.sum(axis=1, dtype=float))
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
        if np.abs(grad).max() < GRADIENT_TOL:
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

        norm = _norm(beta)
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


def _standardize(x, out=None, present=None):
    """Center/scale the columns of x over its rows into `out` (default: a
    new array); returns (z, center, scale), the last two by
    x.mean(axis=-2)'s and x.std(axis=-2)'s own reductions. x is (n, d),
    or a (k, m, d) stack whose entry j has the rows where the (k, m, 1)
    `present` is true and zeros elsewhere: each entry is centered and
    scaled over its own rows, and its other rows stay zero. Zero-variance
    columns keep scale 1: rank errors later. No rows center at 0."""
    if present is None:
        count = max(x.shape[-2], 1)
    else:
        count = np.maximum(np.add.reduce(present, axis=-2, keepdims=True), 1)
    center = np.add.reduce(x, axis=-2, keepdims=True) / count
    z = np.subtract(x, center, out=out)
    if present is not None:
        z *= present
    scale = np.sqrt(np.add.reduce(z * z, axis=-2, keepdims=True) / count)
    scale = np.where(scale > 0, scale, 1.0)
    z /= scale
    return z, center[..., 0, :], scale[..., 0, :]


def _raw_transform_matrix(center, scale):
    """T with beta_raw = T beta_std for each intercept-first coefficient
    vector fitted on (x - center) / scale; center and scale are (d,), or
    (k, d) for a stack of k transforms."""
    d = center.shape[-1]
    t = np.zeros((*center.shape[:-1], d + 1, d + 1))
    diagonal = t.reshape(*center.shape[:-1], -1)[..., ::d + 2]  # a view
    diagonal[..., 0] = 1.0
    diagonal[..., 1:] = 1.0 / scale
    t[..., 0, 1:] = -center / scale
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
    the covariates' location and units, and so does a converged fit
    whose log-likelihood is within SEPARATION_LOGLIK of 0, where the
    cells are completely separated; DEFAULT_MAX_ITER iterations
    without convergence raise ConvergenceError with the likelihood trace
    attached.
    """
    x, covariate_names = _covariates(covariates, covariate_names)
    labels = np.asarray(cell_labels, dtype=int)
    n, d = x.shape

    counts = np.bincount(labels, minlength=4)
    short = counts < d + 1
    if short.any():
        cell = Cell(int(short.argmax()))
        raise InsufficientDataError(
            f"cell {cell.label} has {counts[cell]} units, needs ≥ {d + 1}")

    zx, center, scale = _standardize(x)
    zt = _transposed_design(zx)
    names = ("intercept", *covariate_names)
    if not np.isfinite(zt).all():
        raise ValueError("array must not contain infs or NaNs")
    lead = np.sqrt(np.einsum("ij,ij->i", zt, zt)).max(initial=0.0)
    _, dependent = _qr_rank(zt.T[None], d + 1, (n,), (lead,))
    if dependent.any():
        raise _rank_error(names, dependent[0], "logit design is rank deficient")

    beta_std, probs, trace, n_iter = _newton_multinomial(
        zt, labels, DEFAULT_MAX_ITER, DEFAULT_LL_TOL, names)
    if trace[-1] > -SEPARATION_LOGLIK:
        raise SeparationError(
            f"log-likelihood {trace[-1]:.3g} is within "
            f"{SEPARATION_LOGLIK:g} of 0: the covariates separate the "
            "cells completely; trim the sample or drop covariates")

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

    def outcome_features(self, x_raw) -> np.ndarray:
        """The columns of the raw covariates the change regressions read."""
        return self._features(x_raw, self.outcome_columns)

    def outcome_means(self, x_raw) -> tuple:
        """(cells, values): the cells with an outcome-change model and,
        row by row, each one's predictions at the raw covariates, a
        (k, n) array. One batched product of k (1, d) @ (d, n) slope
        rows: each row has the bits of its model's predict, where the
        (k, d) @ (d, n) product rounds differently once d >= 2."""
        x = self.outcome_features(x_raw)
        if not self.outcome_models:
            return (), np.empty((0, len(x)))
        coef = np.array([model.coefficients
                         for model in self.outcome_models.values()])
        if coef.shape[1] != x.shape[1] + 1:
            raise ValueError(f"expected {coef.shape[1] - 1} covariate "
                             f"columns, got {x.shape[1]}")
        values = np.matmul(coef[:, None, 1:], x.T)[:, 0]
        values += coef[:, :1]
        return tuple(self.outcome_models), values

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


def _cell_stack(dataset: PanelDataset, x, cells):
    """(x, y, rows) for _linear_fits: the (k, m, d) covariates and the
    (k, m) outcome changes of each cell's units, in row order, in the
    first of m places, m the largest cell's unit count, and each cell's
    unit count. Gathered by one take from x and one from the changes."""
    rows = tuple(dataset.cell_counts[cell] for cell in cells)
    units = np.zeros((len(cells), max(rows)), dtype=np.intp)
    for row, cell, count in zip(units, cells, rows):
        row[:count] = dataset.cell_masks[cell].nonzero()[0]
    return x.take(units, axis=0), dataset.delta_y().take(units), rows


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
    dataset and fit_options alone. The change regressions of all the
    cells are fitted as one stack (see _cell_stack and _linear_fits).
    A model that fails raises its own exception, with the model's label
    put in front of its message: "propensity model", or the first
    failing cell's in SCORE_SET_CELLS order, or "outcome-change
    regressions" for an error of the stacked pass as a whole; a
    MemoryError is raised as a plain one with that message, since
    numpy's ignores its args. The
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
    label = "propensity model"
    try:
        if mode is NuisanceMode.SCORE_SET:
            propensity = fit_logistic_multinomial(
                prop_x, dataset.cell_codes(), covariate_names=prop_names)
        label = "outcome-change regressions"
        models, failure = _linear_fits(
            *_cell_stack(dataset, out_x, cells), out_names,
            [cell.label for cell in cells])
        if failure:
            label = cells[failure[0]].label
            raise failure[1]
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
                       outcome_models=dict(zip(cells, models)),
                       propensity_columns=prop_cols, outcome_columns=out_cols,
                       fitted_x=dataset.x)
