"""Association estimation: instrument-exposure and instrument-outcome fits.

Both entry points return the coefficient of the predictor of interest
(the genetic instrument or score) with its standard error, adjusting for
any covariates named in the regression spec. An intercept is always
included. Standard errors are classical model-based ones; no robust or
small-sample corrections are applied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateFitWarning,
    DomainError,
    EstimationError,
    SeparationError,
)
from .numerics import wls_solve

_IRLS_MAX_ITER = 50
_IRLS_TOL = 1e-10
_SEPARATION_COEF = 15.0
# An exact fit: residual sum of squares indistinguishable from rounding noise.
_DEGENERATE_RSS_RTOL = 1e-24


@dataclass(frozen=True)
class AssocEstimate:
    """A regression coefficient for the instrument, with its standard error.

    ``degenerate`` marks exact fits whose residual variance collapsed to
    zero; the standard error is reported as 0 and a warning is emitted.
    """

    beta: float
    se: float
    n: int
    degenerate: bool = False

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise DomainError(f"coefficient must be finite, got {self.beta}")
        if not np.isfinite(self.se) or self.se < 0:
            raise DomainError(f"standard error must be finite and >= 0, got {self.se}")
        if self.n < 2:
            raise DomainError(f"sample count must be >= 2, got {self.n}")


@dataclass(frozen=True)
class RegressionSpec:
    """Names the response, the predictor of interest, and the covariates."""

    response: str
    predictor: str
    covariates: tuple[str, ...] = ()
    family: str = "linear"

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise DomainError(f"unknown family {self.family!r}")
        if self.predictor in self.covariates:
            raise DomainError(
                f"predictor {self.predictor!r} cannot also be a covariate"
            )


@dataclass(frozen=True)
class LogisticFit:
    """Full IRLS output, mainly for diagnostics and tests."""

    coef: np.ndarray
    cov: np.ndarray
    deviance_trace: tuple[float, ...] = field(repr=False)
    iterations: int
    n: int


def _design(data: Mapping[str, np.ndarray], spec: RegressionSpec):
    """Checked design and response: an intercept, then the centred predictor and covariates.

    Centring leaves every slope and its variance as they are and moves
    only the intercept, to the linear predictor at the column means; it
    keeps the normal equations of ``wls_solve`` well conditioned when a
    covariate sits far from zero (age in years, say). X is stored column
    by column (Fortran order), which makes its row scaling and products
    in ``wls_solve`` and IRLS several times faster for p <= 5. Returns
    ``(X, y, center)``, ``center`` holding the column means.
    """
    names = (spec.response, spec.predictor, *spec.covariates)
    try:
        y, *cols = (np.asarray(data[name], dtype=float) for name in names)
    except KeyError as missing:
        raise DomainError(f"column {missing.args[0]!r} not present in data") from None
    n = y.shape[0]
    for name, col in zip(names[1:], cols):
        if col.shape != (n,):
            raise DomainError(f"column {name!r} has shape {col.shape}, expected ({n},)")
    for name, col in zip(names, (y, *cols)):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise DomainError(f"non-finite value in column {name!r} at row {int(bad[0])}")
    if n < 1 + len(cols):
        raise DomainError(f"need at least as many rows as columns, got {n} < {1 + len(cols)}")
    center = np.array([col.mean() for col in cols])
    X = np.array([np.ones(n), *(col - m for col, m in zip(cols, center))]).T
    return X, y, center


def fit_linear(data: Mapping[str, np.ndarray], spec: RegressionSpec) -> AssocEstimate:
    """Ordinary least squares; returns the predictor-of-interest coefficient.

    The standard error uses the classical unbiased residual variance
    RSS / (n - p). A perfectly collinear response (zero residuals) is
    reported with se = 0 and a DegenerateFitWarning instead of failing.
    """
    if spec.family != "linear":
        raise DomainError(f"fit_linear requires family='linear', got {spec.family!r}")
    X, y, _ = _design(data, spec)
    n, p = X.shape
    if n <= p:
        raise DomainError(f"need n > p for a residual variance estimate, got n={n}, p={p}")
    coef, cov = wls_solve(X, y)
    resid = y - X @ coef
    rss = float(resid @ resid)
    yty = float(y @ y)
    if rss <= _DEGENERATE_RSS_RTOL * max(yty, 1.0):
        warnings.warn(
            f"response {spec.response!r} is an exact linear function of the "
            "design; standard error reported as 0",
            DegenerateFitWarning,
            stacklevel=2,
        )
        return AssocEstimate(beta=float(coef[1]), se=0.0, n=n, degenerate=True)
    sigma2 = rss / (n - p)
    return AssocEstimate(beta=float(coef[1]), se=float(np.sqrt(sigma2 * cov[1, 1])), n=n)


def _deviance(eta: np.ndarray, y: np.ndarray) -> float:
    # 2 * sum[log(1 + exp(eta)) - y*eta], computed overflow-safe.
    return float(2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta))


def fit_logistic_detail(data: Mapping[str, np.ndarray], spec: RegressionSpec) -> LogisticFit:
    """Maximum-likelihood logistic fit via iteratively reweighted least squares.

    The fit runs on the design of ``_design``, whose predictor and
    covariate columns are centred at their means. Starts from all-zero
    coefficients; a candidate step that increases the deviance is halved
    back toward the previous iterate. Convergence is declared when no
    coefficient (the intercept taken at the column means) moves by more
    than 1e-10. Divergence of the coefficients is treated as separation
    and raised as such. It is judged free of each column's location and
    scale: a slope times its column's standard deviation, or the linear
    predictor at the column means (the centred intercept), beyond 15 in
    absolute value. The returned ``coef`` and ``cov`` are those of the
    uncentred columns: ``coef[0]`` is the linear predictor at all-zero
    covariates, and ``cov`` is mapped to match.
    """
    if spec.family != "logistic":
        raise DomainError(f"fit_logistic requires family='logistic', got {spec.family!r}")
    X, y, center = _design(data, spec)
    n, p = X.shape
    levels = np.unique(y)
    if not np.isin(levels, (0.0, 1.0)).all():
        raise DomainError(f"logistic response must be coded 0/1, found values {levels}")
    if levels.size < 2:
        raise EstimationError("logistic response has a single class; no fit possible")

    # Divergence is judged on coefficients per column sd and on the
    # intercept at the column means, so a covariate's units or offset
    # (age in years, say) cannot make a valid fit look separated.
    spread = X[:, 1:].std(axis=0)

    coef = np.zeros(p)
    eta = X @ coef
    dev = _deviance(eta, y)
    trace = [dev]
    cov = None
    for iteration in range(1, _IRLS_MAX_ITER + 1):
        prob = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(prob * (1.0 - prob), 1e-10)
        z = eta + (y - prob) / w
        candidate, cov = wls_solve(X, z, w)
        step = candidate - coef
        new_eta = X @ candidate
        new_dev = _deviance(new_eta, y)
        halvings = 0
        while new_dev > dev + 1e-10 and halvings < 30:
            step *= 0.5
            candidate = coef + step
            new_eta = X @ candidate
            new_dev = _deviance(new_eta, y)
            halvings += 1
        if halvings == 30 and new_dev > dev + 1e-10:
            raise SeparationError(
                "logistic deviance could not be decreased; data look separated"
            )
        moved = float(np.abs(step).max())
        coef, eta, dev = candidate, new_eta, new_dev
        trace.append(dev)
        if abs(coef[0]) > _SEPARATION_COEF or np.abs(coef[1:] * spread).max() > _SEPARATION_COEF:
            raise SeparationError(
                "logistic coefficients diverged (|coef| > "
                f"{_SEPARATION_COEF:g} per column sd, or at the column means); "
                "data are separated or nearly so"
            )
        if moved < _IRLS_TOL:
            break
    else:
        raise ConvergenceError(
            f"IRLS did not converge in {_IRLS_MAX_ITER} iterations",
            trace=tuple(trace),
        )
    # Back to the uncentred columns: intercept = centred intercept - center . slopes.
    uncentre = np.eye(p)
    uncentre[0, 1:] = -center
    return LogisticFit(
        coef=uncentre @ coef,
        cov=uncentre @ cov @ uncentre.T,
        deviance_trace=tuple(trace),
        iterations=iteration,
        n=n,
    )


def fit_logistic(data: Mapping[str, np.ndarray], spec: RegressionSpec) -> AssocEstimate:
    """Log-odds coefficient of the predictor of interest, with its SE.

    The standard error comes from the inverse observed information at the
    maximum (which equals the expected information for this model).
    """
    fit = fit_logistic_detail(data, spec)
    return AssocEstimate(
        beta=float(fit.coef[1]), se=float(np.sqrt(fit.cov[1, 1])), n=fit.n
    )
