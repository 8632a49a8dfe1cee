"""Association estimation: instrument-exposure and instrument-outcome fits.

``design`` checks a predictor of interest (the genetic instrument or
score) and any covariates once and builds the design matrix; the fits
``fit_linear``, ``fit_logistic`` and ``fit_logistic_detail`` take that
design and a response array, so two responses on the same rows (the
exposure and the outcome of one context) share one design. Each fit
returns the predictor's coefficient with its standard error, adjusted
for the covariates. An intercept is always included. Standard errors are
classical model-based ones; no robust or small-sample corrections are
applied.

The logistic fit's cost is its passes over the rows. Each Newton step
makes one product X'WX and one score X'(y - p), and ``_deviance`` reads
a candidate's deviance and probabilities from one exp pass; the start
(one linear predictor for every row) and a final step below the
tolerance are not scored, and every row-length array is allocated once
per fit and written in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, EstimationError, SeparationError
from .numerics import gram_inverse, wls_solve

_IRLS_MAX_ITER = 50
_IRLS_TOL = 1e-10
_SEPARATION_COEF = 15.0
# An exact fit: residual sum of squares indistinguishable from rounding noise.
_DEGENERATE_RSS_RTOL = 1e-24


@dataclass(frozen=True)
class AssocEstimate:
    """A regression coefficient for the instrument, with its standard error.

    ``degenerate`` marks an exact fit, whose residual variance collapsed
    to zero; its standard error is reported as 0. The flag is the one
    record of it: no warning is emitted.
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
class LogisticFit:
    """Full IRLS output, mainly for diagnostics and tests."""

    coef: np.ndarray
    cov: np.ndarray
    deviance_trace: tuple[float, ...] = field(repr=False)
    iterations: int
    n: int


def require_finite(name: str, column: np.ndarray) -> None:
    """Raise DomainError naming ``name`` and the first row of ``column`` that is not finite."""
    finite = np.isfinite(column)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        raise DomainError(f"non-finite value in column {name!r} at row {row}")


@dataclass(frozen=True, eq=False)
class Design:
    """A checked design matrix, as ``design`` builds it.

    ``X`` holds an intercept, then the predictor of interest and the
    covariates, each centred at its mean; ``center`` holds those means.
    """

    X: np.ndarray
    center: np.ndarray


def design(predictor, covariates=None) -> Design:
    """The design of a predictor of interest and an (n, q) block of covariates.

    Checks that the columns have n rows and finite values (naming the
    column and the row) and that n >= p. Centring leaves every slope and
    its variance as they are and moves only the intercept, to the linear
    predictor at the column means; it keeps X'WX, which both fits
    invert, well conditioned when a covariate sits far from zero
    (age in years, say). X is stored column by column (Fortran order),
    which makes its row scaling and products in ``wls_solve`` and IRLS
    several times faster for p <= 5.
    """
    predictor = np.asarray(predictor, dtype=float)
    if predictor.ndim != 1:
        raise DomainError(f"predictor has shape {predictor.shape}, expected (n,)")
    n = predictor.shape[0]
    covariates = np.empty((n, 0)) if covariates is None else np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[0] != n:
        raise DomainError(f"covariates have shape {covariates.shape}, expected ({n}, q)")
    cols = (predictor, *covariates.T)
    for j, col in enumerate(cols):
        require_finite("predictor" if j == 0 else f"covariate {j - 1}", col)
    if n < 1 + len(cols):
        raise DomainError(f"need at least as many rows as columns, got {n} < {1 + len(cols)}")
    X = np.empty((n, 1 + len(cols)), order="F")
    X[:, 0] = 1.0
    X[:, 1] = predictor
    X[:, 2:] = covariates
    with np.errstate(over="ignore"):  # a column that overflows is refused by the fit
        center = np.array([col.mean() for col in X.T[1:]])
    X[:, 1:] -= center
    return Design(X=X, center=center)


def _response(design: Design, y) -> np.ndarray:
    """The response as a checked float vector with one entry per design row."""
    y = np.asarray(y, dtype=float)
    if y.shape != design.X.shape[:1]:
        raise DomainError(f"response has shape {y.shape}, expected ({design.X.shape[0]},)")
    require_finite("response", y)
    return y


def fit_linear(design: Design, y) -> AssocEstimate:
    """Ordinary least squares; returns the predictor-of-interest coefficient.

    The standard error uses the classical unbiased residual variance
    RSS / (n - p). A perfectly collinear response (zero residuals) is
    reported with se = 0 and ``degenerate`` set, instead of failing.
    """
    X, y = design.X, _response(design, y)
    n, p = X.shape
    if n <= p:
        raise DomainError(f"need n > p for a residual variance estimate, got n={n}, p={p}")
    coef, cov = wls_solve(X, y)
    resid = y - X @ coef
    rss = float(resid @ resid)
    yty = float(y @ y)
    if rss <= _DEGENERATE_RSS_RTOL * max(yty, 1.0):
        return AssocEstimate(beta=float(coef[1]), se=0.0, n=n, degenerate=True)
    sigma2 = rss / (n - p)
    return AssocEstimate(beta=float(coef[1]), se=float(np.sqrt(sigma2 * cov[1, 1])), n=n)


def _deviance(eta: np.ndarray, y: np.ndarray, out=None) -> tuple[float, np.ndarray]:
    """The deviance 2 * sum[log(1 + e^eta) - y eta] and the fitted probabilities.

    Both are read from one exp pass, t = exp(-|eta|), which never
    overflows: log(1 + e^eta) = max(eta, 0) + log1p(t), the algorithm of
    numpy's ``logaddexp(0, eta)``, and the probability 1 / (1 + e^-eta) is
    1 / (1 + t) where eta >= 0 and t / (1 + t) where eta < 0. ``out``, a
    (3, n) array for n rows, lets a caller reuse its buffers: the
    probabilities are written into its first row and returned as that
    row, and the other two rows are overwritten.
    """
    prob, t, s = np.empty((3, eta.size)) if out is None else out
    np.abs(eta, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.copyto(prob, t)
    np.copyto(prob, 1.0, where=eta >= 0.0)
    prob /= np.add(t, 1.0, out=s)
    terms = np.log1p(t, out=t)
    terms += np.maximum(eta, 0.0, out=s)
    terms -= np.multiply(y, eta, out=s)
    return float(2.0 * terms.sum()), prob


def fit_logistic_detail(design: Design, y) -> LogisticFit:
    """Maximum-likelihood logistic fit by Newton's method (IRLS in Newton form).

    The fit runs on ``design``, whose predictor and covariate columns
    are centred at their means. For the canonical logit link the IRLS,
    Fisher-scoring and Newton iterates coincide, so each step is
    coef += (X'WX)^{-1} X'(y - p), with W = diag(p (1 - p)) floored at
    1e-10 and X'WX inverted by ``numerics.gram_inverse`` (its rank test
    included); no working response is formed. The fit starts from the
    intercept-only maximum, logit(mean y) at the column means with all
    slopes zero: the linear predictor is one number there, so its
    probabilities and its deviance come from that number and the count
    of ones, with no pass over the rows. A candidate step that increases
    the deviance is halved back toward the previous iterate.
    ``_deviance`` gives each candidate's deviance and probabilities from
    one exp pass over the rows, and the next step weights the rows by
    the probabilities of the accepted candidate, halved or not.
    Convergence is declared when no coefficient (the intercept taken at
    the column means) moves by more than 1e-10; such a step is taken
    without scoring its deviance, so ``deviance_trace`` ends at the last
    iterate whose deviance was evaluated, the one the final step started
    from. Divergence of the coefficients is treated as separation and
    raised as such; every accepted iterate is checked, the final one
    included. It is judged free of each column's location and scale: a
    slope times its column's standard deviation, or the linear predictor
    at the column means (the centred intercept), beyond 15 in absolute
    value. The returned ``coef`` and ``cov`` are those of the uncentred
    columns: ``coef[0]`` is the linear predictor at all-zero covariates,
    and ``cov`` is mapped to match. ``cov`` is (X'WX)^{-1} at the iterate
    the last step started from.
    """
    X, y = design.X, _response(design, y)
    n, p = X.shape
    # Counts, not a sort of y: every nonzero entry must be a 1.
    ones = int(np.count_nonzero(y == 1.0))
    if ones != np.count_nonzero(y):
        raise DomainError(f"logistic response must be coded 0/1, found values {np.unique(y)}")
    if ones in (0, n):
        raise EstimationError("logistic response has a single class; no fit possible")

    # Row buffers, written in place by every step: ``fitted`` holds the
    # deviance pass's probabilities and scratch, ``xtw`` the product X'W.
    # They are one allocation: freeing several large blocks at once can
    # make malloc hand the memory back to the system after every fit, and
    # each fit would then fault its pages in again.
    work = np.empty((6 + p, n))
    eta, w, resid = work[:3]
    fitted, xtw = work[3:6], work[6:]
    # The start, logit(mean y): the single-class check above keeps the
    # mean inside (0, 1). Its one linear predictor gives the probability
    # and the per-row deviance terms of ``_deviance``, with the same bits.
    ybar = ones / n
    coef = np.zeros(p)
    coef[0] = start = np.log(ybar / (1.0 - ybar))
    t = np.exp(-abs(start))
    prob = fitted[0]
    prob.fill((t if start < 0.0 else 1.0) / (1.0 + t))
    term = np.log1p(t) + max(start, 0.0)
    dev = float(2.0 * (ones * (term - start) + (n - ones) * term))
    trace = [dev]
    spread = None
    for iteration in range(1, _IRLS_MAX_ITER + 1):
        np.subtract(1.0, prob, out=w)
        w *= prob
        np.maximum(w, 1e-10, out=w)
        gram = np.multiply(X.T, w, out=xtw) @ X
        if spread is None:
            # Divergence is judged on coefficients per column sd and on the
            # intercept at the column means, so a covariate's units or offset
            # (age in years, say) cannot make a valid fit look separated. At
            # the start the weights are one constant, so the diagonal of X'WX
            # over it holds n times each centred column's variance.
            spread = np.sqrt(np.diag(gram)[1:] / (w[0] * n))
        cov = gram_inverse(gram)
        step = cov @ (X.T @ np.subtract(y, prob, out=resid))
        halvings = 0
        while (moved := float(np.abs(step).max())) >= _IRLS_TOL:
            new_dev, prob = _deviance(np.matmul(X, coef + step, out=eta), y, fitted)
            if not new_dev > dev + 1e-10:
                dev = new_dev
                trace.append(dev)
                break
            if halvings == 30:
                raise SeparationError(
                    "logistic deviance could not be decreased; data look separated"
                )
            step *= 0.5
            halvings += 1
        coef = coef + step
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
    uncentre[0, 1:] = -design.center
    return LogisticFit(
        coef=uncentre @ coef,
        cov=uncentre @ cov @ uncentre.T,
        deviance_trace=tuple(trace),
        iterations=iteration,
        n=n,
    )


def fit_logistic(design: Design, y) -> AssocEstimate:
    """Log-odds coefficient of the predictor of interest, with its SE.

    The standard error comes from the inverse observed information at the
    maximum (which equals the expected information for this model).
    """
    fit = fit_logistic_detail(design, y)
    return AssocEstimate(
        beta=float(fit.coef[1]), se=float(np.sqrt(fit.cov[1, 1])), n=fit.n
    )
