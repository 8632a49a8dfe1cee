"""Random-effects meta-regression of context estimates on mean exposure.

The model is

    estimate_k = intercept + slope * mean_k + u_k + e_k,
    Var(e_k) = v_k (known),  Var(u_k) = tau2 (estimated),

fit by weighted least squares with weights 1 / (v_k + tau2). The slope
p-value is the two-sided z-test 2 * normal_sf(|slope / se|). Every fit is
closed form: with the means and estimates centred at their weighted
means, X'WX is diagonal. Three between-context variance estimators are
available:

* ``reml``: restricted maximum likelihood (the default, matching standard
  meta-regression software), found by a scan of the restricted likelihood
  and the package's one 1-D refinement, ``numerics.newton_in_bracket``;
* ``dl``: the DerSimonian-Laird moment estimator generalized to a
  regression design, max(0, (Q_res - (K - 2)) / tr(P));
* ``fixed``: tau2 = 0.

``meta_regress`` takes the estimates, their variances and the means as
arrays; ``trend_test`` takes them from the columns of a ``ContextTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EstimationError
from .numerics import newton_in_bracket, normal_sf

# Not called here: the benchmark's tracer wraps these names where this
# module would look them up. Drop them with the next benchmark change.
from .heterogeneity import q_modified_second_order  # noqa: F401
from .numerics import wls_solve  # noqa: F401

#: REML scan points as fractions of the bound on tau2, denser near 0.
_REML_SCAN = np.linspace(0.0, 1.0, 64) ** 2

TAU2_METHODS = ("reml", "dl", "fixed")


@dataclass(frozen=True)
class MetaRegResult:
    intercept: float
    slope: float
    slope_se: float
    tau2: float
    slope_p: float
    tau2_method: str
    k: int
    iterations: int = 0


def _validate(estimates, variances, means):
    y = np.asarray(estimates, dtype=float)
    v = np.asarray(variances, dtype=float)
    x = np.asarray(means, dtype=float)
    if not (y.shape == v.shape == x.shape) or y.ndim != 1:
        raise DomainError("estimates, variances and means must be equal-length vectors")
    k = y.size
    if k < 3:
        raise ConfigError(
            f"meta-regression needs >= 3 contexts (two coefficients plus a "
            f"residual degree of freedom), got {k}"
        )
    if not np.isfinite(y).all() or not np.isfinite(x).all():
        raise DomainError("estimates and means must be finite")
    if not np.isfinite(v).all() or (v <= 0).any():
        raise DomainError("variances must be finite and > 0")
    if np.ptp(x) == 0.0:
        raise ConfigError("all context means are equal; the trend design is collinear")
    return y, v, x, k


def _gls(tau2, y, v, x):
    """GLS fit of y on [1, x] with weights w = 1 / (v + tau2), in closed form.

    x and y are centred at their weighted means, so X'WX is the diagonal
    diag(s0, s2) with s0 = sum(w) and s2 = sum(w xc^2). ``tau2`` may be an
    array; the contexts then lie on the last axis. Returns
    (w, xc, r, slope, s2), r being the residuals.
    """
    w = 1.0 / (v + np.asarray(tau2)[..., None])
    s0 = w.sum(axis=-1)
    xc = x - (w @ x / s0)[..., None]
    yc = y - (w @ y / s0)[..., None]
    s2 = (w * xc * xc).sum(axis=-1)
    slope = (w * xc * yc).sum(axis=-1) / s2
    return w, xc, yc - slope[..., None] * xc, slope, s2


def _projection(w, xc, s2):
    """(a, b, tr P) with P = W - WX(X'WX)^{-1}X'W = W - a a' - b b'."""
    s0 = w.sum()
    a, b = w / np.sqrt(s0), w * xc / np.sqrt(s2)
    return a, b, s0 - a @ a - b @ b


def _dl_tau2(y, v, x, k):
    w, xc, r, _, s2 = _gls(0.0, y, v, x)
    return max(0.0, (w @ (r * r) - (k - 2)) / _projection(w, xc, s2)[2])


def _reml_tau2(y, v, x, k):
    """Maximize the restricted likelihood over tau2 >= 0.

    Minus the restricted log-likelihood is, up to a constant,
    f = [sum log(v + tau2) + log s0 + log s2 + sum w r^2] / 2. With
    u = W r = P y and dP/dtau2 = -P^2 its derivatives are

        f' = (tr P - u'u) / 2,    f'' = u'P u - tr(P^2) / 2.

    Every root of f' lies below RSS / (K - 2) + max v, RSS being the
    unweighted OLS residual sum of squares, because tr P >= (K - 2) /
    (max v + tau2) and u'u <= RSS / (min v + tau2)^2. f is scanned at
    ``_REML_SCAN`` points of [0, that bound], and the best point refined
    by ``numerics.newton_in_bracket`` between its scan neighbours. A
    criterion that is not finite on the scan, as variances far outside
    the float range make it, raises EstimationError. Returns (tau2, steps).
    """

    def f(tau2):
        w, _, r, _, s2 = _gls(tau2, y, v, x)
        return 0.5 * (np.log(w.sum(axis=-1)) + np.log(s2) - np.log(w).sum(axis=-1)
                      + (w * r * r).sum(axis=-1))

    def derivatives(tau2):
        w, xc, r, _, s2 = _gls(tau2, y, v, x)
        a, b, tr_p = _projection(w, xc, s2)
        u = w * r
        tr_p2 = (w @ w - 2.0 * (a @ (w * a) + b @ (w * b))
                 + (a @ a) ** 2 + (b @ b) ** 2 + 2.0 * (a @ b) ** 2)
        return 0.5 * (tr_p - u @ u), u @ (w * u) - (a @ u) ** 2 - (b @ u) ** 2 - 0.5 * tr_p2

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_ols = _gls(0.0, y, np.ones(k), x)[2]
        grid = (r_ols @ r_ols / (k - 2) + v.max()) * _REML_SCAN
        criterion = f(grid)
        if not np.isfinite(criterion).all():
            raise EstimationError(
                "REML criterion is not finite: the estimates or their variances "
                "are too extreme to fit"
            )
        i = int(np.argmin(criterion))
        return newton_in_bracket(derivatives, grid[max(i - 1, 0)],
                                 grid[min(i + 1, grid.size - 1)], grid[i])


def meta_regress(estimates, variances, means, method: str = "reml") -> MetaRegResult:
    """Weighted regression of context estimates on context mean exposure.

    ``variances`` are the within-context sampling variances of the
    estimates (first-order, unless the caller chose otherwise). The
    returned covariance of the coefficients is the GLS one, (X'WX)^{-1},
    with no residual rescaling. ``iterations`` counts the REML Newton and
    bisection steps (1 for DL, 0 for fixed).
    """
    if method not in TAU2_METHODS:
        raise ConfigError(f"unknown tau2 method {method!r}; choose from {TAU2_METHODS}")
    y, v, x, k = _validate(estimates, variances, means)
    iterations = 0
    if method == "fixed":
        tau2 = 0.0
    elif method == "dl":
        tau2, iterations = _dl_tau2(y, v, x, k), 1
    else:
        # REML runs on y and v scaled by powers of two that bring max v near
        # 1, so that w @ w and the other sums of its derivatives stay in the
        # float range even for variances near its ends. The scaling is
        # exact: at ordinary scales tau2 is the same to the last bit.
        e = math.frexp(v.max())[1] // 2
        tau2, iterations = _reml_tau2(np.ldexp(y, -e), np.ldexp(v, -2 * e), x, k)
        tau2 = math.ldexp(tau2, 2 * e)
    w, _, _, slope, s2 = _gls(tau2, y, v, x)
    slope, slope_se = float(slope), float(1.0 / np.sqrt(s2))
    return MetaRegResult(
        intercept=float(w @ (y - slope * x) / w.sum()),
        slope=slope,
        slope_se=slope_se,
        tau2=float(tau2),
        slope_p=2.0 * normal_sf(abs(slope) / slope_se),
        tau2_method=method,
        k=k,
        iterations=iterations,
    )


def trend_test(table, method: str = "reml") -> MetaRegResult:
    """Meta-regression of a ``ContextTable``'s ratio estimates on its mean exposures.

    The within-context variances are the first-order ones, matching the
    pooled IVW weighting; the slope is per the table's ``scale`` units.
    """
    return meta_regress(table.ratio, table.ratio_se**2, table.xmean, method=method)
