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
  and the package's one 1-D refinement of a scan, ``numerics.refine_scan``;
* ``dl``: the DerSimonian-Laird moment estimator generalized to a
  regression design, max(0, (Q_res - (K - 2)) / tr(P));
* ``fixed``: tau2 = 0.

``meta_regress`` takes the estimates, their variances and the means as
arrays; ``trend_test`` takes them from the columns of a ``ContextTable``.
Both are the one-lane case of a stacked form (``meta_regress_lanes``,
``trend_test_lanes``), which returns per lane its result or the error it
raises. Its lanes with equally many contexts run in lockstep, every fit
and sum along the last axis of a (lanes, ..., contexts) array, and every
dot product ``numerics.row_dot``, one BLAS dot per lane and point, so
that a lane's numbers equal its one-lane numbers to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CtxMRError, DomainError, EstimationError, lane_result, one_lane
from .numerics import lane_groups, normal_sf, refine_scan, row_dot

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
    if x.max() == x.min():  # np.ptp overflows for means of opposite sign near the limit
        raise ConfigError("all context means are equal; the trend design is collinear")
    return y, v, x


def _gls(tau2, y, v, x):
    """GLS fits of y on [1, x] with weights w = 1 / (v + tau2), in closed form.

    y, v and x have shape (C, K), a lane per row; ``tau2`` has shape
    (C, G), G values per lane. Per lane and tau2, x and y are centred at
    their weighted means, so X'WX is the diagonal diag(s0, s2) with
    s0 = sum(w) and s2 = sum(w xc^2). Returns (w, xc, r) of shape
    (C, G, K), r being the residuals, and (slope, s2) of shape (C, G).
    """
    w = 1.0 / (v[:, None] + tau2[..., None])
    s0 = w.sum(axis=-1)
    xc = x[:, None] - ((w @ x[..., None])[..., 0] / s0)[..., None]
    yc = y[:, None] - ((w @ y[..., None])[..., 0] / s0)[..., None]
    s2 = (w * xc * xc).sum(axis=-1)
    slope = (w * xc * yc).sum(axis=-1) / s2
    return w, xc, yc - slope[..., None] * xc, slope, s2


def _projection(w, xc, s2):
    """(a, b, a'a, b'b, tr P) with P = W - WX(X'WX)^{-1}X'W = W - a a' - b b'."""
    s0 = w.sum(axis=-1)
    a, b = w / np.sqrt(s0)[..., None], w * xc / np.sqrt(s2)[..., None]
    aa, bb = row_dot(a, a), row_dot(b, b)
    return a, b, aa, bb, s0 - aa - bb


def _dl_tau2(y, v, x, k):
    w, xc, r, _, s2 = _gls(np.zeros((len(y), 1)), y, v, x)
    tau2 = ((row_dot(w, r * r) - (k - 2)) / _projection(w, xc, s2)[-1])[:, 0]
    return np.where(tau2 > 0.0, tau2, 0.0)


def _reml_tau2(y, v, x, k):
    """Maximize the restricted likelihood over tau2 >= 0, lane by lane.

    Minus the restricted log-likelihood is, up to a constant,
    f = [sum log(v + tau2) + log s0 + log s2 + sum w r^2] / 2. With
    u = W r = P y and dP/dtau2 = -P^2 its derivatives are

        f' = (tr P - u'u) / 2,    f'' = u'P u - tr(P^2) / 2,

    where u'P u = u'W u - (a'u)^2 - (b'u)^2 and tr(P^2) = w'w - 2 (a'W a +
    b'W b) + (a'a)^2 + (b'b)^2 + 2 (a'b)^2, each square a product.

    Every root of f' lies below RSS / (K - 2) + max v, RSS being the
    unweighted OLS residual sum of squares, because tr P >= (K - 2) /
    (max v + tau2) and u'u <= RSS / (min v + tau2)^2. f is scanned at
    ``_REML_SCAN`` points of [0, that bound], and ``numerics.refine_scan``
    refines the best point between its scan neighbours; the lanes run in
    lockstep. Returns (tau2, steps, finite), finite being false for a
    lane whose criterion is not finite on the scan, as variances far
    outside the float range make it.
    """

    def f(tau2):
        w, _, r, _, s2 = _gls(tau2, y, v, x)
        return 0.5 * (np.log(w.sum(axis=-1)) + np.log(s2) - np.log(w).sum(axis=-1)
                      + (w * r * r).sum(axis=-1))

    def derivatives(tau2):
        w, xc, r, _, s2 = _gls(tau2[:, None], y, v, x)
        a, b, aa, bb, tr_p = _projection(w, xc, s2)
        u = w * r
        ab, au, bu = row_dot(a, b), row_dot(a, u), row_dot(b, u)
        tr_p2 = (row_dot(w, w) - 2.0 * (row_dot(a, w * a) + row_dot(b, w * b))
                 + aa * aa + bb * bb + 2.0 * ab * ab)
        d2 = row_dot(u, w * u) - au * au - bu * bu - 0.5 * tr_p2
        return 0.5 * (tr_p - row_dot(u, u))[:, 0], d2[:, 0]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_ols = _gls(np.zeros((len(y), 1)), y, np.ones_like(v), x)[2][:, 0]
        grid = (row_dot(r_ols, r_ols) / (k - 2) + v.max(axis=-1))[:, None] * _REML_SCAN
        criterion = f(grid)
        tau2, steps = refine_scan(derivatives, grid, criterion)
    return tau2, steps, np.isfinite(criterion).all(axis=-1)


def _result(intercept, slope, slope_se, tau2, method, k, iterations) -> MetaRegResult:
    slope, slope_se = float(slope), float(slope_se)
    if not 0.0 < slope_se < math.inf:
        raise EstimationError(
            f"trend slope standard error is {slope_se}: the context means or "
            "estimates are too extreme to fit"
        )
    z = abs(slope) / slope_se
    if not math.isfinite(z):
        raise EstimationError(
            f"trend slope is {slope} (z = {z}): the context means or estimates "
            "are too extreme to fit"
        )
    return MetaRegResult(
        intercept=float(intercept),
        slope=slope,
        slope_se=slope_se,
        tau2=float(tau2),
        slope_p=2.0 * normal_sf(z),
        tau2_method=method,
        k=k,
        iterations=int(iterations),
    )


def meta_regress_lanes(estimates, variances, means, method: str = "reml") -> list:
    """``meta_regress`` of each lane: its result, or the CtxMRError it raises.

    Lane j is (estimates[j], variances[j], means[j]). The lanes with
    equally many contexts run in lockstep: one REML scan over (lanes,
    points, contexts) and one ``refine_scan`` call.
    """
    if method not in TAU2_METHODS:
        raise ConfigError(f"unknown tau2 method {method!r}; choose from {TAU2_METHODS}")
    outcomes = [None] * len(estimates)
    lanes = {}
    for lane, columns in enumerate(zip(estimates, variances, means)):
        checked = lane_result(_validate, *columns)
        if isinstance(checked, CtxMRError):
            outcomes[lane] = checked
        else:
            lanes[lane] = checked
    for ids, (y, v, x) in lane_groups(lanes):
        ids, k = np.asarray(ids), y.shape[1]
        iterations = np.zeros(len(ids), dtype=int)
        ok = np.ones(len(ids), dtype=bool)
        if method == "fixed":
            tau2 = np.zeros(len(ids))
        elif method == "dl":
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                tau2, iterations = _dl_tau2(y, v, x, k), iterations + 1
        else:
            # REML runs on y and v scaled by powers of two that bring max v near
            # 1, so that w @ w and the other sums of its derivatives stay in the
            # float range even for variances near its ends. The scaling is
            # exact: at ordinary scales tau2 is the same to the last bit.
            # A y near the float limit may overflow when v is tiny; its lane's
            # criterion is then not finite, and the lane is refused below.
            e = np.frexp(v.max(axis=-1))[1] // 2
            with np.errstate(over="ignore"):
                y_scaled, v_scaled = np.ldexp(y, -e[:, None]), np.ldexp(v, -2 * e[:, None])
            tau2, iterations, ok = _reml_tau2(y_scaled, v_scaled, x, k)
            with np.errstate(over="ignore"):
                tau2 = np.ldexp(tau2, 2 * e)
            for lane in ids[~ok]:
                outcomes[lane] = EstimationError(
                    "REML criterion is not finite: the estimates or their variances "
                    "are too extreme to fit"
                )
        if not ok.all():
            ids, y, v, x, tau2, iterations = (a[ok] for a in (ids, y, v, x, tau2, iterations))
        # Means near the float limit overflow the fit; ``_result`` refuses its lane.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w, _, _, slope, s2 = _gls(tau2[:, None], y, v, x)
            intercept = row_dot(w, (y - slope * x)[:, None]) / w.sum(axis=-1)
            slope_se = 1.0 / np.sqrt(s2)
        for j, lane in enumerate(ids):
            outcomes[lane] = lane_result(_result, intercept[j, 0], slope[j, 0],
                                         slope_se[j, 0], tau2[j], method, k, iterations[j])
    return outcomes


def meta_regress(estimates, variances, means, method: str = "reml") -> MetaRegResult:
    """Weighted regression of context estimates on context mean exposure.

    ``variances`` are the within-context sampling variances of the
    estimates (first-order, unless the caller chose otherwise). The
    returned covariance of the coefficients is the GLS one, (X'WX)^{-1},
    with no residual rescaling. ``iterations`` counts the REML Newton and
    bisection steps (1 for DL, 0 for fixed).
    """
    return one_lane(meta_regress_lanes([estimates], [variances], [means], method))


def trend_test_lanes(tables, method: str = "reml") -> list:
    """``trend_test`` of each ``ContextTable``: its result, or the CtxMRError it raises.

    A table with a finite ratio se whose square is beyond the float
    range gets an EstimationError.
    """
    with np.errstate(over="ignore"):
        variances = [t.ratio_se**2 for t in tables]
    outcomes = meta_regress_lanes([t.ratio for t in tables], variances,
                                  [t.xmean for t in tables], method)
    for lane, (table, v) in enumerate(zip(tables, variances)):
        overflow = np.isinf(v) & np.isfinite(table.ratio_se)
        if overflow.any():
            outcomes[lane] = EstimationError(
                f"ratio se {table.ratio_se[overflow][0]:g} squares beyond the float "
                "range: the standard errors are too extreme to fit"
            )
    return outcomes


def trend_test(table, method: str = "reml") -> MetaRegResult:
    """Meta-regression of a ``ContextTable``'s ratio estimates on its mean exposures.

    The within-context variances are the first-order ones, matching the
    pooled IVW weighting; the slope is per the table's ``scale`` units.
    """
    return one_lane(trend_test_lanes([table], method))
