"""Reference computations made apart from ctxmr.

Nothing here imports the package under test. Per-context associations
come from closed-form simple regression, `numpy.linalg.lstsq` and a
Newton-Raphson logistic fit; tail probabilities from `scipy.special`.
The modified second-order Q and REML tau2 and slope are built on the
references of the acceptance criteria in tests/oracles.py: the grid
minimum `modified_q_grid_min` (5a) and the profile grid
`reml_profile_grid` (5b). Every function returns plain floats so results
can be stored as JSON.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import chdtrc, ndtr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import modified_q_grid_min, reml_profile_grid  # noqa: E402

#: Tolerances of the acceptance criteria 5a (modified Q against a grid
#: minimum), 5b (REML tau2 and slope against a profile grid) and 5c
#: (chi-square tail against an independent evaluation).
TOL_Q2 = 1e-6
TOL_TAU2 = 1e-4
TOL_SLOPE = 1e-6
TOL_P = 1e-8

#: Nested grids of the modified Q minimum, and points in each.
Q2_GRIDS = 3
Q2_GRID_STEPS = 10_001
#: Points of the first REML profile grid over [0, hi]; reml_profile_grid
#: then refines twice around its maximum.
REML_GRID_STEPS = 401


def chi2_sf(q: float, df: int) -> float:
    return float(chdtrc(df, q))


def chi2_pdf(q: float, df: int) -> float:
    a = df / 2.0
    if q <= 0.0:
        return 0.5 if df == 2 else 0.0
    return math.exp((a - 1.0) * math.log(q) - q / 2.0 - a * math.log(2.0) - math.lgamma(a))


def two_sided_normal_p(z: float) -> float:
    return float(2.0 * ndtr(-abs(z)))


def simple_ols(g: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope of y on g with an intercept, and its classical standard error."""
    gc = g - g.mean()
    sxx = float(gc @ gc)
    beta = float(gc @ (y - y.mean())) / sxx
    resid = (y - y.mean()) - beta * gc
    sigma2 = float(resid @ resid) / (g.size - 2)
    return beta, math.sqrt(sigma2 / sxx)


def ols_coef(X: np.ndarray, y: np.ndarray, j: int = 1) -> tuple[float, float]:
    """Coefficient j of a least-squares fit (SVD solver) and its classical se."""
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    sigma2 = float(resid @ resid) / (X.shape[0] - X.shape[1])
    cov = np.linalg.inv(X.T @ X)
    return float(coef[j]), math.sqrt(sigma2 * cov[j, j])


def logistic_coef(X: np.ndarray, y: np.ndarray, j: int = 1) -> tuple[float, float]:
    """Coefficient j of a Newton-Raphson logistic fit and its se.

    Columns other than the intercept should be centred by the caller;
    that changes only the intercept, and keeps the iteration well scaled.
    """
    coef = np.zeros(X.shape[1])
    for _ in range(100):
        prob = 1.0 / (1.0 + np.exp(-(X @ coef)))
        info = X.T @ (X * (prob * (1.0 - prob))[:, None])
        step = np.linalg.solve(info, X.T @ (y - prob))
        coef = coef + step
        if np.abs(step).max() < 1e-13:
            break
    else:
        raise RuntimeError("reference Newton-Raphson did not converge")
    prob = 1.0 / (1.0 + np.exp(-(X @ coef)))
    info = X.T @ (X * (prob * (1.0 - prob))[:, None])
    return float(coef[j]), math.sqrt(np.linalg.inv(info)[j, j])


def q_first(bx, by, by_se) -> tuple[float, float]:
    """First-order Cochran's Q at the IVW estimate, and that estimate."""
    w = by_se**-2.0
    beta = float(np.sum(by * bx * w) / np.sum(bx * bx * w))
    return float(np.sum((by - beta * bx) ** 2 * w)), beta


def q_modified_grid(bx, bx_se, by, by_se) -> tuple[float, float]:
    """Modified second-order Q as a dense-grid minimum over the pooled value.

    The first grid spans the ratio estimates and their range again on each
    side, so it finds the global basin; each later grid covers two steps
    either side of the last minimum.
    """
    ratios = by / bx
    span = float(ratios.max() - ratios.min()) + 1e-3 * (1.0 + float(np.abs(ratios).max()))
    lo, hi = float(ratios.min()) - span, float(ratios.max()) + span
    for _ in range(Q2_GRIDS):
        beta, q = modified_q_grid_min(bx, bx_se, by, by_se, lo, hi, steps=Q2_GRID_STEPS)
        step = (hi - lo) / (Q2_GRID_STEPS - 1)
        lo, hi = beta - 2.0 * step, beta + 2.0 * step
    return q, beta


def reml_trend(estimates, variances, means) -> dict:
    """REML meta-regression of estimates on means, from the profile grid.

    Returns tau2, slope, its GLS standard error at that tau2 and the
    two-sided p-value.
    """
    y, v, x = (np.asarray(a, dtype=float) for a in (estimates, variances, means))
    # As in criterion 5b, plus the largest variance so the grid never
    # collapses on under-dispersed estimates.
    hi = 10.0 * float(np.var(y)) + 10.0 * float(v.max())
    tau2, slope = reml_profile_grid(y, v, x, hi=hi, step=hi / (REML_GRID_STEPS - 1))
    X = np.column_stack([np.ones_like(x), x])
    se = math.sqrt(np.linalg.inv(X.T @ (X / (v + tau2)[:, None]))[1, 1])
    return {"tau2": tau2, "slope": slope, "slope_se": se,
            "p": two_sided_normal_p(slope / se)}


def summary_reference(bx, bx_se, by, by_se, means, scale: float) -> dict:
    """Both Q tests and the REML trend test for one set of context summaries."""
    bx, bx_se, by, by_se = (np.asarray(a, dtype=float) for a in (bx, bx_se, by, by_se))
    k = bx.size
    q1, _ = q_first(bx, by, by_se)
    q2, beta2 = q_modified_grid(bx, bx_se, scale * by, scale * by_se)
    ratio = scale * by / bx
    ratio_var = (scale * by_se / bx) ** 2
    trend = reml_trend(ratio, ratio_var, means)
    return {
        "k": k,
        "q1": q1, "p1": chi2_sf(q1, k - 1), "pdf1": chi2_pdf(q1, k - 1),
        "q2": q2, "p2": chi2_sf(q2, k - 1), "pdf2": chi2_pdf(q2, k - 1),
        "pooled2": beta2,
        "trend": trend,
        "trend_pdf": float(math.exp(-0.5 * (trend["slope"] / trend["slope_se"]) ** 2)
                           / math.sqrt(2.0 * math.pi)),
    }


def p_tolerances(ref: dict) -> tuple[float, float, float]:
    """Allowed p-value differences, propagated from the Q, Q2 and slope tolerances."""
    tol1 = TOL_P + ref["pdf1"] * 1e-9 * max(1.0, ref["q1"])
    tol2 = TOL_P + ref["pdf2"] * TOL_Q2
    tol3 = TOL_P + 2.0 * ref["trend_pdf"] * TOL_SLOPE / ref["trend"]["slope_se"]
    return tol1, tol2, tol3
