"""Cochran's Q across context-specific estimates, two weighting schemes.

Writing r_k = by_k / bx_k for the per-context ratio estimates, both tests
compare a weighted sum of squared deviations from a pooled value against
a chi-square with K - 1 degrees of freedom:

* first-order weights: Q = sum_k (r_k - b_ivw)^2 (se(by_k)/bx_k)^{-2},
  with b_ivw = sum_k by_k bx_k se(by_k)^-2 / sum_k bx_k^2 se(by_k)^-2
  the inverse-variance weighted pooled estimate. Fast and
  simple, but over-rejects under homogeneity because it ignores the
  sampling error of bx_k.

* modified second-order weights: the per-context variance becomes
  v_k(b) = (se(by_k)^2 + b^2 se(bx_k)^2) / bx_k^2, which depends on the
  pooled value b itself, and Q is the minimum over b of the resulting
  sum (Bowden et al. 2019, IJE). Q(b) can have several local minima,
  and the global one can lie outside the range of the ratio estimates,
  so one solver does both jobs: a scan of the whole real line picks the
  basin, and a safeguarded Newton iteration on dQ/db finds its minimum.

Both tests read their inputs from the columns of one ``ContextTable``,
with the outcome side per the table's ``scale`` exposure units. Both
statistics are computed in the numerically safe "radial" form
(by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2), which avoids dividing
by small bx_k (the table refuses a zero one). The first-order test's
``pooled_beta`` is the package's one IVW estimate, with first-order
weights (Burgess, Butterworth & Thompson 2013), taken as the weighted
mean of the ratios so that it stays within their range. A statistic that
overflows raises ``EstimationError``.

Each test has a stacked form over a list of tables (``*_lanes``), which
returns per table its result or the error it raises, and runs the tables
with equally many rows in lockstep. The one-table functions are its
one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, lane_result, one_lane
from .ivcore import ContextTable
from .numerics import chi_square_sf, lane_groups, refine_scan

#: The modified-Q scan evaluates Q(b) at b = c + h tan(phi), for this many
#: angles phi spaced uniformly inside (-pi/2, pi/2), c and h being the
#: centre and half-width of the range of the ratio estimates. The middle
#: angle is 0 (b = c); the outermost reach c +- 81.5 h.
_SCAN_ANGLES = 255
_SCAN_TAN = np.tan(np.linspace(-0.5 * np.pi, 0.5 * np.pi, _SCAN_ANGLES + 2)[1:-1])

FIRST_ORDER = "first_order"
MODIFIED_SECOND_ORDER = "modified_second_order"


@dataclass(frozen=True)
class HeterogeneityResult:
    scheme: str
    q: float
    df: int
    p: float
    pooled_beta: float
    iterations: int


def _lanes(tables, outcomes):
    """The ``numerics.lane_groups`` of the tables' bx, se(bx), by and se(by) (per ``scale``).

    A table of fewer than 2 rows gets its ConfigError in ``outcomes`` and no lane.
    """
    lanes = {}
    for lane, table in enumerate(tables):
        if len(table) < 2:
            outcomes[lane] = ConfigError(f"heterogeneity needs >= 2 contexts, got {len(table)}")
        else:
            lanes[lane] = table.bx, table.bx_se, *table.outcome()
    return lane_groups(lanes)


def _result(scheme, q, pooled_beta, iterations, k) -> HeterogeneityResult:
    q = float(q)
    if not math.isfinite(q):
        raise EstimationError(
            f"{scheme} Q statistic is {q}: the estimates are too extreme to test"
        )
    return HeterogeneityResult(
        scheme=scheme,
        q=q,
        df=k - 1,
        p=chi_square_sf(q, k - 1),
        pooled_beta=float(pooled_beta),
        iterations=int(iterations),
    )


def q_first_order_lanes(tables) -> list:
    """``q_first_order`` of each table: its result, or the CtxMRError it raises.

    A weight sum or IVW estimate out of the float range, as outcome
    standard errors scaled beyond it give, is an EstimationError.
    """
    outcomes = [None] * len(tables)
    for lanes, (bx, _, by, by_se) in _lanes(tables, outcomes):
        # A failing lane has a zero se(by) or worse: its division by zero
        # is not a warning, and its q is not used.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # b_ivw as the weighted mean of the ratios, weights bx^2 se(by)^-2,
            # taken on the ratios over their largest magnitude: a product
            # such as by·bx·w would underflow for a subnormal by, and put
            # the estimate outside the range of the ratios.
            weight = bx * bx * by_se**-2.0
            ratio = by / bx
            top = np.abs(ratio).max(axis=-1)
            top = np.where(top > 0.0, top, 1.0)
            denom = np.sum(weight, axis=-1)
            beta = np.where((0.0 < denom) & (denom < math.inf),
                            top * (np.sum(weight * (ratio / top[:, None]), axis=-1) / denom),
                            math.nan)
            q = np.sum((by - beta[:, None] * bx) ** 2 / by_se**2, axis=-1)
        for lane, b, d, q_lane in zip(lanes, beta.tolist(), denom.tolist(), q):
            if math.isfinite(b):
                outcomes[lane] = lane_result(_result, FIRST_ORDER, q_lane, b, 1, bx.shape[1])
            else:
                outcomes[lane] = EstimationError(
                    f"IVW pooled estimate is {b} (weight sum {d:g}): the outcome "
                    "associations or their standard errors are too extreme to pool"
                )
    return outcomes


def q_first_order(table: ContextTable) -> HeterogeneityResult:
    """Cochran's Q with first-order weights, evaluated at the IVW estimate ``pooled_beta``."""
    return one_lane(q_first_order_lanes([table]))


def q_modified_second_order_lanes(tables) -> list:
    """``q_modified_second_order`` of each table: its result, or the CtxMRError it raises.

    The tables with equally many rows run in lockstep: one scan over
    (tables, points, rows) and one ``numerics.refine_scan`` call, a lane
    per table.
    """
    outcomes = [None] * len(tables)
    for lanes, (bx, bx_se, by, by_se) in _lanes(tables, outcomes):
        def q_at(b):
            """Q at the points b of shape (C, P), one row of points per lane."""
            b = b[..., None]
            return np.sum((by[:, None] - b * bx[:, None]) ** 2
                          / (by_var[:, None] + b * b * bx_var[:, None]), axis=-1)

        def derivatives(b):
            b = b[:, None]
            resid = by - b * bx
            denom = by_var + b * b * bx_var
            t = b * bx_var * resid / denom
            return (-2.0 * np.sum(resid * (bx + t) / denom, axis=-1),
                    2.0 * np.sum(((bx + 2.0 * t) ** 2 - bx_var * resid**2 / denom) / denom,
                                 axis=-1))

        with np.errstate(over="ignore", invalid="ignore"):
            by_var = by_se**2
            bx_var = bx_se**2
            ratios = by / bx
            top, bottom = ratios.max(axis=-1), ratios.min(axis=-1)
            centre = 0.5 * (top + bottom)
            half_width = 0.5 * (top - bottom)
            half_width = np.where(half_width != 0.0, half_width,
                                  np.where(centre != 0.0, np.abs(centre), 1.0))
            grid = centre[:, None] + half_width[:, None] * _SCAN_TAN
            beta, iterations = refine_scan(derivatives, grid, q_at(grid))
            q = q_at(beta[:, None])[:, 0]
        for j, lane in enumerate(lanes):
            outcomes[lane] = lane_result(_result, MODIFIED_SECOND_ORDER, q[j], beta[j],
                                         iterations[j], bx.shape[1])
    return outcomes


def q_modified_second_order(table: ContextTable) -> HeterogeneityResult:
    """Cochran's Q with modified second-order weights.

    Q is the global minimum over b of
    Q(b) = sum_k (by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2),
    and ``pooled_beta`` the b where it is attained. Q(b) is first
    evaluated on the whole-line scan described at ``_SCAN_ANGLES``;
    ``numerics.refine_scan`` then refines the best scan point by Newton
    steps on dQ/db, with analytic first and second derivatives, inside
    the bracket of its two scan neighbours; ``iterations`` counts its
    Newton and bisection steps. The scan is covariant under a common
    scaling of by and se(by), so Q is invariant to it. When every
    se(bx_k) is zero, Q(b) is the first-order quadratic and the result
    equals the first-order version.
    """
    return one_lane(q_modified_second_order_lanes([table]))
