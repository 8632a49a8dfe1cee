"""Cochran's Q across context-specific estimates, two weighting schemes.

Writing r_k = by_k / bx_k for the per-context ratio estimates, both tests
compare a weighted sum of squared deviations from a pooled value against
a chi-square with K - 1 degrees of freedom:

* first-order weights: Q = sum_k (r_k - b_ivw)^2 (se(by_k)/bx_k)^{-2},
  with b_ivw the inverse-variance weighted pooled estimate. Fast and
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
by small bx_k. Contexts whose bx is indistinguishable from zero are
masked out (and named in the result) and the degrees of freedom reduced.
A statistic that overflows raises ``EstimationError``.

Each test has a stacked form over a list of tables (``*_lanes``), which
returns per table its result or the error it raises, and runs the tables
whose usable rows are equally many in lockstep. The one-table functions
are its one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, lane_result, one_lane
from .ivcore import INSTRUMENT_FLOOR, ContextTable, ivw_sums, pooled_beta
from .numerics import chi_square_sf, lane_groups, newton_in_bracket

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
    excluded: tuple[str, ...] = ()


def _usable(table: ContextTable) -> np.ndarray:
    """Mask of the contexts whose bx is distinguishable from zero; at least 2 must be."""
    keep = np.abs(table.bx) >= INSTRUMENT_FLOOR
    kept = int(np.count_nonzero(keep))
    if kept < 2:
        raise ConfigError(
            f"heterogeneity needs >= 2 usable contexts, got {kept} "
            f"({len(table) - kept} excluded for zero instrument association)"
        )
    return keep


def _usable_lanes(tables, outcomes):
    """Each table's usable-row mask, and its usable rows stacked by their count.

    Returns the masks by lane and the groups of ``numerics.lane_groups``,
    with the columns bx, se(bx), by and se(by), the outcome side per the
    table's ``scale``. A table with fewer than 2 usable rows gets its
    ConfigError in ``outcomes`` and no lane.
    """
    keeps, lanes = {}, {}
    for lane, table in enumerate(tables):
        keep = lane_result(_usable, table)
        if isinstance(keep, ConfigError):
            outcomes[lane] = keep
            continue
        by, by_se = table.outcome()
        keeps[lane] = keep
        lanes[lane] = table.bx[keep], table.bx_se[keep], by[keep], by_se[keep]
    return keeps, lane_groups(lanes)


def _result(scheme, q, pooled_beta, iterations, table, keep) -> HeterogeneityResult:
    q = float(q)
    if not math.isfinite(q):
        raise EstimationError(
            f"{scheme} Q statistic is {q}: the estimates are too extreme to test"
        )
    df = int(np.count_nonzero(keep)) - 1
    return HeterogeneityResult(
        scheme=scheme,
        q=q,
        df=df,
        p=chi_square_sf(q, df),
        pooled_beta=float(pooled_beta),
        iterations=int(iterations),
        excluded=tuple(table.labels[~keep].tolist()),
    )


def q_first_order_lanes(tables) -> list:
    """``q_first_order`` of each table: its result, or the CtxMRError it raises."""
    outcomes = [None] * len(tables)
    keeps, groups = _usable_lanes(tables, outcomes)
    for lanes, (bx, _, by, by_se) in groups:
        numer, denom = ivw_sums(bx, by, by_se)
        betas = [lane_result(pooled_beta, float(n), float(d)) for n, d in zip(numer, denom)]
        beta = np.array([b if isinstance(b, float) else math.nan for b in betas])
        # A lane whose pooled estimate failed has a zero se(by) or worse:
        # its q is not used, and its division by zero is not a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = np.sum((by - beta[:, None] * bx) ** 2 / by_se**2, axis=-1)
        for lane, b, q_lane in zip(lanes, betas, q):
            if isinstance(b, EstimationError):
                outcomes[lane] = b
            else:
                outcomes[lane] = lane_result(_result, FIRST_ORDER, q_lane, b, 1, tables[lane],
                                             keeps[lane])
    return outcomes


def q_first_order(table: ContextTable) -> HeterogeneityResult:
    """Cochran's Q with first-order weights, evaluated at the IVW estimate."""
    return one_lane(q_first_order_lanes([table]))


def q_modified_second_order_lanes(tables) -> list:
    """``q_modified_second_order`` of each table: its result, or the CtxMRError it raises.

    The tables whose usable rows are equally many run in lockstep: one
    scan over (tables, points, rows) and one ``newton_in_bracket`` call,
    a lane per table.
    """
    outcomes = [None] * len(tables)
    keeps, groups = _usable_lanes(tables, outcomes)
    for lanes, (bx, bx_se, by, by_se) in groups:
        by_var = by_se**2
        bx_var = bx_se**2

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
            ratios = by / bx
            top, bottom = ratios.max(axis=-1), ratios.min(axis=-1)
            centre = 0.5 * (top + bottom)
            half_width = 0.5 * (top - bottom)
            half_width = np.where(half_width != 0.0, half_width,
                                  np.where(centre != 0.0, np.abs(centre), 1.0))
            grid = centre[:, None] + half_width[:, None] * _SCAN_TAN
            rows, i = np.arange(len(lanes)), np.argmin(q_at(grid), axis=-1)
            beta, iterations = newton_in_bracket(
                derivatives, grid[rows, np.maximum(i - 1, 0)],
                grid[rows, np.minimum(i + 1, _SCAN_ANGLES - 1)], grid[rows, i])
            q = q_at(beta[:, None])[:, 0]
        for j, lane in enumerate(lanes):
            outcomes[lane] = lane_result(_result, MODIFIED_SECOND_ORDER, q[j], beta[j],
                                         iterations[j], tables[lane], keeps[lane])
    return outcomes


def q_modified_second_order(table: ContextTable) -> HeterogeneityResult:
    """Cochran's Q with modified second-order weights.

    Q is the global minimum over b of
    Q(b) = sum_k (by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2),
    and ``pooled_beta`` the b where it is attained. Q(b) is first
    evaluated on the whole-line scan described at ``_SCAN_ANGLES``; the
    best scan point is then refined by ``numerics.newton_in_bracket`` on
    dQ/db, with analytic first and second derivatives, inside the bracket
    of its two scan neighbours; ``iterations`` counts its Newton and
    bisection steps. The scan is covariant under a common scaling of by
    and se(by), so Q is invariant to it. When every se(bx_k) is zero,
    Q(b) is the first-order quadratic and the result equals the
    first-order version.
    """
    return one_lane(q_modified_second_order_lanes([table]))
