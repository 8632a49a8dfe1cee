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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError
from .ivcore import INSTRUMENT_FLOOR, ContextTable, ivw_pool
from .numerics import chi_square_sf, newton_in_bracket

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
        pooled_beta=pooled_beta,
        iterations=iterations,
        excluded=tuple(table.labels[~keep].tolist()),
    )


def q_first_order(table: ContextTable) -> HeterogeneityResult:
    """Cochran's Q with first-order weights, evaluated at the IVW estimate."""
    keep = _usable(table)
    kept = table.subset(keep)
    pooled = ivw_pool(kept)
    by, by_se = kept.outcome()
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.sum((by - pooled.beta * kept.bx) ** 2 / by_se**2)
    return _result(FIRST_ORDER, q, pooled.beta, 1, table, keep)


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
    keep = _usable(table)
    kept = table.subset(keep)
    bx = kept.bx
    by, by_se = kept.outcome()
    by_var = by_se**2
    bx_var = kept.bx_se**2

    def q_at(b):
        b = np.asarray(b)[..., None]
        return np.sum((by - b * bx) ** 2 / (by_var + b * b * bx_var), axis=-1)

    def derivatives(b):
        resid = by - b * bx
        denom = by_var + b * b * bx_var
        t = b * bx_var * resid / denom
        return (-2.0 * float(np.sum(resid * (bx + t) / denom)),
                2.0 * float(np.sum(((bx + 2.0 * t) ** 2 - bx_var * resid**2 / denom) / denom)))

    with np.errstate(over="ignore", invalid="ignore"):
        ratios = by / bx
        centre = 0.5 * float(ratios.max() + ratios.min())
        half_width = 0.5 * float(ratios.max() - ratios.min()) or abs(centre) or 1.0
        grid = centre + half_width * _SCAN_TAN
        i = int(np.argmin(q_at(grid)))
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
        beta, iterations = newton_in_bracket(derivatives, lo, hi, float(grid[i]))
        q = q_at(beta)
    return _result(MODIFIED_SECOND_ORDER, q, beta, iterations, table, keep)
