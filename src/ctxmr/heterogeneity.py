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

Both statistics are computed in the numerically safe "radial" form
(by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2), which avoids dividing
by small bx_k. Contexts whose bx is indistinguishable from zero are
excluded (with a warning record) and the degrees of freedom reduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ivcore import INSTRUMENT_FLOOR, ContextResult, ivw_pool
from .numerics import chi_square_sf

#: The modified-Q scan evaluates Q(b) at b = c + h tan(phi), for this many
#: angles phi spaced uniformly inside (-pi/2, pi/2), c and h being the
#: centre and half-width of the range of the ratio estimates. The middle
#: angle is 0 (b = c); the outermost reach c +- 81.5 h.
_SCAN_ANGLES = 255
_SCAN_TAN = np.tan(np.linspace(-0.5 * np.pi, 0.5 * np.pi, _SCAN_ANGLES + 2)[1:-1])
#: Cap on the Newton/bisection steps; bisection alone reaches a few ulp
#: of b from a scan bracket in well under this many steps.
_NEWTON_MAX_ITER = 100

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


def _usable(results) -> tuple[list[ContextResult], tuple[str, ...]]:
    kept = [r for r in results if abs(r.bx.beta) >= INSTRUMENT_FLOOR]
    dropped = tuple(r.context for r in results if abs(r.bx.beta) < INSTRUMENT_FLOOR)
    if len(kept) < 2:
        raise ConfigError(
            f"heterogeneity needs >= 2 usable contexts, got {len(kept)} "
            f"({len(dropped)} excluded for zero instrument association)"
        )
    return kept, dropped


def q_first_order(results) -> HeterogeneityResult:
    """Cochran's Q with first-order weights, evaluated at the IVW estimate."""
    kept, dropped = _usable(results)
    pooled = ivw_pool(kept)
    bx = np.array([r.bx.beta for r in kept])
    by = np.array([r.by.beta for r in kept])
    by_se = np.array([r.by.se for r in kept])
    q = float(np.sum((by - pooled.beta * bx) ** 2 / by_se**2))
    df = len(kept) - 1
    return HeterogeneityResult(
        scheme=FIRST_ORDER,
        q=q,
        df=df,
        p=chi_square_sf(q, df),
        pooled_beta=pooled.beta,
        iterations=1,
        excluded=dropped,
    )


def q_modified_second_order(results) -> HeterogeneityResult:
    """Cochran's Q with modified second-order weights.

    Q is the global minimum over b of
    Q(b) = sum_k (by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2),
    and ``pooled_beta`` the b where it is attained. Q(b) is first
    evaluated on the whole-line scan described at ``_SCAN_ANGLES``; the
    best scan point is then refined by Newton's method on dQ/db, with
    analytic first and second derivatives, inside the bracket of its two
    scan neighbours, until a step is below four ulp of b. A step that
    leaves the bracket, or one taken where the curvature is not positive,
    becomes a bisection step; ``iterations`` counts all steps. The scan
    is covariant under a common scaling of by and se(by), so Q is
    invariant to it. When every se(bx_k) is zero, Q(b) is the
    first-order quadratic and the result equals the first-order version.
    """
    kept, dropped = _usable(results)
    bx = np.array([r.bx.beta for r in kept])
    by = np.array([r.by.beta for r in kept])
    by_var = np.array([r.by.se for r in kept]) ** 2
    bx_var = np.array([r.bx.se for r in kept]) ** 2

    def q_at(b):
        b = np.asarray(b)[..., None]
        return np.sum((by - b * bx) ** 2 / (by_var + b * b * bx_var), axis=-1)

    ratios = by / bx
    centre = 0.5 * float(ratios.max() + ratios.min())
    half_width = 0.5 * float(ratios.max() - ratios.min()) or abs(centre) or 1.0
    grid = centre + half_width * _SCAN_TAN
    i = int(np.argmin(q_at(grid)))
    beta = float(grid[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])

    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        resid = by - beta * bx
        denom = by_var + beta * beta * bx_var
        t = beta * bx_var * resid / denom
        dq = -2.0 * float(np.sum(resid * (bx + t) / denom))
        d2q = 2.0 * float(np.sum(((bx + 2.0 * t) ** 2 - bx_var * resid**2 / denom) / denom))
        if dq == 0.0:
            break
        lo, hi = (lo, beta) if dq > 0.0 else (beta, hi)
        if d2q > 0.0 and lo <= beta - dq / d2q <= hi:
            new = beta - dq / d2q
        else:
            new = 0.5 * (lo + hi)
        step, beta = abs(new - beta), new
        if step <= 4.0 * np.spacing(abs(beta)):
            break

    q = float(q_at(beta))
    df = len(kept) - 1
    return HeterogeneityResult(
        scheme=MODIFIED_SECOND_ORDER,
        q=q,
        df=df,
        p=chi_square_sf(q, df),
        pooled_beta=beta,
        iterations=iterations,
        excluded=dropped,
    )
