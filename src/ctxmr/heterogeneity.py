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
  pooled value b itself. The pooled value is obtained by iterating the
  inverse-variance update to its fixed point, which approximates the
  minimizer of Q(b) closely but not exactly, then polishing it by
  derivative bisection: a bracket around the fixed point is widened
  until dQ/db changes sign and then bisected to machine precision. Q is
  evaluated at the best of the polished point, the fixed point and the
  IVW start.

Both statistics are computed in the numerically safe "radial" form
(by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2), which avoids dividing
by small bx_k. Contexts whose bx is indistinguishable from zero are
excluded (with a warning record) and the degrees of freedom reduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .ivcore import INSTRUMENT_FLOOR, ContextResult, ivw_pool
from .numerics import chi_square_sf

_FP_TOL = 1e-10
_FP_MAX_ITER = 100

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


def _bisect_stationary_point(dq, center: float) -> float | None:
    """Root of dq (the derivative of Q) near ``center`` by sign bisection.

    Expands a bracket around ``center`` until the derivative changes sign,
    then bisects to machine precision. Returns None if no sign change is
    found, in which case the caller keeps its current point.
    """
    width = 1e-6 * (1.0 + abs(center))
    lo, hi = center - width, center + width
    for _ in range(120):
        d_lo, d_hi = dq(lo), dq(hi)
        if d_lo <= 0.0 <= d_hi:
            break
        if d_lo > 0.0:
            lo -= hi - lo
        else:
            hi += hi - lo
    else:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if dq(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def q_modified_second_order(results) -> HeterogeneityResult:
    """Cochran's Q with modified second-order weights.

    The pooled value is the minimizer of
    Q(b) = sum_k (by_k - b bx_k)^2 / (se(by_k)^2 + b^2 se(bx_k)^2),
    located by the inverse-variance fixed-point iteration (started at the
    first-order IVW estimate, absolute tolerance 1e-10, at most 100
    iterations) followed by a derivative-bisection refinement around it.
    When every se(bx_k) is zero the weights lose their b-dependence and
    the statistic reduces exactly to the first-order version.
    """
    kept, dropped = _usable(results)
    bx = np.array([r.bx.beta for r in kept])
    by = np.array([r.by.beta for r in kept])
    by_var = np.array([r.by.se for r in kept]) ** 2
    bx_var = np.array([r.bx.se for r in kept]) ** 2

    def q_at(b: float) -> float:
        return float(np.sum((by - b * bx) ** 2 / (by_var + b * b * bx_var)))

    beta0 = ivw_pool(kept).beta
    beta = beta0
    trace = [beta]
    for iteration in range(1, _FP_MAX_ITER + 1):
        denom = by_var + beta * beta * bx_var
        new = float(np.sum(by * bx / denom) / np.sum(bx * bx / denom))
        trace.append(new)
        moved = abs(new - beta)
        beta = new
        if moved < _FP_TOL:
            break
    else:
        raise ConvergenceError(
            f"modified-weights fixed point did not converge in {_FP_MAX_ITER} iterations",
            trace=tuple(trace),
        )

    # The fixed point solves sum (r_k - b)/v_k(b) = 0, which is close to but
    # not exactly the stationarity condition of Q(b); polish to the true
    # minimizer so Q is the actual minimum of the objective.
    def dq_at(b: float) -> float:
        resid = by - b * bx
        denom = by_var + b * b * bx_var
        return float(
            -2.0 * np.sum(resid * (bx * denom + resid * b * bx_var) / denom**2)
        )

    polished = _bisect_stationary_point(dq_at, beta)
    candidates = (beta, beta0) if polished is None else (polished, beta, beta0)
    # Never return a worse point than the candidates already in hand.
    best = min(candidates, key=q_at)
    q = q_at(best)
    df = len(kept) - 1
    return HeterogeneityResult(
        scheme=MODIFIED_SECOND_ORDER,
        q=q,
        df=df,
        p=chi_square_sf(q, df),
        pooled_beta=best,
        iterations=iteration,
        excluded=dropped,
    )
