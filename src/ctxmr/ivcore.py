"""Per-context ratio instrumental-variable estimates and IVW pooling.

The causal estimate in each context is the ratio of the instrument-outcome
association to the instrument-exposure association, with the first-order
standard error se(by) / |bx|. The pooled estimate weights the per-context
outcome associations by their inverse variances:

    beta = sum(by_k bx_k / se(by_k)^2) / sum(bx_k^2 / se(by_k)^2)
    se   = sum(bx_k^2 / se(by_k)^2)^{-1/2}
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datamodel import ContextSummary, Dataset, summarize_context
from .errors import ConfigError, DomainError, EstimationError
from .regress import AssocEstimate, RegressionSpec, fit_linear, fit_logistic

#: |bx| below this is treated as a zero denominator (hard error).
INSTRUMENT_FLOOR = 1e-12

#: Default |bx| / se(bx) below which a weak-instrument warning attaches.
DEFAULT_WEAK_T = 2.0


@dataclass(frozen=True)
class ContextResult:
    """One context's associations, ratio estimate, and exposure summary."""

    context: str
    bx: AssocEstimate
    by: AssocEstimate
    ratio: float
    ratio_se_first_order: float
    summary: ContextSummary
    warnings: tuple[str, ...] = ()

    @classmethod
    def from_summary_stats(
        cls,
        context: str,
        bx: float,
        bx_se: float,
        by: float,
        by_se: float,
        exposure_mean: float,
        n: int,
    ) -> "ContextResult":
        """Build a result from pre-computed per-context summary statistics."""
        if by_se <= 0:
            raise DomainError(f"context {context!r}: outcome-association se must be > 0")
        if bx_se < 0:
            raise DomainError(f"context {context!r}: exposure-association se must be >= 0")
        if abs(bx) < INSTRUMENT_FLOOR:
            raise EstimationError(
                f"context {context!r}: instrument-exposure association is zero"
            )
        bx_est = AssocEstimate(beta=bx, se=bx_se, n=n)
        by_est = AssocEstimate(beta=by, se=by_se, n=n)
        return cls(
            context=context,
            bx=bx_est,
            by=by_est,
            ratio=by / bx,
            ratio_se_first_order=by_se / abs(bx),
            summary=ContextSummary(context=context, n=n, exposure_mean=exposure_mean),
        )


@dataclass(frozen=True)
class PooledEstimate:
    beta: float
    se: float
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"pooled estimate needs >= 2 contexts, got {self.k}")


def context_iv(
    label: str,
    ds: Dataset,
    exposure_spec: RegressionSpec,
    outcome_spec: RegressionSpec,
    weak_t_threshold: float = DEFAULT_WEAK_T,
) -> ContextResult:
    """Ratio IV estimate within one context.

    Fits the instrument-exposure and instrument-outcome regressions and
    combines them. A weak instrument (|bx|/se(bx) under the threshold)
    attaches a warning to the result rather than failing; an essentially
    zero bx is a hard error because the ratio is undefined.
    """
    cols = ds.columns()
    bx = fit_linear(cols, exposure_spec)
    if outcome_spec.family == "logistic":
        by = fit_logistic(cols, outcome_spec)
    else:
        by = fit_linear(cols, outcome_spec)
    if by.se <= 0:
        raise EstimationError(
            f"context {label!r}: outcome association has zero standard error; "
            "the ratio estimate has no usable uncertainty"
        )
    if abs(bx.beta) < INSTRUMENT_FLOOR:
        raise EstimationError(
            f"context {label!r}: instrument-exposure association "
            f"{bx.beta:.3e} is indistinguishable from zero"
        )
    notes: list[str] = []
    if bx.se > 0 and abs(bx.beta) / bx.se < weak_t_threshold:
        notes.append(
            f"context {label!r}: weak instrument "
            f"(|bx|/se = {abs(bx.beta) / bx.se:.2f} < {weak_t_threshold:g})"
        )
    return ContextResult(
        context=label,
        bx=bx,
        by=by,
        ratio=by.beta / bx.beta,
        ratio_se_first_order=by.se / abs(bx.beta),
        summary=summarize_context(label, ds),
        warnings=tuple(notes),
    )


def ivw_pool(results: list[ContextResult] | tuple[ContextResult, ...]) -> PooledEstimate:
    """Inverse-variance weighted pooled estimate with first-order weights."""
    if len(results) < 2:
        raise ConfigError(f"IVW pooling needs >= 2 contexts, got {len(results)}")
    bx = np.array([r.bx.beta for r in results])
    by = np.array([r.by.beta for r in results])
    w = np.array([r.by.se for r in results]) ** -2.0
    denom = float(np.sum(bx * bx * w))
    beta = float(np.sum(by * bx * w)) / denom
    return PooledEstimate(beta=beta, se=denom**-0.5, k=len(results))


def rescale_estimate(estimate: ContextResult, factor: float) -> ContextResult:
    """Express a context result per ``factor`` exposure units.

    Multiplies the outcome-side quantities (and hence the ratio and its
    standard error) by ``factor``. Heterogeneity statistics computed
    downstream are invariant to this rescaling.
    """
    if not np.isfinite(factor) or factor <= 0:
        raise DomainError(f"scale factor must be positive, got {factor}")
    return replace(
        estimate,
        by=replace(estimate.by, beta=estimate.by.beta * factor, se=estimate.by.se * factor),
        ratio=estimate.ratio * factor,
        ratio_se_first_order=estimate.ratio_se_first_order * factor,
    )
