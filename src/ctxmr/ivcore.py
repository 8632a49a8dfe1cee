"""Per-context ratio instrumental-variable estimates, the context table, IVW pooling.

The causal estimate in each context is the ratio of the instrument-outcome
association to the instrument-exposure association, with the first-order
standard error se(by) / |bx|. ``context_iv`` fits both associations on
one design: the context's instrument and covariates, checked and centred
once. Every test across contexts reads the per-context statistics from
one :class:`ContextTable`, a set of columns. The pooled estimate weights
the per-context outcome associations by their inverse variances:

    beta = sum(by_k bx_k / se(by_k)^2) / sum(bx_k^2 / se(by_k)^2)
    se   = sum(bx_k^2 / se(by_k)^2)^{-1/2}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datamodel import Dataset, summarize_context
from .errors import ConfigError, DomainError, EstimationError
from .regress import AssocEstimate, design, fit_linear, fit_logistic

#: |bx| below this is treated as a zero denominator (hard error).
INSTRUMENT_FLOOR = 1e-12


@dataclass(frozen=True)
class ContextResult:
    """One context's associations, size and mean exposure, as ``context_iv`` fits them."""

    context: str
    bx: AssocEstimate
    by: AssocEstimate
    n: int
    exposure_mean: float


@dataclass(frozen=True, eq=False)
class ContextTable:
    """Per-context statistics as columns, one row per context.

    ``labels`` name the contexts; bx and by are the instrument-exposure
    and instrument-outcome associations, with standard errors bx_se and
    by_se; xmean and n are each context's mean exposure and size. The
    columns hold the raw associations; ``scale``, which ``rescaled``
    sets, expresses the outcome side per ``scale`` exposure units (see
    ``outcome`` and ``ratio``). ``from_columns`` orders the rows by mean
    exposure, then label: the one rule that orders contexts.
    """

    labels: np.ndarray
    bx: np.ndarray
    bx_se: np.ndarray
    by: np.ndarray
    by_se: np.ndarray
    xmean: np.ndarray
    n: np.ndarray
    scale: float = 1.0

    @classmethod
    def from_columns(cls, labels, bx, bx_se, by, by_se, xmean, n) -> "ContextTable":
        """A table of these columns, its rows sorted by mean exposure, then label."""
        labels, n = np.asarray(labels, dtype=object), np.asarray(n, dtype=int)
        columns = [np.asarray(col, dtype=float) for col in (bx, bx_se, by, by_se, xmean)]
        if labels.ndim != 1 or any(col.shape != labels.shape for col in (*columns, n)):
            raise DomainError("context table columns must be equal-length vectors")
        order = np.lexsort((labels, columns[-1]))
        return cls(labels[order], *(col[order] for col in columns), n[order])

    @classmethod
    def from_results(cls, results) -> "ContextTable":
        """The table of ``context_iv`` results."""
        return cls.from_columns(*zip(*(
            (r.context, r.bx.beta, r.bx.se, r.by.beta, r.by.se, r.exposure_mean, r.n)
            for r in results
        )))

    def __len__(self) -> int:
        return int(self.labels.size)

    def subset(self, keep: np.ndarray) -> "ContextTable":
        """The rows selected by a boolean mask or an index array."""
        return replace(self, labels=self.labels[keep], bx=self.bx[keep], bx_se=self.bx_se[keep],
                       by=self.by[keep], by_se=self.by_se[keep], xmean=self.xmean[keep],
                       n=self.n[keep])

    def rescaled(self, factor: float) -> "ContextTable":
        """The table with its outcome side expressed per ``factor`` more exposure units.

        Heterogeneity statistics computed downstream are invariant to this
        rescaling; the ratio estimates and the trend slope scale with it.
        """
        if not np.isfinite(factor) or factor <= 0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        return replace(self, scale=self.scale * factor)

    def outcome(self) -> tuple[np.ndarray, np.ndarray]:
        """by and by_se per ``scale`` exposure units."""
        return self.by * self.scale, self.by_se * self.scale

    @property
    def ratio(self) -> np.ndarray:
        """The ratio estimates by / bx, per ``scale`` exposure units."""
        return self.by / self.bx * self.scale

    @property
    def ratio_se(self) -> np.ndarray:
        """First-order standard errors se(by) / |bx| of the ratios, per ``scale`` units."""
        return self.by_se / np.abs(self.bx) * self.scale


@dataclass(frozen=True)
class PooledEstimate:
    beta: float
    se: float
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"pooled estimate needs >= 2 contexts, got {self.k}")


def context_iv(label: str, ds: Dataset, family: str = "linear") -> ContextResult:
    """Ratio IV estimate within one context.

    Builds one design from the instrument and the covariates, fits the
    exposure (linear) and the outcome (``family``, linear or logistic)
    on it, and combines them. An essentially zero bx is a hard error
    because the ratio is undefined; a weak but nonzero one is noted by
    the report (``report.DEFAULT_WEAK_T``).
    """
    if family not in ("linear", "logistic"):
        raise DomainError(f"unknown outcome family {family!r}")
    shared = design(ds.instrument, ds.covariates)
    bx = fit_linear(shared, ds.exposure)
    by = (fit_logistic if family == "logistic" else fit_linear)(shared, ds.outcome)
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
    n, exposure_mean = summarize_context(label, ds)
    return ContextResult(context=label, bx=bx, by=by, n=n, exposure_mean=exposure_mean)


def ivw_sums(bx, by, by_se) -> tuple[np.ndarray, np.ndarray]:
    """The IVW numerator sum(by bx / se(by)^2) and weight sum sum(bx^2 / se(by)^2).

    The sums run over the last axis, so stacked (C, K) columns give C of each.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = by_se**-2.0
        return np.sum(by * bx * w, axis=-1), np.sum(bx * bx * w, axis=-1)


def pooled_beta(numer: float, denom: float) -> float:
    """The IVW estimate numer / denom from ``ivw_sums``.

    Raises EstimationError when the weight sum or the estimate is not a
    finite positive number, as outcome standard errors scaled beyond the
    float range make them.
    """
    beta = numer / denom if 0.0 < denom < math.inf else math.nan
    if not math.isfinite(beta):
        raise EstimationError(
            f"IVW pooled estimate is {beta} (weight sum {denom:g}): the outcome "
            "associations or their standard errors are too extreme to pool"
        )
    return beta


def ivw_pool(table: ContextTable) -> PooledEstimate:
    """Inverse-variance weighted pooled estimate with first-order weights.

    Raises EstimationError as ``pooled_beta`` does.
    """
    if len(table) < 2:
        raise ConfigError(f"IVW pooling needs >= 2 contexts, got {len(table)}")
    by, by_se = table.outcome()
    numer, denom = (float(s) for s in ivw_sums(table.bx, by, by_se))
    return PooledEstimate(beta=pooled_beta(numer, denom), se=denom**-0.5, k=len(table))
