"""Per-context ratio instrumental-variable estimates and the context table.

The causal estimate in each context is the ratio of the instrument-outcome
association to the instrument-exposure association, with the first-order
standard error se(by) / |bx|. ``context_iv`` fits both associations on
one design: the context's instrument and covariates, checked and centred
once. Every test across contexts reads the per-context statistics from
one :class:`ContextTable`, a set of columns, which refuses a context
whose bx is indistinguishable from zero: its ratio is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datamodel import Dataset, summarize_context
from .errors import DomainError, EstimationError, RankDeficiencyError
from .regress import AssocEstimate, design, fit_linear, fit_logistic

#: |bx| below this is a zero denominator, which ``ContextTable.from_columns`` refuses.
INSTRUMENT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ContextTable:
    """Per-context statistics as columns, one row per context.

    ``labels`` name the contexts; bx and by are the instrument-exposure
    and instrument-outcome associations, with standard errors bx_se and
    by_se; xmean and n are each context's mean exposure and size. The
    columns hold the raw associations; ``scale``, which ``rescaled``
    sets, expresses the outcome side per ``scale`` exposure units (see
    ``outcome`` and ``ratio``). ``from_columns`` orders the rows by mean
    exposure, then label, and refuses a zero bx: the one rule for each.
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
        """A table of these columns, its rows sorted by mean exposure, then label.

        The first context given whose |bx| is not at least ``INSTRUMENT_FLOOR``
        (NaN too, as a constant instrument gives) raises EstimationError.
        """
        labels, n = np.asarray(labels, dtype=object), np.asarray(n, dtype=int)
        columns = [np.asarray(col, dtype=float) for col in (bx, bx_se, by, by_se, xmean)]
        if labels.ndim != 1 or any(col.shape != labels.shape for col in (*columns, n)):
            raise DomainError("context table columns must be equal-length vectors")
        zero = ~(np.abs(columns[0]) >= INSTRUMENT_FLOOR)
        if zero.any():
            k = int(np.argmax(zero))
            raise EstimationError(
                f"context {labels[k]!r}: instrument-exposure association "
                f"{columns[0][k]:.3e} is indistinguishable from zero"
            )
        order = np.lexsort((labels, columns[-1]))
        return cls(labels[order], *(col[order] for col in columns), n[order])

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

    # A finite but extreme by times the scale can overflow; the tests refuse
    # the non-finite result with one EstimationError, so numpy need not warn.
    def outcome(self) -> tuple[np.ndarray, np.ndarray]:
        """by and by_se per ``scale`` exposure units."""
        with np.errstate(over="ignore"):
            return self.by * self.scale, self.by_se * self.scale

    @property
    def ratio(self) -> np.ndarray:
        """The ratio estimates by / bx, per ``scale`` exposure units."""
        with np.errstate(over="ignore"):
            return self.by / self.bx * self.scale

    @property
    def ratio_se(self) -> np.ndarray:
        """First-order standard errors se(by) / |bx| of the ratios, per ``scale`` units."""
        with np.errstate(over="ignore"):
            return self.by_se / np.abs(self.bx) * self.scale


def context_iv(
    label: str, ds: Dataset, family: str = "linear"
) -> tuple[AssocEstimate, AssocEstimate, int, float]:
    """One context's fits: (bx, by, n, xmean), the row it adds to a ``ContextTable``.

    Builds one design from the instrument and the covariates and fits the
    exposure (linear) and the outcome (``family``, linear or logistic)
    on it; n and xmean are the context's size and mean exposure. An
    essentially zero bx is refused by the ``ContextTable`` the row goes
    into; a weak but nonzero one is noted by the report
    (``report.DEFAULT_WEAK_T``). An exposure that is
    an exact linear function of the design is marked by ``bx.degenerate``
    (se(bx) = 0), which the report notes, and an exact outcome fit is
    refused below. A DomainError or EstimationError of the design or the
    fits (too few rows for the columns, a dependent covariate, a
    separated outcome) names the context, and a rank error its column's
    role (the instrument or a covariate).
    """
    if family not in ("linear", "logistic"):
        raise DomainError(f"unknown outcome family {family!r}")
    try:
        shared = design(ds.instrument, ds.covariates)
        bx = fit_linear(shared, ds.exposure)
        by = (fit_logistic if family == "logistic" else fit_linear)(shared, ds.outcome)
    except (DomainError, EstimationError) as err:
        # Same class and attributes (a rank error's column, a convergence
        # error's trace); the message gains the label and the column's role.
        message = str(err)
        if isinstance(err, RankDeficiencyError):
            roles = ("the intercept", "the instrument",
                     *(f"covariate {name!r}" for name in ds.covariate_names))
            message += f" ({roles[err.column]})"
        err.args = (f"context {label!r}: {message}",)
        raise
    if by.se <= 0:
        raise EstimationError(
            f"context {label!r}: outcome association has zero standard error; "
            "the ratio estimate has no usable uncertainty"
        )
    return (bx, by, *summarize_context(label, ds))

