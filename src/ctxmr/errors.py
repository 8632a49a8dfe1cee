"""Exception hierarchy and warning categories shared across the package.

Every failure raised by this package derives from :class:`CtxMRError`, split
into three stages that the command-line interface maps to distinct exit
codes: configuration (bad options, unusable designs), ingestion (file and
parsing problems), and estimation (numerical fitting problems).
"""

from __future__ import annotations


class CtxMRError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CtxMRError):
    """The requested analysis is not well posed (bad options or design).

    Examples: fewer than two contexts retained, collinear meta-regression
    design, non-positive rescaling factor, invalid scenario parameters.
    """


class DomainError(ConfigError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IngestError(CtxMRError):
    """Input data could not be read or violates the file contract."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EstimationError(CtxMRError):
    """A model fit failed in a way that invalidates its output."""


class RankDeficiencyError(EstimationError):
    """The (weighted) design matrix does not have full column rank."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(
            message or f"design matrix is rank deficient at column {column}"
        )


class SeparationError(EstimationError):
    """Logistic fit diverged: the data are (quasi-)separated."""


class ConvergenceError(EstimationError):
    """An iterative solver exhausted its iteration budget.

    ``trace`` holds the iterate history so callers can inspect what the
    solver was doing when it gave up.
    """

    def __init__(self, message: str, trace: tuple[float, ...] = ()):
        super().__init__(message)
        self.trace = trace


class ExperimentError(CtxMRError):
    """A Monte Carlo experiment produced too many failed replications."""


class DegenerateFitWarning(UserWarning):
    """A regression fit the data exactly; reported standard error is zero."""
