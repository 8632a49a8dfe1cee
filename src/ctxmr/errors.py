"""Exception hierarchy and warning categories shared across the package.

Every failure raised by this package derives from :class:`CtxMRError`, split
into three stages that the command-line interface maps to distinct exit
codes: configuration (bad options, unusable designs), ingestion (file and
parsing problems), and estimation (numerical fitting problems).

A stacked call, which runs one test on many inputs at once (one lane
each), returns a lane's error in place of its result: ``lane_result``
catches it, and ``one_lane`` raises it again for a call of one lane.
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


def lane_result(fn, *args):
    """fn(*args), or the CtxMRError it raises: one lane's outcome in a stacked call."""
    try:
        return fn(*args)
    except CtxMRError as err:
        return err


def one_lane(outcomes):
    """The result of a stacked call made with one lane; raises that lane's error."""
    (outcome,) = outcomes
    if isinstance(outcome, CtxMRError):
        raise outcome
    return outcome


class DegenerateFitWarning(UserWarning):
    """A regression fit the data exactly; reported standard error is zero."""
