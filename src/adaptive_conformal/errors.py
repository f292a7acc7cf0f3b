"""Exception types shared across the package."""

from __future__ import annotations


class AdaptiveConformalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(AdaptiveConformalError, ValueError):
    """Invalid configuration or parameter values."""


class NoDataError(AdaptiveConformalError):
    """An operation was asked for a result it has no data to compute."""


class DomainError(AdaptiveConformalError, ValueError):
    """Numeric input outside the mathematical domain of an operation."""


class DegenerateDataError(AdaptiveConformalError):
    """Data carries no usable signal (e.g. constant returns)."""


class ConvergenceError(AdaptiveConformalError):
    """An iterative solver failed to converge. Carries the best iterate found."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ErgodicityError(AdaptiveConformalError):
    """A Markov chain has no unique stationary distribution."""


class NonReversibleChainError(AdaptiveConformalError):
    """Spectral-gap computation is only supported for reversible chains."""


class _FileLineError(AdaptiveConformalError):
    """An error in an input file. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(_FileLineError):
    """A file failed to parse."""


class ValidationError(_FileLineError):
    """Parsed data violates a documented file invariant."""


class ExperimentAborted(AdaptiveConformalError):
    """An experiment pipeline stopped early.

    Carries what was computed before the stop: the partial report, flagged
    invalid, or the prefix of a forecast stream.
    """

    def __init__(self, message: str, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report
