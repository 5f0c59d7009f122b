"""Exception hierarchy shared across the package.

Two broad families matter to callers: configuration problems (bad flags,
bad parameters) and data problems (files, columns, degenerate samples).
The CLI maps them to distinct exit codes.
"""

from __future__ import annotations


class MrddError(Exception):
    """Base class for all package errors."""


class ConfigError(MrddError):
    """Invalid configuration or parameters supplied by the caller."""


class DataError(MrddError):
    """The supplied data cannot support the requested computation."""


class InvalidConfig(ConfigError):
    pass


class FitError(DataError):
    """A local fit cannot be made; ``side`` names the side of the cutoff, if any."""

    def __init__(self, message: str, side: str | None = None):
        super().__init__(message)
        self.side = side


class InsufficientData(FitError):
    """Too few usable observations in the requested window or side."""


class SingularDesign(FitError):
    """Rank-deficient weighted least squares design."""


class DegenerateSupport(FitError):
    """Running variable looks discrete: too many exact duplicates in window."""


class UnknownCovariate(DataError):
    pass


class InvalidOutcomeRange(DataError):
    pass


class EmptyWindow(DataError):
    pass


class EmptyInput(DataError):
    pass


class TooManyFailedReplicates(DataError):
    pass


class InvalidInputs(DataError):
    pass


class MissingColumn(DataError):
    pass


class ParseError(DataError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line
