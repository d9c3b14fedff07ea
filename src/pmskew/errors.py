"""Exception types shared across the package.

An undefined statistic is not an error: it is NaN, with defined=False."""

__all__ = [
    "PmskewError",
    "NonFiniteError",
    "ZeroVarianceError",
    "SampleTooSmallError",
    "SampleTooLargeError",
    "InvalidParamsError",
    "InvalidLevelError",
    "InvalidConfigError",
    "ParseError",
]


class PmskewError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(PmskewError):
    """A sample contains NaN or infinite values."""


class ZeroVarianceError(PmskewError):
    """All sample values are equal; central moments are degenerate."""


class SampleTooSmallError(PmskewError):
    """The sample has fewer observations than the operation requires."""


class SampleTooLargeError(PmskewError):
    """The sample exceeds the validity range of the requested procedure."""


class InvalidParamsError(PmskewError):
    """Distribution parameters are missing, malformed, or out of range."""


class InvalidLevelError(PmskewError):
    """A significance level lies outside the open interval (0, 1)."""


class InvalidConfigError(PmskewError):
    """A run configuration is inconsistent or incomplete."""


class ParseError(PmskewError):
    """Input data could not be parsed as numbers; the message names the line."""
