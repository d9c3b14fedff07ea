"""Exception types shared across the package, and the generic argument
rules that raise them.

Every bad argument raises InvalidParamsError, or its subclass
InvalidLevelError for a significance level. This module imports no other
pmskew module, so any of them can use its rules.

An undefined statistic is not an error: it is NaN, with defined=False."""

import numbers
import operator

__all__ = [
    "PmskewError",
    "NonFiniteError",
    "ZeroVarianceError",
    "SampleTooSmallError",
    "SampleTooLargeError",
    "InvalidParamsError",
    "InvalidLevelError",
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
    """An argument is missing, malformed, or out of range."""


class InvalidLevelError(InvalidParamsError):
    """A significance level lies outside the open interval (0, 1)."""


class ParseError(PmskewError):
    """Input data could not be parsed as numbers; the message names the line."""


def check_int(name: str, v, lo=0, hi=2**64) -> int:
    """The one integer-argument rule: v as an int, or InvalidParamsError
    naming it unless v is an integer (Python or numpy; never a bool, a
    float or a string) with lo <= v < hi. The default range is a 64-bit
    Philox key word."""
    try:
        if isinstance(v, bool):  # operator.index reads it as 0 or 1
            raise TypeError
        i = operator.index(v)
    except TypeError:
        raise InvalidParamsError(f"{name} must be an integer, got {v!r}") from None
    if i < lo:
        raise InvalidParamsError(f"{name} must be >= {lo}, got {i}")
    if i >= hi:
        raise InvalidParamsError(f"{name} must be <= {hi - 1}, got {i}")
    return i


def check_real(name: str, v) -> float:
    """The one real-number rule: v as a float, or InvalidParamsError naming
    it unless v is a real number (never a bool or a string) that a float
    can hold."""
    try:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise TypeError
        return float(v)
    except (TypeError, OverflowError):
        raise InvalidParamsError(f"{name} must be a real number, got {v!r}") from None


def check_level(level) -> float:
    """The one significance-level rule: level as a float, or
    InvalidLevelError unless it is a number in the open interval (0, 1)."""
    if isinstance(level, numbers.Real) and 0.0 < level < 1.0:
        return float(level)
    raise InvalidLevelError(f"level must be in (0, 1), got {level!r}")


def check_member(enum, v, what: str):
    """The one enum-argument rule: enum(v), or InvalidParamsError saying
    v is an unknown what."""
    try:
        return enum(v)
    except ValueError:
        raise InvalidParamsError(f"unknown {what} {v!r}") from None
