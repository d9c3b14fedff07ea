"""Biased sample central moments and standardized skewness/kurtosis.

All moments use the divisor n (not n - 1), matching the definitions the
test statistics are built on. Computation is two-pass: the mean is removed
first, then centered powers are accumulated, which avoids the cancellation
that single-pass formulas suffer for fourth powers. Summation uses numpy's
pairwise reduction over the stored value order, so results for a given
value order are bit-reproducible. Every row mean, of a Sample's 1-D row
or a chunk's rows, is _row_mean's np.add.reduce / n over the last axis:
the bits ndarray.mean gives without its Python wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParamsError,
    NonFiniteError,
    SampleTooSmallError,
    ZeroVarianceError,
)

__all__ = [
    "Sample",
    "MomentSummary",
    "central_moments",
]

# every kernel's numpy error state, entered as a decorator (thread-safe from
# numpy 2.0): an inf or NaN is reported as undefined, so warnings are noise
_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@dataclass(frozen=True, eq=False)
class Sample:
    """A finite list of real observations with positive variance.

    Validation computes the mean, the deviations from it and their
    centred_moment_arrays on the 1-D row, once, and keeps the deviations
    read-only and the five moments as Python floats; central_moments and
    the scalar tests in skewtests read them, however many tests a Sample
    goes through. Moments that overflow near the float64 limits are inf
    or NaN, without a numpy warning. Samples compare, and hash, by
    identity.

    Parameters
    ----------
    values : array_like
        Observations. Stored as a read-only float64 array in the order
        given.

    Raises
    ------
    InvalidParamsError
        If values is not a one-dimensional sequence of real numbers (a
        generator, a dict, a string or complex values, for instance).
    SampleTooSmallError
        If fewer than 3 observations are supplied.
    NonFiniteError
        If any observation is NaN or infinite.
    ZeroVarianceError
        If all observations are equal, or their spread is so small that
        the squared variance underflows (below roughly 1.5e-162), which
        would make the standardized moments 0/0.
    """

    values: np.ndarray = field(repr=False)

    @_quiet
    def __post_init__(self):
        try:
            arr = np.asarray(self.values)
            if arr.dtype.kind == "c":
                raise TypeError("complex values")
            arr = arr.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError) as e:
            raise InvalidParamsError(
                "a sample is a sequence of real float64 values, got "
                f"{type(self.values).__name__}: {e}"
            ) from None
        if arr.ndim != 1:
            raise InvalidParamsError(
                f"a sample is one-dimensional, got shape {arr.shape}"
            )
        if arr.size < 3:
            raise SampleTooSmallError(
                f"need at least 3 observations, got {arr.size}"
            )
        mean = _row_mean(arr)
        # a NaN or an infinity makes the sum non-finite, so a finite mean
        # needs no look at the values; an overflowing sum of finite values
        # passes, and its moments are not finite
        if not math.isfinite(mean) and not np.logical_and.reduce(np.isfinite(arr)):
            raise NonFiniteError("sample contains NaN or infinite values")
        d = arr - mean
        moments = tuple(map(float, centred_moment_arrays(d)))
        m2 = moments[0]
        if m2 * m2 == 0.0:
            # equal values, or a spread so small that m2 or its square
            # underflows; either way b2 = m4/m2^2 is 0/0 downstream
            raise ZeroVarianceError(
                "sample variance is zero or too small for float64 "
                "moment ratios"
            )
        arr = arr.copy()
        for a in (arr, d):
            a.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_mean", float(mean))
        object.__setattr__(self, "_centred", d)
        object.__setattr__(self, "_moments", moments)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MomentSummary:
    """Mean, central moments m2..m4, and derived sqrt(b1), b2.

    sqrt_b1 = m3 / m2**1.5 and b2 = m4 / m2**2 exactly as computed from
    the divisor-n moments.
    """

    mean: float
    m2: float
    m3: float
    m4: float
    sqrt_b1: float
    b2: float


def central_moments(sample: Sample) -> MomentSummary:
    """Compute divisor-n central moments and skewness/kurtosis.

    Parameters
    ----------
    sample : Sample

    Returns
    -------
    MomentSummary
    """
    return MomentSummary(sample._mean, *sample._moments)


@_quiet
def central_moment_arrays(x: np.ndarray):
    """Row-wise divisor-n central moments along the last axis.

    Parameters
    ----------
    x : ndarray, shape (..., n)
        One sample per row.

    Returns
    -------
    m2, m3, m4, sqrt_b1, b2 : ndarray, shape (...); scalars for a 1-D x
        Rows with zero variance yield NaN in sqrt_b1 and b2.
    """
    x = np.asarray(x, dtype=np.float64)
    return centred_moment_arrays(x - _row_mean(x, keepdims=True))


def _row_mean(x: np.ndarray, keepdims: bool = False):
    """x.mean(axis=-1, keepdims=keepdims), bitwise: numpy's mean is this
    pairwise sum divided by the row length, here without the Python
    wrapper that ndarray.mean goes through. A 1-D x gives a numpy scalar
    (or a one-element array with keepdims)."""
    return np.add.reduce(x, axis=-1, keepdims=keepdims) / x.shape[-1]


def centred_moment_arrays(d: np.ndarray, p=None):
    """central_moment_arrays of rows already centred by their own mean.

    d, the deviations x - x.mean(axis=-1, keepdims=True), is left as it
    is, so a caller can share one centred block between several
    statistics. Apart from d, one block-sized temporary is used: p, a
    float64 array of d's shape, overwritten, if given, else a new one. It
    holds d^2, then d^2*d, then d^2 again and d^2*d^2, each rounded
    exactly as the expressions (d*d)*d and (d*d)*(d*d) are. A 1-D d gives
    numpy scalars, so m2^1.5 is np.power: ** on a numpy scalar goes
    through numpy's scalar math, which rounds unlike the ufunc. Its
    callers, not it, enter _quiet.
    """
    p = np.multiply(d, d, out=p)
    m2 = _row_mean(p)
    p *= d
    m3 = _row_mean(p)
    np.multiply(d, d, out=p)
    p *= p
    m4 = _row_mean(p)
    sqrt_b1 = m3 / np.power(m2, 1.5)
    b2 = m4 / (m2 * m2)
    return m2, m3, m4, sqrt_b1, b2
