"""Biased sample central moments and standardized skewness/kurtosis.

All moments use the divisor n (not n - 1), matching the definitions the
test statistics are built on. Computation is two-pass: the mean is removed
first, then centered powers are accumulated, which avoids the cancellation
that single-pass formulas suffer for fourth powers. Summation uses numpy's
pairwise reduction over the stored value order, so results for a given
value order are bit-reproducible. Every row mean, of a Sample's 1-D row
or a chunk's rows, is _row_mean's np.add.reduce / n over the last axis:
the bits ndarray.mean gives without its Python wrapper. A Sample turns
its row's mean and sum of squares into Python floats once, where they
are reduced, so the arithmetic after them rounds as on numpy scalars
without their cost; the moments' two ratios still divide numpy scalars,
which give inf or NaN where a Python float would raise ZeroDivisionError.
"""

from __future__ import annotations

import math
import sys
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

    Validation computes the mean, the deviations d from it, their
    _squares and centred_moment_arrays on the 1-D row, once, and keeps d
    and d*d read-only and the squares' sum and the five moments as
    Python floats;
    central_moments and the scalar tests in skewtests read them, however
    many tests a Sample goes through. Moments that overflow near the
    float64 limits are inf or NaN, without a numpy warning. Samples
    compare, and hash, by identity.

    Parameters
    ----------
    values : array_like
        Observations. Stored as a read-only float64 array in the order
        given.

    Raises
    ------
    InvalidParamsError
        If values is not a one-dimensional sequence of real numbers (a
        generator, a dict, a string, or complex, string, bytes, datetime
        or timedelta values, for instance), or is a masked array with a
        masked entry.
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
        # np.asarray would keep masked values; a masked array exists only
        # once numpy.ma is imported, so a process that never imported it
        # does not pay for its import here
        ma = sys.modules.get("numpy.ma")
        if ma is not None and ma.is_masked(self.values):
            raise InvalidParamsError(
                f"a sample has no masked values, got "
                f"{ma.count_masked(self.values)} in a masked array; pass "
                "its .compressed() to test the unmasked values"
            )
        try:
            arr = np.asarray(self.values)
            # astype would parse strings as numbers and dates as counts
            if arr.dtype.kind in "cUSMm":
                raise TypeError(f"{arr.dtype.name} values")
            if arr.dtype.kind == "O" and any(
                isinstance(v, (str, bytes)) for v in arr.flat
            ):
                raise TypeError("str or bytes values in an object array")
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
        mean = float(_row_mean(arr))
        # a NaN or an infinity makes the sum non-finite, so a finite mean
        # needs no look at the values; an overflowing sum of finite values
        # passes, and its moments are not finite
        if not math.isfinite(mean) and not np.logical_and.reduce(np.isfinite(arr)):
            raise NonFiniteError("sample contains NaN or infinite values")
        d = arr - mean
        sq, sq_sum = _squares(d)
        squares = sq, float(sq_sum)
        moments = tuple(map(float, centred_moment_arrays(d, *squares)))
        m2 = moments[0]
        if m2 * m2 == 0.0:
            # equal values, or a spread so small that m2 or its square
            # underflows; either way b2 = m4/m2^2 is 0/0 downstream
            raise ZeroVarianceError(
                "sample variance is zero or too small for float64 "
                "moment ratios"
            )
        arr = arr.copy()
        for a in (arr, d, sq):
            a.setflags(write=False)
        # one write of the frozen instance's attributes, not five setattrs
        vars(self).update(
            values=arr, _mean=mean, _centred=d, _squares=squares, _moments=moments
        )

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
    d = x - _row_mean(x, keepdims=True)
    return centred_moment_arrays(d, *_squares(d))


def _row_mean(x: np.ndarray, keepdims: bool = False):
    """x.mean(axis=-1, keepdims=keepdims), bitwise: numpy's mean is this
    pairwise sum divided by the row length, here without the Python
    wrapper that ndarray.mean goes through. A 1-D x gives a numpy scalar
    (or a one-element array with keepdims)."""
    return np.add.reduce(x, axis=-1, keepdims=keepdims) / x.shape[-1]


def _squares(d: np.ndarray, out=None):
    """(d*d, into out if given, and its pairwise sums along the last axis)."""
    sq = np.multiply(d, d, out=out)
    return sq, np.add.reduce(sq, axis=-1)


def centred_moment_arrays(d: np.ndarray, sq: np.ndarray, sq_sum, p=None):
    """central_moment_arrays of rows already centred by their own mean.

    d, the deviations x - x.mean(axis=-1, keepdims=True), and its
    _squares sq and sq_sum are only read, so callers can share them;
    m2 = sq_sum / n has _row_mean's bits. p, a float64 array of d's
    shape, overwritten, if given, else a new one, holds sq*d, then sq*sq.
    A 1-D d gives scalars; a Sample passes sq_sum as a Python float, so
    its m2 and m2*m2 are Python arithmetic, which rounds as numpy's does.
    m2^1.5 is np.power, the chunk rows' loop: ** goes through libm or
    numpy's scalar math, which can round unlike the ufunc. m3 and m4 stay
    numpy scalars, so both ratios divide as numpy does and a zero
    variance gives inf or NaN, where a Python float would raise
    ZeroDivisionError. Its callers, not it, enter _quiet.
    """
    m2 = sq_sum / d.shape[-1]
    p = np.multiply(sq, d, out=p)
    m3 = _row_mean(p)
    np.multiply(sq, sq, out=p)
    m4 = _row_mean(p)
    sqrt_b1 = m3 / np.power(m2, 1.5)
    b2 = m4 / (m2 * m2)
    return m2, m3, m4, sqrt_b1, b2
