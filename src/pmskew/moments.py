"""Biased sample central moments and standardized skewness/kurtosis.

All moments use the divisor n (not n - 1), matching the definitions the
test statistics are built on. Computation is two-pass: the mean is removed
first, then centered powers are accumulated, which avoids the cancellation
that single-pass formulas suffer for fourth powers. Summation uses numpy's
pairwise reduction over the stored value order, so results for a given
value order are bit-reproducible. Every row mean is _row_mean's
np.add.reduce / n, the bits ndarray.mean gives without its Python wrapper.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Sample:
    """A finite list of real observations with positive variance.

    Validation computes the mean, the deviations from it and their
    centred_moment_arrays as one row, once, and keeps them read-only;
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
        if not np.isfinite(arr).all():
            raise NonFiniteError("sample contains NaN or infinite values")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = _row_mean(arr[None, :])[0]
            d = arr - mean
            moments = centred_moment_arrays(d[None, :])
        m2 = float(moments[0][0])
        if m2 * m2 == 0.0:
            # equal values, or a spread so small that m2 or its square
            # underflows; either way b2 = m4/m2^2 is 0/0 downstream
            raise ZeroVarianceError(
                "sample variance is zero or too small for float64 "
                "moment ratios"
            )
        arr = arr.copy()
        for a in (arr, d) + moments:
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
    m2, m3, m4, sqrt_b1, b2 = sample._moments
    return MomentSummary(
        mean=sample._mean,
        m2=float(m2[0]),
        m3=float(m3[0]),
        m4=float(m4[0]),
        sqrt_b1=float(sqrt_b1[0]),
        b2=float(b2[0]),
    )


def central_moment_arrays(x: np.ndarray):
    """Row-wise divisor-n central moments of a 2-D array.

    Parameters
    ----------
    x : ndarray, shape (reps, n)
        One sample per row.

    Returns
    -------
    m2, m3, m4, sqrt_b1, b2 : ndarray, shape (reps,)
        Rows with zero variance yield NaN in sqrt_b1 and b2.
    """
    x = np.asarray(x, dtype=np.float64)
    return centred_moment_arrays(x - _row_mean(x, keepdims=True))


def _row_mean(x: np.ndarray, keepdims: bool = False):
    """x.mean(axis=1, keepdims=keepdims), bitwise: numpy's mean is this
    pairwise sum divided by the row length, here without the Python
    wrapper that ndarray.mean goes through."""
    return np.add.reduce(x, axis=1, keepdims=keepdims) / x.shape[1]


def centred_moment_arrays(d: np.ndarray, p=None):
    """central_moment_arrays of rows already centred by their own mean.

    d, the deviations x - x.mean(axis=1, keepdims=True), is left as it
    is, so a caller can share one centred block between several
    statistics. Apart from d, one block-sized temporary is used: p, a
    float64 array of d's shape, overwritten, if given, else a new one. It
    holds d^2, then d^2*d, then d^2 again and d^2*d^2, each rounded
    exactly as the expressions (d*d)*d and (d*d)*(d*d) are.
    """
    p = np.multiply(d, d, out=p)
    m2 = _row_mean(p)
    p *= d
    m3 = _row_mean(p)
    np.multiply(d, d, out=p)
    p *= p
    m4 = _row_mean(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        sqrt_b1 = m3 / m2**1.5
        b2 = m4 / (m2 * m2)
    return m2, m3, m4, sqrt_b1, b2
