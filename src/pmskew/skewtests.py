"""The spms statistic, its series expansion, and three comparison tests.

All four tests share the TestResult interface: a raw statistic, a normal
equivalent deviate z, and a p-value. The spms, sqrt(b1), and Lin-Mudholkar
tests are two-sided in z; Shapiro-Wilk is one-tailed (small W rejects) and
its p-value is reported accordingly.

Each test has a private batch kernel over an array of samples (one per
row), used by the Monte Carlo harness, and a scalar entry point taking a
Sample that is a one-row view of that kernel, so both compute identical
values. The spms and sqrt(b1) kernels take the arrays returned by
central_moment_arrays, so a chunk that needs both computes its moments
once. A scalar test whose statistic comes out non-finite (the moments of
data near the float64 limits can overflow) reports defined=False, never a
NaN result marked defined.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from . import su_transform
from .errors import (
    DegenerateCorrelationError,
    DegenerateDenominatorError,
    InvalidLevelError,
    SampleTooLargeError,
    SampleTooSmallError,
)
from .moments import MomentSummary, Sample, central_moment_arrays, central_moments

__all__ = [
    "TestName",
    "TestResult",
    "SeriesState",
    "spms_statistic",
    "spms_series",
    "spms_test",
    "population_pms",
    "sqrt_b1_test",
    "shapiro_wilk_test",
    "lin_mudholkar_test",
    "SW_MIN_N",
    "SW_MAX_N",
]

MIN_TEST_N = 8
SW_MIN_N = 8
SW_MAX_N = 5000


class TestName(str, enum.Enum):
    SPMS = "spms"
    SQRT_B1 = "sqrt_b1"
    SHAPIRO_WILK = "shapiro_wilk"
    LIN_MUDHOLKAR = "lin_mudholkar"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TestResult:
    """Outcome of one normality test on one sample.

    When defined is False the numeric fields carry no meaning and must
    not be compared; reject_at then reports False (an undefined statistic
    never counts as a rejection).
    """

    test_name: TestName
    raw_statistic: float
    z_value: float
    p_value: float
    defined: bool = True

    def reject_at(self, level: float) -> bool:
        """Two-sided rejection at the given significance level."""
        if not 0.0 < level < 1.0:
            raise InvalidLevelError(f"level must be in (0, 1), got {level}")
        if not self.defined:
            return False
        return self.p_value < level


@dataclass(frozen=True)
class SeriesState:
    """Scaled moment deviations feeding the spms power series.

    U = sqrt(n)*(m2 - 1), V = sqrt(n)*m3, W = sqrt(n)*(m4 - 3) for the
    generating sample.
    """

    U: float
    V: float
    W: float
    n: int

    @classmethod
    def from_sample(cls, sample: Sample) -> "SeriesState":
        s = central_moments(sample)
        rn = math.sqrt(sample.n)
        return cls(
            U=rn * (s.m2 - 1.0),
            V=rn * s.m3,
            W=rn * (s.m4 - 3.0),
            n=sample.n,
        )


def _den_eps(b1, b2):
    # relative-scale guard for the denominator 5*b2 - 6*b1 - 9
    return 1e-12 * (1.0 + np.abs(5.0 * b2) + np.abs(6.0 * b1) + 9.0)


def spms_statistic(summary: MomentSummary) -> float:
    """Sample Pearson measure of skewness.

    spms = sqrt(b1)*(b2 + 3) / (2*(5*b2 - 6*b1 - 9)) with b1 = sqrt_b1**2.
    The denominator may legitimately be negative for small skewed samples;
    the sign is reported as-is.

    Raises
    ------
    DegenerateDenominatorError
        If |5*b2 - 6*b1 - 9| is below the relative-scale guard.
    """
    b1 = summary.sqrt_b1 * summary.sqrt_b1
    den = 5.0 * summary.b2 - 6.0 * b1 - 9.0
    if abs(den) <= _den_eps(b1, summary.b2):
        raise DegenerateDenominatorError(
            f"5*b2 - 6*b1 - 9 = {den:.3e} is numerically zero"
        )
    return summary.sqrt_b1 * (summary.b2 + 3.0) / (2.0 * den)


def population_pms(sqrt_beta1: float, beta2: float) -> float:
    """Population Pearson measure of skewness from sqrt(beta1) and beta2.

    Raises
    ------
    DegenerateDenominatorError
        If |5*beta2 - 6*beta1 - 9| is below the relative-scale guard.
    """
    beta1 = sqrt_beta1 * sqrt_beta1
    den = 5.0 * beta2 - 6.0 * beta1 - 9.0
    if abs(den) <= _den_eps(beta1, beta2):
        raise DegenerateDenominatorError(
            f"5*beta2 - 6*beta1 - 9 = {den:.3e} is numerically zero"
        )
    return sqrt_beta1 * (beta2 + 3.0) / (2.0 * den)


# coefficients of the 1/sqrt(n) expansion of spms, by half-integer order
_O1 = (0.5,)  # V/2
_O2 = (5.0 / 4.0, -1.0 / 3.0)  # UV, VW
_O3 = (79.0 / 16.0, -13.0 / 6.0, 0.5, 5.0 / 18.0)  # U2V, UVW, V3, VW2
_O4 = (
    517.0 / 32.0,  # U3V
    -263.0 / 24.0,  # U2VW
    9.0 / 4.0,  # UV3
    95.0 / 36.0,  # UVW2
    -3.0 / 4.0,  # V3W
    -25.0 / 108.0,  # VW3
)


def spms_series(state: SeriesState) -> float:
    """Evaluate the four printed orders of the spms power series.

    spms ~ n^-1/2 O1 + n^-1 O2 + n^-3/2 O3 + n^-2 O4 with truncation
    error O(n^-5/2); every term carries a factor V, so symmetric moment
    states evaluate to zero exactly.
    """
    u, v, w, n = state.U, state.V, state.W, state.n
    o1 = _O1[0] * v
    o2 = _O2[0] * u * v + _O2[1] * v * w
    o3 = (
        _O3[0] * u * u * v
        + _O3[1] * u * v * w
        + _O3[2] * v**3
        + _O3[3] * v * w * w
    )
    o4 = (
        _O4[0] * u**3 * v
        + _O4[1] * u * u * v * w
        + _O4[2] * u * v**3
        + _O4[3] * u * v * w * w
        + _O4[4] * v**3 * w
        + _O4[5] * v * w**3
    )
    rn = math.sqrt(n)
    return o1 / rn + o2 / n + o3 / (n * rn) + o4 / (n * n)


def _require_n(sample: Sample, min_n: int) -> None:
    if sample.n < min_n:
        raise SampleTooSmallError(
            f"test requires n >= {min_n}, got {sample.n}"
        )


def _two_sided_p(z):
    return 2.0 * ndtr(-np.abs(z))


def _undefined(name: TestName) -> TestResult:
    return TestResult(name, math.nan, math.nan, math.nan, False)


# ---------------------------------------------------------------------------
# spms test


def _batch_spms(moments):
    """Row-wise spms values and defined mask from central_moment_arrays."""
    _, _, _, sqrt_b1, b2 = moments
    b1 = sqrt_b1 * sqrt_b1
    den = 5.0 * b2 - 6.0 * b1 - 9.0
    defined = np.abs(den) > _den_eps(b1, b2)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sqrt_b1 * (b2 + 3.0) / (2.0 * den)
    values = np.where(defined, values, np.nan)
    return values, defined


def spms_test(sample: Sample, series: str = "calibrated") -> TestResult:
    """Two-sided spms normality test via the S_U normalizing transform.

    A degenerate denominator or a non-finite statistic yields
    defined=False rather than an error so that replication harnesses can
    count such samples separately.
    """
    _require_n(sample, MIN_TEST_N)
    su = su_transform.su_params(sample.n, series=series)
    values, _ = _batch_spms(central_moment_arrays(sample.values[None, :]))
    value = float(values[0])
    if not math.isfinite(value):
        return _undefined(TestName.SPMS)
    z = su.z(value)
    return TestResult(TestName.SPMS, value, z, float(_two_sided_p(z)))


# ---------------------------------------------------------------------------
# sqrt(b1) test (exact-moment S_U normalization)


@lru_cache(maxsize=128)
def _sqrt_b1_constants(n: int):
    # exact null moments of sqrt(b1) under normality
    var = 6.0 * (n - 2) / ((n + 1.0) * (n + 3.0))
    beta2 = (
        3.0
        * (n * n + 27.0 * n - 70.0)
        * (n + 1.0)
        * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return var, delta, alpha


def _batch_sqrt_b1_z(moments, n: int):
    """Row-wise sqrt(b1) and z from central_moment_arrays at sample size n."""
    var, delta, alpha = _sqrt_b1_constants(n)
    _, _, _, sqrt_b1, _ = moments
    y = sqrt_b1 / math.sqrt(var)
    z = delta * np.arcsinh(y / alpha)
    return sqrt_b1, z


def sqrt_b1_test(sample: Sample) -> TestResult:
    """Two-sided skewness test normalizing sqrt(b1) by its exact null
    moments through the same asinh-form transform as the spms test."""
    _require_n(sample, MIN_TEST_N)
    raw, z = _batch_sqrt_b1_z(
        central_moment_arrays(sample.values[None, :]), sample.n
    )
    raw = float(raw[0])
    if not math.isfinite(raw):
        return _undefined(TestName.SQRT_B1)
    z = float(z[0])
    return TestResult(TestName.SQRT_B1, raw, z, float(_two_sided_p(z)))


# ---------------------------------------------------------------------------
# Shapiro-Wilk test (AS R94 normal approximation, vectorized)

# published AS R94 polynomial constants, highest degree first
_SW_C1 = (-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_C3 = (-0.0006714, 0.025054, -0.39978, 0.544)
_SW_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_SW_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_SW_C6 = (0.0030302, -0.082676, -0.4803)
_SW_G = (0.459, -2.273)
_SW_TINY = 1e-19


@lru_cache(maxsize=64)
def _sw_coefficients(n: int) -> np.ndarray:
    """Ascending-order AS R94 weight vector for sample size n."""
    n2 = n // 2
    i = np.arange(1, n2 + 1, dtype=np.float64)
    m = ndtri((i - 0.375) / (n + 0.25))  # lower-half scores, all negative
    summ2 = 2.0 * float(np.sum(m * m))
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = float(np.polyval(_SW_C1, rsn)) - m[0] / ssumm2
    a2 = float(np.polyval(_SW_C2, rsn)) - m[1] / ssumm2
    fac = math.sqrt(
        (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
        / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
    )
    a = np.empty(n2)
    a[0] = a1
    a[1] = a2
    a[2:] = -m[2:] / fac
    c = np.zeros(n)
    c[:n2] = -a  # minimum gets the most negative weight
    c[n - n2 :] = a[::-1]
    c.flags.writeable = False
    return c


def _sw_z_from_w(w, n: int):
    """AS R94 normal equivalent deviate of W; large z means small W."""
    w1 = np.maximum(1.0 - np.asarray(w, dtype=np.float64), _SW_TINY)
    y = np.log(w1)
    if n <= 11:
        gamma = np.polyval(_SW_G, n)
        inside = y < gamma
        yg = np.where(inside, -np.log(np.where(inside, gamma - y, 1.0)), np.inf)
        mu = np.polyval(_SW_C3, n)
        sigma = math.exp(np.polyval(_SW_C4, n))
        return (yg - mu) / sigma
    u = math.log(n)
    mu = np.polyval(_SW_C5, u)
    sigma = math.exp(np.polyval(_SW_C6, u))
    return (y - mu) / sigma


def _batch_sw(x: np.ndarray):
    """Row-wise W statistics and z values for a (reps, n) array."""
    n = x.shape[1]
    c = _sw_coefficients(n)
    xs = np.sort(x, axis=1)
    d = xs - xs.mean(axis=1, keepdims=True)
    # einsum, not matmul: BLAS kernels change summation order with the
    # row count, which would make a replication's W depend on chunk size
    num = np.einsum("ij,j->i", xs, c)
    w = (num * num) / np.einsum("ij,ij->i", d, d)
    np.clip(w, 0.0, 1.0, out=w)
    return w, _sw_z_from_w(w, n)


def shapiro_wilk_test(sample: Sample) -> TestResult:
    """Shapiro-Wilk W test with the AS R94 normal approximation.

    One-tailed: small W rejects, and p_value = 1 - Phi(z). Valid for
    8 <= n <= 5000, the approximation's published range. A non-finite W
    yields defined=False.
    """
    if sample.n > SW_MAX_N:
        raise SampleTooLargeError(
            f"Shapiro-Wilk approximation requires n <= {SW_MAX_N}, got {sample.n}"
        )
    _require_n(sample, SW_MIN_N)
    w, z = _batch_sw(sample.values[None, :])
    w = float(w[0])
    if not math.isfinite(w):
        return _undefined(TestName.SHAPIRO_WILK)
    z = float(z[0])
    return TestResult(TestName.SHAPIRO_WILK, w, z, float(ndtr(-z)))


# ---------------------------------------------------------------------------
# Lin-Mudholkar test


def _batch_lm_z(x: np.ndarray):
    """Row-wise Lin-Mudholkar r and z for a (reps, n) array.

    Correlates each observation with the cube root of the leave-one-out
    variance proxy sum(x_j^2, j != i) - (sum(x_j, j != i))^2/(n - 1).
    Centering first leaves r unchanged (the proxy is shift-invariant)
    and avoids large cancellations.
    """
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    s1 = xc.sum(axis=1, keepdims=True) - xc
    s2 = (xc * xc).sum(axis=1, keepdims=True) - xc * xc
    y = np.cbrt(s2 - s1 * s1 / (n - 1.0))
    yc = y - y.mean(axis=1, keepdims=True)
    sxx = np.einsum("ij,ij->i", xc, xc)
    syy = np.einsum("ij,ij->i", yc, yc)
    sxy = np.einsum("ij,ij->i", xc, yc)
    defined = syy > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sxy / np.sqrt(sxx * syy)
        r = np.clip(r, -1.0, 1.0)
        z = np.arctanh(r) * math.sqrt(n / 3.0)
    r = np.where(defined, r, np.nan)
    z = np.where(defined, z, np.nan)
    return r, z, defined


def lin_mudholkar_test(sample: Sample) -> TestResult:
    """Two-sided mean-variance correlation test for normality.

    raw_statistic is the correlation r; z = arctanh(r)*sqrt(n/3).

    Raises
    ------
    DegenerateCorrelationError
        If the leave-one-out variance proxies are all equal.
    """
    _require_n(sample, MIN_TEST_N)
    r, z, defined = _batch_lm_z(sample.values[None, :])
    if not defined[0]:
        raise DegenerateCorrelationError(
            "leave-one-out variance proxies are all equal"
        )
    z = float(z[0])
    return TestResult(
        TestName.LIN_MUDHOLKAR, float(r[0]), z, float(_two_sided_p(z))
    )
