"""The spms statistic, its series expansion, and three comparison tests.

All four tests share the TestResult interface: a raw statistic, a normal
equivalent deviate z, and a p-value. The spms, sqrt(b1), and Lin-Mudholkar
tests are two-sided in z; Shapiro-Wilk is one-tailed (small W rejects) and
its p-value is reported accordingly.

Each test has a private batch kernel over samples along the last axis,
and every kernel returns the same three row-wise results: (raw, z,
defined), where raw is the test statistic, z its normal deviate and
defined = isfinite(raw). An undefined row (a degenerate spms denominator
or Lin-Mudholkar correlation, or moments that overflow near the float64
limits) has raw = NaN. Lin-Mudholkar alone uses defined = isfinite(z):
its z = arctanh(r) is infinite at |r| = 1. The Monte Carlo harness runs
the kernels on 2-D chunks; the scalar entry points run them on a
Sample's 1-D row, whose numpy scalars one adapter turns into a
TestResult. numpy uses the same loops for both, so both compute
identical values and every test reports an undefined statistic the same
way: defined=False with NaN fields, never an error and never a NaN
result marked defined.

The spms expression and its degenerate-denominator guard live in _spms
alone, which the kernel and population_pms share.

The spms and sqrt(b1) kernels take the moments returned by
centred_moment_arrays and the Lin-Mudholkar kernel rows already centred,
so a chunk centres its samples and computes their moments once; the
scalar tests read both from the Sample, which computes them at
validation. The kernels work in place on their own temporaries and
silence the float overflow they can hit: no test emits a numpy warning
at any scale a Sample accepts.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from . import su_transform
from .errors import InvalidLevelError, SampleTooLargeError
from .moments import MomentSummary, Sample, _row_mean, central_moments
# central_moment_arrays is no longer called here; the benchmark's tracer
# (bench/tracing.py) times the moments layer through this name
from .moments import central_moment_arrays

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
]

SW_MAX_N = 5000


def check_level(level) -> float:
    """The one significance-level rule: level as a float, or
    InvalidLevelError unless it is a number in the open interval (0, 1)."""
    if isinstance(level, numbers.Real) and 0.0 < level < 1.0:
        return float(level)
    raise InvalidLevelError(f"level must be in (0, 1), got {level!r}")


def check_sw_n(n: int) -> int:
    """n, or SampleTooLargeError above SW_MAX_N, the end of the range the
    AS R94 approximation was fitted over."""
    if n > SW_MAX_N:
        raise SampleTooLargeError(f"Shapiro-Wilk requires n <= {SW_MAX_N}, got {n}")
    return n


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
        """Rejection at the given significance level: p_value < level.

        The p-value already carries the test's sidedness: two-sided in z
        for spms, sqrt(b1) and Lin-Mudholkar, one-tailed (small W
        rejects) for Shapiro-Wilk.
        """
        level = check_level(level)
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


def _spms(sqrt_b1, b2):
    """sqrt(b1)*(b2 + 3) / (2*(5*b2 - 6*b1 - 9)) elementwise, b1 = sqrt_b1**2.

    NaN where |5*b2 - 6*b1 - 9| is below a relative-scale guard. The
    denominator may legitimately be negative for small skewed samples;
    the sign is kept as-is.
    """
    five_b2, six_b1 = 5.0 * b2, 6.0 * (sqrt_b1 * sqrt_b1)
    den = five_b2 - six_b1 - 9.0
    eps = 1e-12 * (1.0 + abs(five_b2) + abs(six_b1) + 9.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = np.where(abs(den) <= eps, np.nan, den)
        return sqrt_b1 * (b2 + 3.0) / (2.0 * den)


def population_pms(sqrt_beta1: float, beta2: float) -> float:
    """Population Pearson measure of skewness from sqrt(beta1) and beta2;
    NaN on a degenerate denominator 5*beta2 - 6*beta1 - 9."""
    return float(_spms(sqrt_beta1, beta2))


def spms_statistic(summary: MomentSummary) -> float:
    """Sample Pearson measure of skewness: population_pms of the sample's
    sqrt(b1) and b2."""
    return population_pms(summary.sqrt_b1, summary.b2)


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
    states evaluate to zero exactly. NaN if a power of U, V or W
    overflows, as it does for samples scaled by about 1e24 and more.
    """
    u, v, w, n = state.U, state.V, state.W, state.n
    o1 = _O1[0] * v
    o2 = _O2[0] * u * v + _O2[1] * v * w
    try:
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
    except OverflowError:  # float ** int raises where float * float gives inf
        return math.nan
    rn = math.sqrt(n)
    return o1 / rn + o2 / n + o3 / (n * rn) + o4 / (n * n)


def _two_sided_p(z):
    return 2.0 * ndtr(-abs(z))


def _one_row(name: TestName, kernel_out, p_value=_two_sided_p) -> TestResult:
    """The TestResult of a kernel's (raw, z, defined) on a 1-D row."""
    raw, z, defined = kernel_out
    if not defined:
        return TestResult(name, math.nan, math.nan, math.nan, False)
    z = float(z)
    return TestResult(name, float(raw), z, float(p_value(z)))


# ---------------------------------------------------------------------------
# spms test


def _batch_spms(moments, su):
    """Row-wise (spms, z, defined) from centred_moment_arrays, z through
    the S_U transform su; a degenerate denominator gives spms = NaN."""
    _, _, _, sqrt_b1, b2 = moments
    raw = _spms(sqrt_b1, b2)
    return raw, su.z(raw), np.isfinite(raw)


def spms_test(sample: Sample) -> TestResult:
    """Two-sided spms normality test via the calibrated S_U transform.

    A degenerate denominator or a non-finite statistic yields
    defined=False rather than an error so that replication harnesses can
    count such samples separately.

    The p-value is close to nominal from about n = 100 on, and too small
    below that: 20,000 null samples (calibrate, seed 1) reject at levels
    0.01/0.05 in 0.1467/0.29195 of cases at n = 8, 0.11055/0.21855 at
    n = 20, 0.0264/0.08775 at n = 50 and 0.0115/0.0594 at n = 100. For
    small n, compare against simulated critical values instead
    (power_study's default).
    """
    su = su_transform.su_params(sample.n)
    return _one_row(TestName.SPMS, _batch_spms(sample._moments, su))


# ---------------------------------------------------------------------------
# sqrt(b1) test (exact-moment S_U normalization)


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
    """Row-wise (sqrt(b1), z, defined) from centred_moment_arrays at
    sample size n."""
    var, delta, alpha = _sqrt_b1_constants(n)
    _, _, _, sqrt_b1, _ = moments
    y = sqrt_b1 / math.sqrt(var)
    z = delta * np.arcsinh(y / alpha)
    return sqrt_b1, z, np.isfinite(sqrt_b1)


def sqrt_b1_test(sample: Sample) -> TestResult:
    """Two-sided skewness test normalizing sqrt(b1) by its exact null
    moments through the same asinh-form transform as the spms test."""
    su_transform.check_n(sample.n)
    kernel_out = _batch_sqrt_b1_z(sample._moments, sample.n)
    return _one_row(TestName.SQRT_B1, kernel_out)


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


def _horner(coeffs, x: float) -> float:
    """np.polyval(coeffs, x) for a scalar x, rounded identically."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


@lru_cache(maxsize=64)
def _sw_coefficients(n: int) -> np.ndarray:
    """Ascending-order AS R94 weight vector for sample size n."""
    n2 = n // 2
    m = (np.arange(1, n2 + 1, dtype=np.float64) - 0.375) / (n + 0.25)
    ndtri(m, out=m)  # lower-half scores, all negative
    m0, m1 = float(m[0]), float(m[1])
    summ2 = 2.0 * float(np.add.reduce(m * m))
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = _horner(_SW_C1, rsn) - m0 / ssumm2
    a2 = _horner(_SW_C2, rsn) - m1 / ssumm2
    fac = math.sqrt(
        (summ2 - 2.0 * m0**2 - 2.0 * m1**2) / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
    )
    # the minimum gets the most negative weight: -a = (-a1, -a2, m[2:]/fac)
    c = np.zeros(n)
    low = np.divide(m, fac, out=c[:n2])
    low[:2] = -a1, -a2
    np.negative(low[::-1], out=c[n - n2 :])
    c.flags.writeable = False
    return c


def _sw_z_from_w(w, n: int):
    """AS R94 normal equivalent deviate of W; large z means small W."""
    w1 = np.maximum(1.0 - w, _SW_TINY)
    y = np.log(w1)
    if n <= 11:
        gamma = _horner(_SW_G, n)
        inside = y < gamma
        yg = np.where(inside, -np.log(np.where(inside, gamma - y, 1.0)), np.inf)
        mu = _horner(_SW_C3, n)
        sigma = math.exp(_horner(_SW_C4, n))
        return (yg - mu) / sigma
    u = math.log(n)
    mu = _horner(_SW_C5, u)
    sigma = math.exp(_horner(_SW_C6, u))
    return (y - mu) / sigma


def _batch_sw(x: np.ndarray, xs=None):
    """Row-wise (W, z, defined) for an (..., n) array. x is not changed;
    its rows are sorted in xs, a float64 array of x's shape if given (its
    values are overwritten), else in a new one."""
    n = x.shape[-1]
    c = _sw_coefficients(n)
    if xs is None:
        xs = np.empty(x.shape)
    np.copyto(xs, x)
    xs.sort(axis=-1)  # in place: np.sort too copies, then sorts the copy
    # einsum, not matmul: BLAS kernels change summation order with the
    # row count, which would make a replication's W depend on chunk size
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.einsum("...j,j->...", xs, c)
        xs -= _row_mean(xs, keepdims=True)
        w = (num * num) / np.einsum("...j,...j->...", xs, xs)
    w = np.minimum(w, 1.0)  # np.clip(w, 0, 1): w is NaN or at least +0.0
    return w, _sw_z_from_w(w, n), np.isfinite(w)


def shapiro_wilk_test(sample: Sample) -> TestResult:
    """Shapiro-Wilk W test with the AS R94 normal approximation.

    One-tailed: small W rejects, and p_value = 1 - Phi(z). Valid for
    8 <= n <= 5000, the approximation's published range. A non-finite W
    yields defined=False.
    """
    check_sw_n(su_transform.check_n(sample.n))
    kernel_out = _batch_sw(sample.values)
    return _one_row(TestName.SHAPIRO_WILK, kernel_out, lambda z: ndtr(-z))


# ---------------------------------------------------------------------------
# Lin-Mudholkar test


def _batch_lm_z(xc: np.ndarray, y=None, s1=None):
    """Row-wise Lin-Mudholkar (r, z, defined) for an (..., n) array whose
    rows are already centred (x - x.mean(axis=-1, keepdims=True)); xc is
    not changed. A row whose centred proxies are all zero (all proxies
    equal) gets r = 0/0 = NaN, and so does a row whose sxx * syy
    overflows (scales near 1e100 and above). |r| = 1 gives z = +-inf.

    Correlates each observation with the cube root of the leave-one-out
    variance proxy sum(x_j^2, j != i) - (sum(x_j, j != i))^2/(n - 1).
    Centering first leaves r unchanged (the proxy is shift-invariant)
    and avoids large cancellations. The proxy is built in place in two
    block-sized temporaries, y and s1: float64 arrays of xc's shape,
    overwritten without being read, if given, else new ones.
    """
    n = xc.shape[-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.multiply(xc, xc, out=y)
        np.subtract(np.add.reduce(y, axis=-1, keepdims=True), y, out=y)
        s1 = np.subtract(np.add.reduce(xc, axis=-1, keepdims=True), xc, out=s1)
        s1 *= s1
        s1 /= n - 1.0
        y -= s1
        np.cbrt(y, out=y)
        y -= _row_mean(y, keepdims=True)
        sxx = np.einsum("...j,...j->...", xc, xc)
        syy = np.einsum("...j,...j->...", y, y)
        sxy = np.einsum("...j,...j->...", xc, y)
        ss = sxx * syy
        ss = np.where(np.isinf(ss), np.nan, ss)  # an overflow would read r = 0
        r = sxy / np.sqrt(ss)
        r = np.minimum(np.maximum(r, -1.0), 1.0)  # np.clip's bits, NaN kept
        z = np.arctanh(r) * math.sqrt(n / 3.0)
        return r, z, np.isfinite(z)


def lin_mudholkar_test(sample: Sample) -> TestResult:
    """Two-sided mean-variance correlation test for normality.

    raw_statistic is the correlation r; z = arctanh(r)*sqrt(n/3). If the
    leave-one-out variance proxies are all equal, r is undefined and the
    result has defined=False.
    """
    su_transform.check_n(sample.n)
    kernel_out = _batch_lm_z(sample._centred)
    return _one_row(TestName.LIN_MUDHOLKAR, kernel_out)
