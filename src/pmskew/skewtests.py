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
Sample's 1-D row, whose results one adapter turns into a TestResult.
On a row the reductions end as Python floats: a row's sum or mean is
subtracted as a float (_col gives a chunk's as a column), and the
finish (the moments, spms and the S_U z, W, r) does + - * / on Python
floats, which round as numpy scalars do at a fraction of the cost. A
Python float raises ZeroDivisionError where a numpy scalar gives inf or
NaN, so a division whose divisor can be 0 keeps a numpy scalar operand
(the moments' ratios, Lin-Mudholkar's r), and no power is taken with **,
which raises OverflowError on a Python float. The ufuncs whose last bit
can depend on numpy's SIMD target (np.log, np.arctanh, np.arcsinh,
np.power) stay numpy calls, which run the same loop on a scalar as on a
chunk row; the p-values' normal CDF, ndtr, is the normal module's, the
same on every target. The steps that do not round (NaN guards, clips,
finiteness checks) and the correctly rounded sqrt go through _nan_where,
_at_most, _at_least, _isfinite and _sqrt: the ufunc on an array, and on
a scalar a comparison, math.isfinite or math.sqrt, which give its bits
without the cost of its call. So both compute identical values, and
every test reports an undefined statistic the same way: defined=False
with NaN fields, never an error and never a NaN result marked defined.

The spms expression and its degenerate-denominator guard live in _spms
alone, which the kernel and population_pms share.

The spms and sqrt(b1) kernels take centred_moment_arrays' moments, and
the Lin-Mudholkar kernel the centred rows and the squares and row sums
those came from: a chunk centres, squares and sums its samples once, and
the scalar tests read all three from the Sample, which forms them at
validation. The array kernels work in place on their own temporaries
and silence the float overflow they can hit, each entering numpy's error
state once through the decorator moments._quiet: no test emits a numpy
warning at any scale a Sample accepts. _spms enters none: on a Sample it
sees Python floats, which warn of nothing, and on a chunk it runs inside
_chunk_statistics' own _quiet.

Every constant a test takes from n alone (the S_U transforms of spms and
sqrt(b1), Shapiro-Wilk's lower-half weights and z constants,
Lin-Mudholkar's sqrt(n/3)) sits in one _SizeConstants record per n, which
the scalar tests and the Monte Carlo chunks both read. A record for an n
up to SW_MAX_N = 5000 is built on first use and kept; nothing is evicted.
That range is finite, so the kept records never hold more than all 4,993
of them do: 51.9 MiB, 47.7 of it weights. A record above SW_MAX_N holds no
weights; the latest one is kept in one slot, so the tests of a Sample or
the kernels of a chunk build it once. Each value has the same bits
either way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# np.einsum's C entry, which np.einsum calls when optimize=False (its
# default): its Python wrapper costs more than a 1-D row's dot product
from numpy._core.multiarray import c_einsum as _einsum

from .errors import SampleTooLargeError, check_int, check_level, check_real
from .moments import MomentSummary, Sample, _quiet, _row_mean, central_moments
from .normal import ndtr, ndtri
# bound at import, so a record never keeps bench/tracing.py's su_params wrapper
from .su_transform import SuTransform, check_n, su_params
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
    generating sample, kept as Python floats (and n as an int).
    """

    U: float
    V: float
    W: float
    n: int

    def __post_init__(self):
        for name in ("U", "V", "W"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        object.__setattr__(self, "n", check_int("n", self.n, lo=1))

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


# The scalar finishes below keep the ufuncs off a 1-D row's scalars: plain
# ufuncs there cut scalar_tests t1 by about 11% (bench/run.py --seconds 6,
# 2 of 2 alternating pairs, 2 vCPUs).
def _nan_where(bad, x):
    """np.where(bad, nan, x)."""
    if isinstance(x, np.ndarray):
        return np.where(bad, np.nan, x)
    return math.nan if bad else x


def _at_most(x, hi):
    """np.minimum(x, hi): hi where x exceeds it, x elsewhere, NaN kept."""
    if isinstance(x, np.ndarray):
        return np.minimum(x, hi)
    return hi if x > hi else x


def _at_least(x, lo):
    """np.maximum(x, lo): lo where x is below it, x elsewhere, NaN kept."""
    if isinstance(x, np.ndarray):
        return np.maximum(x, lo)
    return lo if x < lo else x


def _isfinite(x):
    """np.isfinite(x)."""
    return np.isfinite(x) if isinstance(x, np.ndarray) else math.isfinite(x)


def _sqrt(x):
    """np.sqrt(x)."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _col(v):
    """v[..., None]: a chunk's row values as a column, broadcast across
    its rows; a 1-D row's single value as it is."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _spms(sqrt_b1, b2):
    """sqrt(b1)*(b2 + 3) / (2*(5*b2 - 6*b1 - 9)) elementwise, b1 = sqrt_b1**2.

    NaN where |5*b2 - 6*b1 - 9| is below a relative-scale guard. The
    denominator may legitimately be negative for small skewed samples;
    the sign is kept as-is. It enters no error state of its own: it sees
    Python floats, whose overflow gives inf and whose guarded divisor is
    never 0, or arrays inside _chunk_statistics' _quiet.
    """
    five_b2, six_b1 = 5.0 * b2, 6.0 * (sqrt_b1 * sqrt_b1)
    den = five_b2 - six_b1 - 9.0
    eps = 1e-12 * (1.0 + abs(five_b2) + abs(six_b1) + 9.0)
    den = _nan_where(abs(den) <= eps, den)
    return sqrt_b1 * (b2 + 3.0) / (2.0 * den)


def population_pms(sqrt_beta1: float, beta2: float) -> float:
    """Population Pearson measure of skewness from sqrt(beta1) and beta2;
    NaN on a degenerate denominator 5*beta2 - 6*beta1 - 9."""
    return _spms(float(sqrt_beta1), float(beta2))


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


def _lower_tail_p(z):
    """Shapiro-Wilk's one-tailed p-value: large z means small W."""
    return ndtr(-z)


def _one_row(name: TestName, kernel_out, p_value=_two_sided_p) -> TestResult:
    """The TestResult of a kernel's (raw, z, defined) on a 1-D row.

    It is built as the frozen __init__ builds it, the same __dict__ in
    field order, with one write in place of its five setattr calls: the
    fields, eq, hash, repr and pickle are the dataclass's own.
    """
    raw, z, defined = kernel_out
    if defined:
        z = float(z)
        raw, p = float(raw), float(p_value(z))
    else:
        raw = z = p = math.nan
    result = object.__new__(TestResult)
    object.__setattr__(result, "__dict__", {
        "test_name": name, "raw_statistic": raw, "z_value": z, "p_value": p,
        "defined": bool(defined),
    })
    return result


# ---------------------------------------------------------------------------
# per-n constants


@dataclass(frozen=True, slots=True)
class _SizeConstants:
    """What the four tests take from the sample size n alone. sw is None
    above SW_MAX_N, else _sw_constants(n): read-only lower-half weights
    and _sw_z_from_w's mu, sigma and gamma (None above n = 11)."""

    su: SuTransform  # the calibrated spms transform, su_params(n)
    b1: SuTransform  # sqrt(b1)'s exact-moment transform, _sqrt_b1_constants(n)
    sw: tuple | None
    lm_scale: float  # Lin-Mudholkar's sqrt(n / 3)


# records by n up to SW_MAX_N, read without a lock: an entry is only ever
# added, whole, by setdefault
_store: dict[int, _SizeConstants] = {}
# (n, record) of the latest n above SW_MAX_N, replaced whole
_large = (None, None)


def _size_constants(n) -> _SizeConstants:
    """A new record for n, or check_n's error for an n no test accepts."""
    n = check_n(n)
    sw = _sw_constants(n) if n <= SW_MAX_N else None
    return _SizeConstants(su_params(n), _sqrt_b1_constants(n), sw, math.sqrt(n / 3.0))


def _constants(n) -> _SizeConstants:
    """n's record, kept in _store from its first use if n <= SW_MAX_N,
    else in _large until another n above SW_MAX_N is looked up."""
    global _large
    rec = _store.get(n)
    if rec is None:
        large_n, rec = _large
        if large_n != n:
            rec = _size_constants(n)
            if n <= SW_MAX_N:
                rec = _store.setdefault(n, rec)  # another thread may be first
            else:
                _large = n, rec
    return rec


# ---------------------------------------------------------------------------
# spms test


def _batch_spms(moments, su):
    """Row-wise (spms, z, defined) from centred_moment_arrays, z through
    the S_U transform su; a degenerate denominator gives spms = NaN."""
    _, _, _, sqrt_b1, b2 = moments
    raw = _spms(sqrt_b1, b2)
    return raw, su.z(raw), _isfinite(raw)


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
    su = _constants(sample.n).su
    return _one_row(TestName.SPMS, _batch_spms(sample._moments, su))


# ---------------------------------------------------------------------------
# sqrt(b1) test (exact-moment S_U normalization)


def _sqrt_b1_constants(n: int) -> SuTransform:
    """D'Agostino's (1970) S_U transform of sqrt(b1) at sample size n,
    fitted to its exact null variance and kurtosis."""
    var = 6.0 * (n - 2) / ((n + 1.0) * (n + 3.0))
    beta2 = (
        3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    # su_params takes log(sqrt(w2)) instead: the last bits differ
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return SuTransform(n, var, beta2, w2, delta, alpha)


def _batch_sqrt_b1_z(moments, n: int):
    """Row-wise (sqrt(b1), z, defined) from centred_moment_arrays at
    sample size n."""
    _, _, _, sqrt_b1, _ = moments
    return sqrt_b1, _constants(n).b1.z(sqrt_b1), _isfinite(sqrt_b1)


def sqrt_b1_test(sample: Sample) -> TestResult:
    """Two-sided skewness test normalizing sqrt(b1) by its exact null
    moments through the same asinh-form transform as the spms test."""
    return _one_row(TestName.SQRT_B1, _batch_sqrt_b1_z(sample._moments, sample.n))


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


def _sw_constants(n: int):
    """(low, mu, sigma, gamma): low, read-only, holds the n // 2 lowest
    AS R94 weights for sample size n, most negative first (the scores
    m / fac with the two end weights), and mu, sigma and gamma map
    log(1 - W) to z, gamma None above n = 11. The full n-vector kept per
    record instead gave about +2% scalar_tests t1 for +10 MB of peak RSS
    (bench/run.py --seconds 6, 4 of 4 alternating pairs, 2 vCPUs), and
    Royston's sum of a_i (x_(n+1-i) - x_(i)) needs the lower half alone.
    The scores come from the normal module's ndtri, which costs more on
    first use per n than scipy's did: 58 us at n = 20 and 282 us at
    n = 5000, against scipy's 0.8 and 32 us (timeit, 2 vCPUs)."""
    n2 = n // 2
    m = (np.arange(1, n2 + 1, dtype=np.float64) - 0.375) / (n + 0.25)
    ndtri(m, out=m)  # lower-half scores, all negative
    m0, m1 = float(m[0]), float(m[1])
    summ2 = 2.0 * float(np.add.reduce(m * m))
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = float(np.polyval(_SW_C1, rsn)) - m0 / ssumm2
    a2 = float(np.polyval(_SW_C2, rsn)) - m1 / ssumm2
    fac = math.sqrt(
        (summ2 - 2.0 * m0**2 - 2.0 * m1**2) / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
    )
    # the minimum gets the most negative weight: -a = (-a1, -a2, m[2:]/fac)
    m /= fac
    m[:2] = -a1, -a2
    m.flags.writeable = False
    if n <= 11:
        u, c_mu, c_sigma, gamma = n, _SW_C3, _SW_C4, float(np.polyval(_SW_G, n))
    else:
        u, c_mu, c_sigma, gamma = math.log(n), _SW_C5, _SW_C6, None
    return m, float(np.polyval(c_mu, u)), math.exp(np.polyval(c_sigma, u)), gamma


def _sw_coefficients(low: np.ndarray, n: int) -> np.ndarray:
    """Ascending-order AS R94 weight vector for sample size n, a new array:
    the lower half low, zeros, and low negated in reverse order."""
    c = np.zeros(n)
    c[: low.size] = low
    np.negative(low[::-1], out=c[n - low.size :])
    return c


def _sw_z_from_w(w, mu: float, sigma: float, gamma):
    """AS R94 normal equivalent deviate of W; large z means small W. W is
    in [0, 1] or NaN, so y <= 0 < gamma (gamma > 1.39 for n in 8..11); a
    NaN W gives z = NaN."""
    y = np.log(_at_least(1.0 - w, _SW_TINY))
    if gamma is not None:
        y = -np.log(gamma - y)
    return (y - mu) / sigma


@_quiet
def _batch_sw(x: np.ndarray, xs=None):
    """Row-wise (W, z, defined) for an (..., n) array, n <= SW_MAX_N. x is
    not changed; its rows are sorted in xs, a float64 array of x's shape if
    given (its values are overwritten), else in a float64 copy of x. A
    1-D x is a Sample's values, whose positive variance W divides by."""
    n = x.shape[-1]
    low, mu, sigma, gamma = _constants(check_sw_n(n)).sw
    c = _sw_coefficients(low, n)
    if xs is None:
        xs = x.astype(np.float64)
    else:
        np.copyto(xs, x)
    xs.sort(axis=-1)  # in place: np.sort too copies, then sorts the copy
    # einsum, not matmul: BLAS kernels change summation order with the
    # row count, which would make a replication's W depend on chunk size
    num = _einsum("...j,j->...", xs, c)
    xs -= _col(_row_mean(xs))
    den = _einsum("...j,...j->...", xs, xs)
    if xs.ndim == 1:
        # a Sample's row finishes on Python floats: its variance is
        # positive, so den is too, or inf or NaN where it overflows
        num, den = float(num), float(den)
    w = (num * num) / den
    w = _at_most(w, 1.0)  # np.clip(w, 0, 1): w is NaN or at least +0.0
    return w, _sw_z_from_w(w, mu, sigma, gamma), _isfinite(w)


def shapiro_wilk_test(sample: Sample) -> TestResult:
    """Shapiro-Wilk W test with the AS R94 normal approximation.

    One-tailed: small W rejects, and p_value = 1 - Phi(z). Valid for
    8 <= n <= 5000, the approximation's published range. A non-finite W
    yields defined=False.
    """
    return _one_row(TestName.SHAPIRO_WILK, _batch_sw(sample.values), _lower_tail_p)


# ---------------------------------------------------------------------------
# Lin-Mudholkar test


@_quiet
def _batch_lm_z(xc: np.ndarray, sq: np.ndarray, sq_sum, y=None, s1=None):
    """Row-wise Lin-Mudholkar (r, z, defined) of centred (..., n) rows xc,
    x - x.mean(axis=-1, keepdims=True), and their moments._squares sq,
    sq_sum; only y and s1 are written. A row whose proxies are all equal
    gets r = 0/0 = NaN: so does every row whose centred proxies have a
    root mean square within 1e-12 of the proxies' mean (the row mean of
    equal proxies need not round back to their value, so they centre to
    rounding residue, not zeros), and a row whose sxx * syy overflows
    (scales near 1e100 and above). |r| = 1 gives z = +-inf.

    Correlates each observation with the cube root of the leave-one-out
    variance proxy sum(x_j^2, j != i) - (sum(x_j, j != i))^2/(n - 1).
    Centering first leaves r unchanged (the proxy is shift-invariant)
    and avoids large cancellations. The proxy is built in place in two
    block-sized temporaries, y and s1: float64 arrays of xc's shape,
    overwritten, if given, else new ones; y may be sq itself.
    """
    n = xc.shape[-1]
    scale = _constants(n).lm_scale
    y = np.subtract(_col(sq_sum), sq, out=y)
    s1 = np.subtract(_col(np.add.reduce(xc, axis=-1)), xc, out=s1)
    s1 *= s1
    s1 /= n - 1.0
    y -= s1
    np.cbrt(y, out=y)
    ym = _row_mean(y)
    y -= _col(ym)
    sxx = _einsum("...j,...j->...", xc, xc)
    syy = _einsum("...j,...j->...", y, y)
    sxy = _einsum("...j,...j->...", xc, y)
    if xc.ndim == 1:
        # a Sample's row finishes on Python floats; sxy stays a numpy
        # scalar, so r divides as numpy does
        ym, sxx, syy = float(ym), float(sxx), float(syy)
    ss = sxx * syy
    # an overflow (ss = inf; ss is never -inf) would read r = 0; centred
    # proxies whose root mean square is within 1e-12 of their mean are the
    # rounding residue of equal proxies, whose r is 0/0
    tol = 1e-12 * ym
    ss = _nan_where((ss == math.inf) | (syy <= n * tol * tol), ss)
    r = sxy / _sqrt(ss)
    r = _at_most(_at_least(r, -1.0), 1.0)  # np.clip's bits, NaN kept
    z = np.arctanh(r) * scale
    return r, z, _isfinite(z)


def lin_mudholkar_test(sample: Sample) -> TestResult:
    """Two-sided mean-variance correlation test for normality.

    raw_statistic is the correlation r; z = arctanh(r)*sqrt(n/3). If the
    leave-one-out variance proxies are all equal, r is undefined and the
    result has defined=False.
    """
    lm = _batch_lm_z(sample._centred, *sample._squares)
    return _one_row(TestName.LIN_MUDHOLKAR, lm)
