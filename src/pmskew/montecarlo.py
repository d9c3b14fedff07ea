"""Monte Carlo experiments: null calibration, power, histograms, moments.

Replications are independent work items: replication r draws its sample
from the Philox stream (seed, r), so the variate sequence is fixed by the
seed alone. Work is split into fixed-size chunks (independent of the
thread count) distributed over a thread pool, and per-chunk aggregates are
reduced in chunk order, so every result is bit-identical for a given seed
whether run on 1 or k threads.

Each chunk builds one Philox generator and, before each replication r,
re-keys it to (seed, r) with counter 0 (distributions.stream_rekeyer).
That is the state a generator built for stream (seed, r) starts in, so the
variates, and every output byte, are those of one generator per
replication, without the cost of building one per replication. A chunk's
generator is never shared with another thread.

Power experiments default to simulated critical values: each test's
rejection threshold is the appropriate empirical quantile of the test
statistic over a large null run at the same n (streams (seed, 2**48 + j),
disjoint from the experiment streams). This is the protocol that
reproduces the reference power table; the spms and Lin-Mudholkar z
approximations are visibly miscalibrated at n <= 100, where asymptotic
thresholds distort power by up to 0.11. critical_values="asymptotic"
selects plain |z| > z_{1-level/2} rejection instead.
"""

from __future__ import annotations

import enum
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .distributions import (
    AlternativeSpec,
    Family,
    SeededStream,
    check_u64,
    draw_values,
    stream_rekeyer,
)
from .errors import (
    InvalidLevelError,
    InvalidParamsError,
    SampleTooLargeError,
    SampleTooSmallError,
)
from .moments import central_moment_arrays
from .skewtests import (
    SW_MAX_N,
    TestName,
    _batch_lm_z,
    _batch_spms,
    _batch_sqrt_b1_z,
    _batch_sw,
    _sw_z_from_w,
)
from .su_transform import beta2_spms, lambda2, su_params

__all__ = [
    "Statistic",
    "CalibrationRow",
    "PowerCell",
    "HistogramData",
    "MomentRow",
    "MomentValidation",
    "calibrate",
    "power_study",
    "null_histogram",
    "moment_validation",
    "ALL_TESTS",
]

CHUNK_SIZE = 4096
CALIBRATION_STREAM_BASE = 2**48

_NORMAL = AlternativeSpec(Family.NORMAL)

ALL_TESTS = (
    TestName.SPMS,
    TestName.SQRT_B1,
    TestName.SHAPIRO_WILK,
    TestName.LIN_MUDHOLKAR,
)


class Statistic(str, enum.Enum):
    """Statistic tracked by null_histogram: raw spms or its normalized Z."""

    SPMS_RAW = "spms"
    SPMS_Z = "z"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CalibrationRow:
    """Null rejection rates of the spms test at one sample size."""

    n: int
    reps: int
    levels: tuple[float, ...]
    rejection_rates: tuple[float, ...]
    undefined_count: int


@dataclass(frozen=True)
class PowerCell:
    """Rejection fractions of the requested tests against one alternative."""

    alternative: AlternativeSpec
    n: int
    reps: int
    level: float
    powers: dict[TestName, float]
    undefined_counts: dict[TestName, int]


@dataclass(frozen=True)
class HistogramData:
    """Binned null distribution of a statistic.

    sum(counts) + out_of_range == reps always holds; replications with an
    undefined statistic are counted as out of range.
    """

    statistic_name: Statistic
    n: int
    reps: int
    bin_edges: np.ndarray
    counts: np.ndarray
    out_of_range: int


@dataclass(frozen=True)
class MomentRow:
    quantity: str
    empirical: float
    series: float
    se: float


@dataclass(frozen=True)
class MomentValidation:
    """Empirical null moments of spms against their series values."""

    n: int
    reps: int
    rows: tuple[MomentRow, ...]
    undefined_count: int


def _check_common(n: int, reps: int, seed) -> tuple[int, int, int]:
    n, reps = int(n), int(reps)
    if n < 8:
        raise SampleTooSmallError(f"experiments require n >= 8, got {n}")
    if reps < 1:
        raise InvalidParamsError(f"reps must be positive, got {reps}")
    return n, reps, check_u64("seed", seed)


def _check_level(level: float) -> float:
    level = float(level)
    if not 0.0 < level < 1.0:
        raise InvalidLevelError(f"level must be in (0, 1), got {level}")
    return level


def _spans(reps: int):
    return [(s, min(s + CHUNK_SIZE, reps)) for s in range(0, reps, CHUNK_SIZE)]


def _draw_chunk(spec, n, seed, span, base=0):
    """Row j holds the n variates of stream (seed, base + span[0] + j)."""
    start, stop = span
    rng = SeededStream(seed, base + start).generator()
    set_stream = stream_rekeyer(rng)
    x = np.empty((stop - start, n))
    for j, r in enumerate(range(base + start, base + stop)):
        set_stream(r)
        x[j] = draw_values(spec, n, rng)
    return x


def _map_chunks(work, reps: int, threads: int) -> list:
    spans = _spans(reps)
    if threads <= 1:
        return [work(s) for s in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, spans))


def _null_spms(n, reps, seed, threads):
    """Defined null spms values of replications 0..reps-1, in order."""

    def work(span):
        x = _draw_chunk(_NORMAL, n, seed, span)
        values, defined = _batch_spms(central_moment_arrays(x))
        return values[defined]

    return np.concatenate(_map_chunks(work, reps, threads))


def calibrate(
    n: int,
    reps: int,
    levels,
    seed: int,
    threads: int = 1,
) -> CalibrationRow:
    """Null rejection rates of the two-sided spms test.

    Draws reps standard normal samples of size n (replication r on stream
    (seed, r)), applies the spms Z transform, and counts |Z| > z_{1-l/2}
    for each level. Undefined replications are counted separately, never
    as rejections.
    """
    n, reps, seed = _check_common(n, reps, seed)
    levels = tuple(_check_level(l) for l in levels)
    if not levels:
        raise InvalidParamsError("levels must be nonempty")
    az = np.abs(su_params(n).z(_null_spms(n, reps, seed, threads)))
    counts = [
        np.count_nonzero(az > t) for t in ndtri(1.0 - np.array(levels) / 2.0)
    ]
    return CalibrationRow(
        n=n,
        reps=reps,
        levels=levels,
        rejection_rates=tuple(float(c) / reps for c in counts),
        undefined_count=int(reps - az.size),
    )


def _normalize_tests(tests) -> tuple[TestName, ...]:
    try:
        wanted = {TestName(t) for t in tests}
    except ValueError:
        raise InvalidParamsError(f"unknown test name in {tuple(tests)!r}")
    if not wanted:
        raise InvalidParamsError("tests must be nonempty")
    return tuple(t for t in ALL_TESTS if t in wanted)


def _chunk_statistics(x, tests, su):
    """Per-test (statistic array, defined mask) for one chunk of samples.

    z-based tests report |z|; Shapiro-Wilk reports W (small rejects).
    The central moments behind spms and sqrt(b1) are computed once.
    """
    if TestName.SPMS in tests or TestName.SQRT_B1 in tests:
        moments = central_moment_arrays(x)
    out = {}
    for test in tests:
        if test is TestName.SPMS:
            values, defined = _batch_spms(moments)
            with np.errstate(invalid="ignore"):
                stat = np.abs(su.z(values))
            out[test] = (stat, defined)
        elif test is TestName.SQRT_B1:
            _, z = _batch_sqrt_b1_z(moments, x.shape[1])
            out[test] = (np.abs(z), np.ones(len(z), dtype=bool))
        elif test is TestName.SHAPIRO_WILK:
            w, _ = _batch_sw(x)
            out[test] = (w, np.ones(len(w), dtype=bool))
        else:
            _, z, defined = _batch_lm_z(x)
            with np.errstate(invalid="ignore"):
                out[test] = (np.abs(z), defined)
    return out


_null_cache: dict = {}
_null_cache_lock = threading.Lock()


def _null_reference(n, seed, null_reps, tests, threads):
    """Null statistic pools used for simulated critical values.

    Pools are cached under (n, seed, null_reps, tests) and are read-only.
    The cache holds one table: the pools of every n for the latest
    (seed, null_reps, tests). Building a pool for another configuration
    drops the previous table, so a power table's cells share their pools
    across alternatives and memory stays at one table's worth.
    """
    key = (n, seed, null_reps, tests)
    with _null_cache_lock:
        hit = _null_cache.get(key)
    if hit is not None:
        return hit
    su = su_params(n)

    def work(span):
        x = _draw_chunk(_NORMAL, n, seed, span, base=CALIBRATION_STREAM_BASE)
        return _chunk_statistics(x, tests, su)

    parts = _map_chunks(work, null_reps, threads)
    pools = {}
    for test in tests:
        stat = np.concatenate([p[test][0] for p in parts])
        defined = np.concatenate([p[test][1] for p in parts])
        pools[test] = stat[defined]
        pools[test].flags.writeable = False  # shared by every later lookup
    with _null_cache_lock:
        if any(k[1:] != key[1:] for k in _null_cache):
            _null_cache.clear()
        _null_cache[key] = pools
    return pools


def power_study(
    alternative: AlternativeSpec,
    n: int,
    reps: int,
    level: float,
    tests=ALL_TESTS,
    seed: int = 0,
    threads: int = 1,
    critical_values: str = "simulated",
    null_reps: int = 100_000,
) -> PowerCell:
    """Rejection fraction of each requested test against an alternative.

    Every requested test is applied to the same sample in each replication
    (common random numbers). critical_values="simulated" (default) rejects
    beyond empirical null quantiles at the same n, taken over null_reps
    (>= 1) null replications that later calls with the same seed, null_reps
    and tests reuse; "asymptotic" uses each test's nominal normal
    approximation directly and ignores null_reps.
    """
    n, reps, seed = _check_common(n, reps, seed)
    level = _check_level(level)
    tests = _normalize_tests(tests)
    if critical_values == "simulated":
        null_reps = int(null_reps)
        if null_reps < 1:
            raise InvalidParamsError(
                f"null_reps must be positive, got {null_reps}"
            )
    if TestName.SHAPIRO_WILK in tests and n > SW_MAX_N:
        raise SampleTooLargeError(
            f"Shapiro-Wilk requires n <= {SW_MAX_N}, got {n}"
        )
    su = su_params(n)

    if critical_values == "simulated":
        pools = _null_reference(n, seed, null_reps, tests, threads)
        crit = {}
        for test in tests:
            if test is TestName.SHAPIRO_WILK:
                crit[test] = float(np.quantile(pools[test], level))
            else:
                crit[test] = float(np.quantile(pools[test], 1.0 - level))
    elif critical_values == "asymptotic":
        two_sided = float(ndtri(1.0 - level / 2.0))
        crit = {}
        for test in tests:
            if test is TestName.SHAPIRO_WILK:
                # one-tailed in W via its normal deviate: p < level
                crit[test] = float(ndtri(1.0 - level))
            else:
                crit[test] = two_sided
    else:
        raise InvalidParamsError(
            f'critical_values must be "simulated" or "asymptotic", '
            f"got {critical_values!r}"
        )

    def work(span):
        x = _draw_chunk(alternative, n, seed, span)
        stats = _chunk_statistics(x, tests, su)
        rejects = {}
        bad = {}
        for test in tests:
            stat, defined = stats[test]
            if test is TestName.SHAPIRO_WILK:
                if critical_values == "simulated":
                    hit = stat < crit[test]
                else:
                    hit = _sw_z_from_w(stat, n) > crit[test]
            else:
                hit = stat > crit[test]
            rejects[test] = int(np.count_nonzero(hit & defined))
            bad[test] = int(np.count_nonzero(~defined))
        return rejects, bad

    totals = {t: 0 for t in tests}
    undefined = {t: 0 for t in tests}
    for rejects, bad in _map_chunks(work, reps, threads):
        for t in tests:
            totals[t] += rejects[t]
            undefined[t] += bad[t]
    return PowerCell(
        alternative=alternative,
        n=n,
        reps=reps,
        level=level,
        powers={t: totals[t] / reps for t in tests},
        undefined_counts=undefined,
    )


def null_histogram(
    statistic,
    n: int,
    reps: int,
    bins: int,
    seed: int,
    threads: int = 1,
    value_range: tuple[float, float] | None = None,
) -> HistogramData:
    """Histogram of the null spms statistic or its normalized Z.

    Bin edges span the empirical mean +- 5 standard deviations unless
    value_range overrides them.
    """
    n, reps, seed = _check_common(n, reps, seed)
    try:
        statistic = Statistic(statistic)
    except ValueError:
        raise InvalidParamsError(f"unknown statistic {statistic!r}")
    bins = int(bins)
    if bins < 2:
        raise InvalidParamsError(f"bins must be at least 2, got {bins}")
    if value_range is not None:
        lo, hi = map(float, value_range)
        if not -np.inf < lo < hi < np.inf:
            raise InvalidParamsError(
                f"value_range must be finite and increasing, got ({lo}, {hi})"
            )
    values = _null_spms(n, reps, seed, threads)
    if statistic is Statistic.SPMS_Z:
        values = su_params(n).z(values)
    if value_range is None:
        mean = float(values.mean())
        sd = float(values.std())
        lo, hi = mean - 5.0 * sd, mean + 5.0 * sd
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return HistogramData(
        statistic_name=statistic,
        n=n,
        reps=reps,
        bin_edges=edges,
        counts=counts,
        out_of_range=int(reps - counts.sum()),
    )


def moment_validation(
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> MomentValidation:
    """Empirical null mean/variance/third moment/kurtosis of spms versus
    the asymptotic series values, with Monte Carlo standard errors.

    SEs use the normal approximation of the null distribution: se(mean) =
    sqrt(lambda2/reps), se(var) = lambda2*sqrt(2/reps), se(m3) =
    sqrt(6*lambda2^3/reps), se(b2) = sqrt(24/reps).
    """
    n, reps, seed = _check_common(n, reps, seed)
    if reps < 2:
        raise InvalidParamsError(f"moment validation needs reps >= 2, got {reps}")
    values = _null_spms(n, reps, seed, threads)
    lam2 = lambda2(n)
    bet2 = beta2_spms(n)
    mean = float(values.mean())
    d = values - mean
    var = float((d * d).mean())
    m3 = float((d**3).mean())
    m4 = float((d**4).mean())
    rows = (
        MomentRow("mean", mean, 0.0, float(np.sqrt(lam2 / reps))),
        MomentRow("variance", var, lam2, float(lam2 * np.sqrt(2.0 / reps))),
        MomentRow(
            "third_moment", m3, 0.0, float(np.sqrt(6.0 * lam2**3 / reps))
        ),
        MomentRow(
            "kurtosis", m4 / (var * var), bet2, float(np.sqrt(24.0 / reps))
        ),
    )
    return MomentValidation(
        n=n, reps=reps, rows=rows, undefined_count=int(reps - values.size)
    )
