"""Monte Carlo experiments: null calibration, power, histograms, moments.

Replications are independent work items: replication r draws its sample
from the Philox stream (seed, r), so the variate sequence is fixed by the
seed alone. Work is split into chunks distributed over a thread pool,
and per-chunk aggregates are reduced in chunk order, so every result is
bit-identical for a given seed whether run on 1 or k threads.

A chunk holds a fixed budget of float64 values, not a fixed number of
replications: max(1, CHUNK_SIZE // n) rows of n values, about 1 MiB,
so a chunk and the few temporaries its statistics need stay small enough
for the CPU caches at every n. Chunking depends on n alone, never on the
thread count. Every statistic of a row is computed from that row alone,
with summation orders that do not depend on how many rows share its chunk,
so the rows per chunk change no result either.

Each chunk builds one Philox generator and, before each replication r,
re-keys it to (seed, r) with counter 0 (distributions.stream_rekeyer).
That is the state a generator built for stream (seed, r) starts in, so the
variates, and every output byte, are those of one generator per
replication, without the cost of building one per replication; one
distributions.row_filler per chunk writes each replication straight into
its chunk row. A chunk's generator is never shared with another thread,
and a job of one chunk runs on the calling thread. The chunk is then centred
in place once, and that one block feeds the central moments and the
Lin-Mudholkar kernel. Every test's kernel gives each chunk the same three
row-wise arrays, (raw, z, defined) (see skewtests for when a row is
defined); rows that are not defined are counted as undefined and never as
rejections.

One null pipeline, _null_statistics (draw normal rows, run the kernels,
keep the defined rows), serves calibrate, null_histogram,
moment_validation and the null pools of power_study. Runs are kept by
their own arguments, every n of the two latest configurations, so these
summaries of one (n, reps, seed, threads) simulate the null once.

Power experiments default to simulated critical values: each test's
rejection threshold is the appropriate empirical quantile of the test
statistic over a large null run at the same n (streams (seed, 2**48 + j),
disjoint from the experiment streams). This is the protocol that
reproduces the reference power table; the spms and Lin-Mudholkar z
approximations are visibly miscalibrated at n <= 100, where asymptotic
thresholds distort power by up to 0.11. critical_values="asymptotic"
selects plain |z| > z_{1-level/2} rejection instead. Both go through one
tail rule, _rejects.
"""

from __future__ import annotations

import enum
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .distributions import (
    AlternativeSpec,
    Family,
    SeededStream,
    check_u64,
    draw_values,  # no longer called here; bench/tracing.py wraps this name
    row_filler,
    stream_rekeyer,
)
from .errors import (
    InvalidLevelError,
    InvalidParamsError,
    SampleTooLargeError,
    SampleTooSmallError,
)
from .moments import centred_moment_arrays
from .skewtests import (
    SW_MAX_N,
    TestName,
    _batch_lm_z,
    _batch_spms,
    _batch_sqrt_b1_z,
    _batch_sw,
)
from .su_transform import MIN_N, beta2_spms, lambda2, su_params

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

# float64 values per chunk (1 MiB), not replications; 2**16 ran
# faster on one thread but lost most of the gain from a second one
CHUNK_SIZE = 2**17
CALIBRATION_STREAM_BASE = 2**48

_NORMAL = AlternativeSpec(Family.NORMAL)

ALL_TESTS = (
    TestName.SPMS,
    TestName.SQRT_B1,
    TestName.SHAPIRO_WILK,
    TestName.LIN_MUDHOLKAR,
)
_SPMS = (TestName.SPMS,)


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
    if n < MIN_N:
        raise SampleTooSmallError(f"experiments require n >= {MIN_N}, got {n}")
    if reps < 1:
        raise InvalidParamsError(f"reps must be positive, got {reps}")
    return n, reps, check_u64("seed", seed)


def _check_level(level: float) -> float:
    level = float(level)
    if not 0.0 < level < 1.0:
        raise InvalidLevelError(f"level must be in (0, 1), got {level}")
    return level


def _chunk_rows(n: int) -> int:
    """Replications per chunk at sample size n."""
    return max(1, CHUNK_SIZE // n)


def _spans(reps: int, n: int):
    rows = _chunk_rows(n)
    return [(s, min(s + rows, reps)) for s in range(0, reps, rows)]


def _draw_chunk(spec, n, seed, span, base=0):
    """Row j holds the n variates of stream (seed, base + span[0] + j)."""
    start, stop = span
    rng = SeededStream(seed, base + start).generator()
    set_stream = stream_rekeyer(rng)
    fill = row_filler(spec, rng)
    x = np.empty((stop - start, n))
    for r, row in zip(range(base + start, base + stop), x):
        set_stream(r)
        fill(row)
    return x


def _map_chunks(work, reps: int, n: int, threads: int) -> list:
    spans = _spans(reps, n)
    if threads <= 1 or len(spans) == 1:
        return [work(s) for s in spans]
    with ThreadPoolExecutor(max_workers=min(threads, len(spans))) as pool:
        return list(pool.map(work, spans))


@functools.lru_cache(maxsize=2)
def _null_runs(reps, seed, tests, threads, base):
    """Every n's null run of one configuration, as _null_statistics adds it."""
    return {}


def _null_statistics(n, reps, seed, tests, threads, base=0):
    """The null pipeline: per test, read-only (raw, z) arrays of the
    defined rows among the standard normal replications base..base+reps-1,
    in order. A run is kept under its own arguments, so a later call with
    the same ones reads it and a call at another thread count runs its own.
    """
    runs = _null_runs(reps, seed, tests, threads, base)
    if n in runs:
        return runs[n]
    su = su_params(n)

    def work(span):
        x = _draw_chunk(_NORMAL, n, seed, span, base)
        stats = _chunk_statistics(x, tests, su)
        return {t: (raw[ok], z[ok]) for t, (raw, z, ok) in stats.items()}

    parts = _map_chunks(work, reps, n, threads)
    null = {}
    for t in tests:
        raw, z = (np.concatenate(col) for col in zip(*(p[t] for p in parts)))
        raw.flags.writeable = z.flags.writeable = False  # shared by later hits
        null[t] = raw, z
    runs[n] = null  # no lock: threads racing on one run build equal bytes
    return null


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
    _, z = _null_statistics(n, reps, seed, _SPMS, threads)[TestName.SPMS]
    az = np.abs(z)  # |z| of the defined replications
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
    """Per-test kernel output (raw, z, defined) for one chunk of samples.

    su is the S_U transform of the spms test at this n. x is overwritten:
    once Shapiro-Wilk has sorted a copy, its rows are centred in place
    (unless Shapiro-Wilk is the only test), and that block feeds the
    central moments (computed once, for spms and sqrt(b1)) and
    Lin-Mudholkar.
    """
    out = {}
    if TestName.SHAPIRO_WILK in tests:
        out[TestName.SHAPIRO_WILK] = _batch_sw(x)
    if tests != (TestName.SHAPIRO_WILK,):
        x -= x.mean(axis=1, keepdims=True)
    if TestName.SPMS in tests or TestName.SQRT_B1 in tests:
        moments = centred_moment_arrays(x)
    if TestName.SPMS in tests:
        out[TestName.SPMS] = _batch_spms(moments, su)
    if TestName.SQRT_B1 in tests:
        out[TestName.SQRT_B1] = _batch_sqrt_b1_z(moments, x.shape[1])
    if TestName.LIN_MUDHOLKAR in tests:
        out[TestName.LIN_MUDHOLKAR] = _batch_lm_z(x)
    return out


def _tail_statistic(test, raw, z):
    """What a simulated critical value cuts: W for Shapiro-Wilk (a low W
    rejects), |z| for the others."""
    return raw if test is TestName.SHAPIRO_WILK else np.abs(z)


def _rejects(test, level, pool=None):
    """The tail rule: a function of a test's kernel output (raw, z,
    defined) marking the defined rows that reject at level.

    With the test's null pool of _tail_statistic values the critical value
    is simulated: Shapiro-Wilk rejects a W below the pool's level
    quantile, the others a |z| above its 1 - level quantile. Without a
    pool it is asymptotic: z > z_{1-level} for Shapiro-Wilk (one-tailed,
    like its p-value), |z| > z_{1-level/2} for the others.
    """
    if test is TestName.SHAPIRO_WILK:
        if pool is None:
            crit = float(ndtri(1.0 - level))
            return lambda raw, z, defined: (z > crit) & defined
        crit = float(np.quantile(pool, level))
        return lambda raw, z, defined: (raw < crit) & defined
    if pool is None:
        crit = float(ndtri(1.0 - level / 2.0))
    else:
        crit = float(np.quantile(pool, 1.0 - level))
    return lambda raw, z, defined: (np.abs(z) > crit) & defined


def _null_reference(n, seed, null_reps, tests, threads):
    """Null pools for simulated critical values: each test's
    _tail_statistic over the cached null run of null_reps replications on
    streams (seed, CALIBRATION_STREAM_BASE + j)."""
    null = _null_statistics(
        n, null_reps, seed, tests, threads, CALIBRATION_STREAM_BASE
    )
    return {t: _tail_statistic(t, *null[t]) for t in tests}


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
    (>= 1) null replications that later calls with the same seed, null_reps,
    tests and threads reuse; "asymptotic" uses each test's nominal normal
    approximation directly and ignores null_reps.
    """
    n, reps, seed = _check_common(n, reps, seed)
    level = _check_level(level)
    tests = _normalize_tests(tests)
    simulated = critical_values == "simulated"
    if simulated:
        null_reps = int(null_reps)
        if null_reps < 1:
            raise InvalidParamsError(
                f"null_reps must be positive, got {null_reps}"
            )
    if TestName.SHAPIRO_WILK in tests and n > SW_MAX_N:
        raise SampleTooLargeError(
            f"Shapiro-Wilk requires n <= {SW_MAX_N}, got {n}"
        )
    if not simulated and critical_values != "asymptotic":
        raise InvalidParamsError(
            f'critical_values must be "simulated" or "asymptotic", '
            f"got {critical_values!r}"
        )
    su = su_params(n)
    pools = _null_reference(n, seed, null_reps, tests, threads) if simulated else {}
    rejects = {t: _rejects(t, level, pools.get(t)) for t in tests}

    def work(span):
        x = _draw_chunk(alternative, n, seed, span)
        stats = _chunk_statistics(x, tests, su)
        return [
            (np.count_nonzero(rejects[t](*stats[t])), np.count_nonzero(~stats[t][2]))
            for t in tests
        ]

    # per test (rejections, undefined), summed over chunks, as Python ints
    counts = np.sum(_map_chunks(work, reps, n, threads), axis=0).tolist()
    return PowerCell(
        alternative=alternative,
        n=n,
        reps=reps,
        level=level,
        powers={t: c[0] / reps for t, c in zip(tests, counts)},
        undefined_counts={t: c[1] for t, c in zip(tests, counts)},
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
    raw, z = _null_statistics(n, reps, seed, _SPMS, threads)[TestName.SPMS]
    values = z if statistic is Statistic.SPMS_Z else raw
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
    the asymptotic series values, with Monte Carlo standard errors. The
    series moments are formal (see su_transform): at finite n, spms has no
    finite variance, so its empirical moments need not approach them.

    SEs use the normal approximation of the null distribution: se(mean) =
    sqrt(lambda2/reps), se(var) = lambda2*sqrt(2/reps), se(m3) =
    sqrt(6*lambda2^3/reps), se(b2) = sqrt(24/reps).
    """
    n, reps, seed = _check_common(n, reps, seed)
    if reps < 2:
        raise InvalidParamsError(f"moment validation needs reps >= 2, got {reps}")
    values, _ = _null_statistics(n, reps, seed, _SPMS, threads)[TestName.SPMS]
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
