"""Monte Carlo experiments: null calibration, power, histograms, moments.

Replications are independent work items: replication r draws its sample
from the Philox stream (seed, r), so the variate sequence is fixed by the
seed alone. Work is split into chunks distributed over a thread pool,
and per-chunk aggregates are reduced in chunk order, so every result is
bit-identical for a given seed whether run on 1 or k threads.

A chunk holds a fixed budget of float64 values, not a fixed number of
replications: max(1, CHUNK_SIZE // n) rows of n values, about 1 MiB,
so a chunk and the temporaries its statistics need stay small enough
for the CPU caches at every n. Chunks follow the largest n of a call,
never the thread count, and the rows at a smaller n of the call are
prefixes of its rows: a stream's first n variates do not depend on how
many follow, so each replication is drawn once, at the largest n, and
every n reads a view of the drawn rows' first n values. A running chunk
takes its four blocks (the draw; the centred rows; the Shapiro-Wilk sort
buffer that then holds the moments' powers and Lin-Mudholkar's s1; and
the rows' squares, then Lin-Mudholkar's proxy) from a workspace of four
CHUNK_SIZE buffers, at any number of sizes, built on first use and kept
on a free list for later chunks, so no chunk faults its blocks in afresh
(a row longer than CHUNK_SIZE gets blocks of its own, never kept); a call
leaves at most max(threads, 1) of them idle, so an earlier call on more
threads holds no memory for good;
_draw_chunk and the kernels take them as caller-supplied arrays. No
kernel writes to the drawn block, and no array a chunk
returns is a view of one. Every statistic of a row is computed from that
row alone, with summation orders that do not depend on how many rows
share its chunk, so the rows per chunk change no result either.

Each chunk builds one Philox generator and, before each replication r,
re-keys it to (seed, r) with counter 0 (distributions.stream_rekeyer).
That is the state a generator built for stream (seed, r) starts in, so the
variates, and every output byte, are those of one generator per
replication, without the cost of building one per replication; one
distributions.row_filler per chunk writes each replication straight into
its chunk row. A chunk's generator is never shared with another thread,
and a job of one chunk runs on the calling thread. A chunk whose largest
n is at most _SERIAL_DRAW_MAX_N draws under one process-wide lock, while
other chunks run their kernels: its rows are too short for numpy's fill
to free the GIL for long. So threads=k pays as far as the kernels are a
large share of a chunk. At each n the rows are then centred, squared and
their squares summed once, for the central moments and the Lin-Mudholkar
kernel. Every test's kernel gives each chunk the same three row-wise
arrays, (raw, z, defined) (see skewtests for when a row is defined); rows
that are not defined are counted as undefined and never as rejections.
The constants the kernels take from n alone, the spms transform among
them, come from skewtests' record for n, the one the scalar tests read.

One null pipeline, _null_statistics (draw normal rows, run the kernels,
keep the defined rows), serves calibrate_curve (and calibrate, its one-n
call), null_histogram, moment_validation and the null runs of
power_curve. Runs are kept by their own arguments, every n of the two
latest configurations, so these summaries of one (n, reps, seed, threads)
simulate the null once, and a calibrate_curve or power call draws the
null runs of all its missing n in one pass. One lock covers a lookup and
its build, so callers racing on one configuration simulate it once.

Power experiments default to simulated critical values: each test's
rejection threshold is the appropriate empirical quantile of the test
statistic over a large null run at the same n (streams (seed, 2**48 + j),
disjoint from the experiment streams). This is the protocol that
reproduces the reference power table; the spms and Lin-Mudholkar z
approximations are visibly miscalibrated at n <= 100, where asymptotic
thresholds distort power by up to 0.11. critical_values="asymptotic"
selects plain |z| > z_{1-level/2} rejection instead. Both, and calibrate's
counts, go through one tail rule, _rejects. A kept null run computes the
critical value of each (test, level) asked of it once, by np.quantile of
its own arrays in replication order, and keeps it until _null_runs evicts
the run: a warm power call runs no np.quantile, and no run is sorted.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AlternativeSpec,
    Family,
    SeededStream,
    draw_values,  # no longer called here; bench/tracing.py wraps this name
    row_filler,
    stream_rekeyer,
)
from .errors import (
    InvalidLevelError,
    InvalidParamsError,
    check_int,
    check_level,
    check_member,
)
from .moments import _quiet, _row_mean, _squares, centred_moment_arrays
from .normal import ndtri
from .skewtests import (
    TestName,
    _batch_lm_z,
    _batch_spms,
    _batch_sqrt_b1_z,
    _batch_sw,
    _constants,
    check_sw_n,
)
# su_params is no longer called here; bench/tracing.py wraps this name
from .su_transform import beta2_spms, check_n, lambda2, su_params

__all__ = [
    "Statistic",
    "CalibrationRow",
    "PowerCell",
    "HistogramData",
    "MomentRow",
    "MomentValidation",
    "calibrate",
    "calibrate_curve",
    "power_curve",
    "power_study",
    "null_histogram",
    "moment_validation",
    "ALL_TESTS",
]

# float64 values per chunk (1 MiB), not replications; 2**16 ran
# faster on one thread but lost most of the gain from a second one
CHUNK_SIZE = 2**17
CALIBRATION_STREAM_BASE = 2**48
# a chunk whose largest n is at most this draws under _draw_lock: a row
# holds the GIL about 1.2 us to re-key and enter numpy and frees it for
# about 16 ns * n, so two drawing threads hand the GIL over on every row.
# threads=2 throughput of all four tests at n = 100, 200, 256, 1000, serial
# / free draw, median of 7 interleaved rounds on 2 cores: normal 1.36, 1.26,
# 1.29, 0.93; gamma:2 1.36, 1.36, 1.14, 0.85; beta:2,1 1.28, 1.09, 0.81, 0.75
_SERIAL_DRAW_MAX_N = 200
_draw_lock = threading.Lock()

_NORMAL = AlternativeSpec(Family.NORMAL)

ALL_TESTS = tuple(TestName)
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


def _check_common(reps, seed, threads, min_reps=1):
    """(reps, seed, threads) as ints, each checked, before any null run
    is looked up or drawn; threads is at most 1024, since a pool starts
    one OS thread per worker."""
    return (
        check_int("reps", reps, lo=min_reps),
        check_int("seed", seed),
        check_int("threads", threads, lo=1, hi=1025),
    )


def _chunk_rows(n: int) -> int:
    """Replications per chunk at sample size n."""
    return max(1, CHUNK_SIZE // n)


def _spans(reps: int, n: int):
    rows = _chunk_rows(n)
    return [(s, min(s + rows, reps)) for s in range(0, reps, rows)]


def _draw_chunk(spec, n, seed, span, base=0, out=None):
    """Row j holds the n variates of stream (seed, base + span[0] + j);
    they are written into out, a (rows, n) float64 array, if given."""
    start, stop = span
    rng = SeededStream(seed, base + start).generator()
    set_stream = stream_rekeyer(rng)
    fill = row_filler(spec, rng)
    x = np.empty((stop - start, n)) if out is None else out
    for r, row in zip(range(base + start, base + stop), x):
        set_stream(r)
        fill(row)
    return x


# idle workspaces: each is four flat CHUNK_SIZE float64 buffers, reused by
# one running chunk at a time; list.pop, list.append and del of a slice are
# atomic, so no lock. A fresh np.empty((4, rows, n)) per chunk instead cut
# power_n1000 t1 from about 32k to 17.5k samples/s and null_suite t1 by about
# 14% (bench/run.py --seconds 6, 3 of 3 alternating pairs, 2 vCPUs)
_workspaces = []


def _new_workspace():
    """A (4, CHUNK_SIZE) float64 workspace on an anonymous mapping of its
    own. Dropping it unmaps its pages; the free() of an np.empty workspace
    would also raise glibc's dynamic mmap threshold to 4 MiB, which changes
    how every later allocation of the process is served. The mapping is
    private where the platform has the flag (mmap's default is shared,
    which a forked child would write too), and its pages are offered to
    transparent huge pages, as numpy offers those of an np.empty array of
    4 MiB or more."""
    import mmap  # here, so that importing pmskew does not load it

    size = 4 * CHUNK_SIZE * 8
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    else:
        buf = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(4, CHUNK_SIZE)


def _trim_workspaces(threads: int) -> None:
    """Drop the oldest idle workspaces beyond max(threads, 1): no more
    chunks than that run at once in a call on that many threads."""
    excess = len(_workspaces) - max(threads, 1)
    if excess > 0:
        del _workspaces[:excess]


@contextlib.contextmanager
def _chunk_blocks(rows, n):
    """Four C-contiguous (rows, n) float64 blocks for one chunk (the draw,
    and _chunk_statistics' d, tmp and y), viewed from a (4, CHUNK_SIZE)
    workspace of the free list, built if it is empty and put back after,
    so its pages stay faulted in for the next chunk; only budget-sized
    workspaces are kept, so a longer row gets four blocks of its own."""
    size = rows * n
    if size > CHUNK_SIZE:
        yield list(np.empty((4, rows, n)))
        return
    try:
        ws = _workspaces.pop()
    except IndexError:
        ws = _new_workspace()
    try:
        yield [b[:size].reshape(rows, n) for b in ws]
    finally:
        _workspaces.append(ws)


def _chunk_kernels(spec, sizes, seed, span, tests, base=0):
    """Per n of sizes (sorted, distinct), _chunk_statistics of the chunk
    of rows span drawn from spec, with the spms transform of n's record
    of per-n constants (skewtests._constants). Each row is drawn once,
    at the largest n, and every n reads a view of the rows' first n
    values, which are the variates a draw at that n gives; no kernel
    writes to the drawn block. The other three blocks of the
    chunk's workspace serve every n, viewed at (rows, n). No returned
    array is a workspace view."""
    rows, m = span[1] - span[0], sizes[-1]
    with _chunk_blocks(rows, m) as (x, *work):
        with _draw_lock if m <= _SERIAL_DRAW_MAX_N else contextlib.nullcontext():
            x = _draw_chunk(spec, m, seed, span, base, out=x)
        return [
            _chunk_statistics(
                x[:, :n], tests, _constants(n).su,
                *(b.ravel()[: rows * n].reshape(rows, n) for b in work),
            )
            for n in sizes
        ]


def _map_chunks(work, reps: int, n: int, threads: int) -> list:
    spans = _spans(reps, n)
    try:
        if threads <= 1 or len(spans) == 1:
            return [work(s) for s in spans]
        with ThreadPoolExecutor(max_workers=min(threads, len(spans))) as pool:
            return list(pool.map(work, spans))
    finally:
        _trim_workspaces(threads)


@functools.lru_cache(maxsize=2)
def _null_runs(reps, seed, tests, threads, base):
    """Every n's null run of one configuration, as _null_statistics adds it."""
    return {}


class _NullRun(dict):
    """One n's null run, {test: (raw, z)}, with the simulated critical
    value of each (test, level) asked of it kept in crit, so they go when
    _null_runs evicts the run."""

    def __init__(self):
        super().__init__()
        self.crit = {}

    def critical(self, test, level) -> float:
        """test's simulated critical value at level, computed once: the
        level quantile of W for Shapiro-Wilk (a low W rejects), the
        1 - level quantile of |z| for the others."""
        try:
            return self.crit[test, level]
        except KeyError:
            raw, z = self[test]
            if test is TestName.SHAPIRO_WILK:
                crit = float(np.quantile(raw, level))
            else:
                crit = float(np.quantile(np.abs(z), 1.0 - level))
            # no lock: racing threads compute equal values
            return self.crit.setdefault((test, level), crit)


_null_lock = threading.Lock()  # held by _null_statistics from lookup to store


def _null_statistics(sizes, reps, seed, tests, threads, base=0):
    """The null pipeline: the null run of each n of sizes, keyed by n. A
    run holds, per test, read-only (raw, z) arrays of the defined rows
    among the standard normal replications base..base+reps-1, in order.
    Runs are kept under their own arguments, so a later call with the same
    ones reads them and a call at another thread count runs its own. The
    sizes not kept at the lookup are drawn together, in one pass at the
    largest. One lock covers the lookup, the draw and the store, so
    callers with different configurations also build their runs one at a
    time; each build still runs on its own threads workers.
    """

    def work(span):
        return [
            {t: (raw[ok], z[ok]) for t, (raw, z, ok) in stats.items()}
            for stats in _chunk_kernels(_NORMAL, missing, seed, span, tests, base)
        ]

    with _null_lock:
        runs = _null_runs(reps, seed, tests, threads, base)
        missing = sorted({n for n in sizes if n not in runs})
        parts = _map_chunks(work, reps, missing[-1], threads) if missing else ()
        for m, chunks in zip(missing, zip(*parts)):
            null = _NullRun()
            for t in tests:
                raw, z = (np.concatenate(col) for col in zip(*(c[t] for c in chunks)))
                raw.flags.writeable = z.flags.writeable = False  # shared by later hits
                null[t] = raw, z
            runs[m] = null
        return {n: runs[n] for n in sizes}


def _items(name, items, what, check, error=InvalidParamsError) -> list:
    """items, a nonempty collection that is not a string, as a list of
    check(item); a non-collection raises error, saying name must be what."""
    # a 0-d array is Iterable, but iterating it raises
    bare = isinstance(items, str) or getattr(items, "ndim", None) == 0
    if bare or not isinstance(items, Iterable):
        raise error(f"{name} must be {what}, got {items!r}")
    items = [check(i) for i in items]
    if not items:
        raise InvalidParamsError(f"{name} must be nonempty")
    return items


def _check_ns(ns) -> list[int]:
    return _items("ns", ns, "a collection of sample sizes", check_n)


def calibrate_curve(
    ns, reps: int, levels, seed: int, threads: int = 1
) -> list[CalibrationRow]:
    """Null rejection rates of the two-sided spms test at each sample size
    of ns: one CalibrationRow per entry of ns, in ns order.

    Draws reps standard normal samples of size n (replication r on stream
    (seed, r)), applies the spms Z transform, and counts |Z| > z_{1-l/2}
    for each level. Undefined replications are counted separately, never
    as rejections. Every n is checked before anything is drawn, and the
    null runs of all missing n are drawn in one pass at the largest (see
    _null_statistics), so each row equals calibrate at its n, bit for bit.
    """
    ns = _check_ns(ns)
    reps, seed, threads = _check_common(reps, seed, threads)
    levels = tuple(
        _items("levels", levels, "a list of levels", check_level, InvalidLevelError)
    )
    runs = _null_statistics(ns, reps, seed, _SPMS, threads)
    rows = []
    for n in ns:
        raw, z = runs[n][TestName.SPMS]
        counts = [
            np.count_nonzero(_rejects(TestName.SPMS, l)(raw, z, True)) for l in levels
        ]
        rates = tuple(float(c) / reps for c in counts)
        rows.append(CalibrationRow(n, reps, levels, rates, int(reps - z.size)))
    return rows


def calibrate(n: int, reps: int, levels, seed: int, threads: int = 1) -> CalibrationRow:
    """Null rejection rates of the two-sided spms test at one sample size n:
    calibrate_curve's row for ns = (n,), with the same arguments."""
    (row,) = calibrate_curve((n,), reps, levels, seed, threads)
    return row


def _normalize_tests(tests) -> tuple[TestName, ...]:
    name = functools.partial(check_member, TestName, what="test name")
    wanted = _items("tests", tests, "a collection of test names", name)
    return tuple(t for t in ALL_TESTS if t in wanted)


@_quiet
def _chunk_statistics(x, tests, su, d=None, tmp=None, y=None):
    """Per-test kernel output (raw, z, defined) for one chunk of samples.

    su is the S_U transform of the spms test at this n. x is left as it
    is: Shapiro-Wilk sorts a copy, and (unless it is the only test) the
    rows are centred once into d and squared once into y, which feed the
    central moments (computed once, for spms and sqrt(b1)) and
    Lin-Mudholkar. d, tmp and y are optional float64 blocks of x's shape:
    tmp holds the Shapiro-Wilk sort, then the moments' powers, then
    Lin-Mudholkar's s1, and y the squares, then Lin-Mudholkar's proxy.
    """
    out = {}
    if TestName.SHAPIRO_WILK in tests:
        out[TestName.SHAPIRO_WILK] = _batch_sw(x, tmp)
    if tests != (TestName.SHAPIRO_WILK,):
        d = np.subtract(x, _row_mean(x, keepdims=True), out=d)
        sq, sq_sum = _squares(d, y)
    if TestName.SPMS in tests or TestName.SQRT_B1 in tests:
        moments = centred_moment_arrays(d, sq, sq_sum, tmp)
    if TestName.SPMS in tests:
        out[TestName.SPMS] = _batch_spms(moments, su)
    if TestName.SQRT_B1 in tests:
        out[TestName.SQRT_B1] = _batch_sqrt_b1_z(moments, x.shape[1])
    if TestName.LIN_MUDHOLKAR in tests:
        out[TestName.LIN_MUDHOLKAR] = _batch_lm_z(d, sq, sq_sum, sq, tmp)
    return out


def _rejects(test, level, critical=None):
    """The tail rule: a function of a test's kernel output (raw, z,
    defined) marking the defined rows that reject at level.

    With the test's critical(level) from _null_reference the critical
    value is simulated: Shapiro-Wilk rejects a W below it, the others a
    |z| above it. Without it the critical value is asymptotic:
    z > z_{1-level} for Shapiro-Wilk (one-tailed, like its p-value),
    |z| > z_{1-level/2} for the others.
    """
    if test is TestName.SHAPIRO_WILK:
        if critical is None:
            crit = ndtri(1.0 - level)
            return lambda raw, z, defined: (z > crit) & defined
        crit = critical(level)
        return lambda raw, z, defined: (raw < crit) & defined
    crit = ndtri(1.0 - level / 2.0) if critical is None else critical(level)
    return lambda raw, z, defined: (np.abs(z) > crit) & defined


def _null_reference(n, seed, null_reps, tests, threads, sizes=()):
    """Simulated critical values, {test: critical(level)}, each reading
    _NullRun.critical of the kept null run of null_reps replications on
    streams (seed, CALIBRATION_STREAM_BASE + j), so a later call reads the
    values already asked without another np.quantile. A run that is not
    kept is drawn with every other missing n of sizes (see
    _null_statistics)."""
    run = _null_statistics(
        (n, *sizes), null_reps, seed, tests, threads, CALIBRATION_STREAM_BASE
    )[n]
    return {t: functools.partial(run.critical, t) for t in tests}


def power_curve(
    alternative: AlternativeSpec,
    ns,
    reps: int,
    level: float,
    tests=ALL_TESTS,
    seed: int = 0,
    threads: int = 1,
    critical_values: str = "simulated",
    null_reps: int = 100_000,
) -> list[PowerCell]:
    """Rejection fraction of each requested test against an alternative,
    at each sample size of ns: one PowerCell per entry of ns, in ns order.

    Every requested test is applied to the same sample in each replication
    (common random numbers). critical_values="simulated" (default) rejects
    beyond empirical null quantiles at the same n, taken over null_reps
    (>= 1) null replications. Later calls with the same seed, null_reps,
    tests and threads reuse the null run and the critical value of every
    level already asked of it, so a warm call only draws and tests the
    alternative; "asymptotic" uses each test's nominal normal
    approximation directly and ignores null_reps.

    Replication r is drawn once, at the largest n, and a smaller n takes
    the first n values of its row: a stream's first n variates do not
    depend on how many follow. So each cell equals power_study at its n,
    bit for bit. Every argument is checked before any null run is looked
    up or drawn: alternative must be an AlternativeSpec (as
    AlternativeSpec.parse gives), and every n is checked.
    """
    if not isinstance(alternative, AlternativeSpec):
        raise InvalidParamsError(
            f"alternative must be an AlternativeSpec, got {alternative!r}"
        )
    ns = _check_ns(ns)
    reps, seed, threads = _check_common(reps, seed, threads)
    level = check_level(level)
    tests = _normalize_tests(tests)
    simulated = critical_values == "simulated"
    if simulated:
        null_reps = check_int("null_reps", null_reps, lo=1)
    if TestName.SHAPIRO_WILK in tests:
        for n in ns:
            check_sw_n(n)
    if not simulated and critical_values != "asymptotic":
        raise InvalidParamsError(
            f'critical_values must be "simulated" or "asymptotic", '
            f"got {critical_values!r}"
        )
    sizes = sorted(set(ns))
    rejects = []
    for n in sizes:
        crits = (
            _null_reference(n, seed, null_reps, tests, threads, sizes)
            if simulated
            else {}
        )
        rejects.append({t: _rejects(t, level, crits.get(t)) for t in tests})

    def work(span):
        return [
            [
                (np.count_nonzero(rej[t](*stats[t])), np.count_nonzero(~stats[t][2]))
                for t in tests
            ]
            for rej, stats in zip(
                rejects, _chunk_kernels(alternative, sizes, seed, span, tests)
            )
        ]

    # per n of sizes, per test (rejections, undefined), summed over chunks,
    # as Python ints
    counts = np.sum(_map_chunks(work, reps, sizes[-1], threads), axis=0).tolist()
    by_n = dict(zip(sizes, counts))
    return [
        PowerCell(
            alternative=alternative,
            n=n,
            reps=reps,
            level=level,
            powers={t: c[0] / reps for t, c in zip(tests, by_n[n])},
            undefined_counts={t: c[1] for t, c in zip(tests, by_n[n])},
        )
        for n in ns
    ]


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
    """Rejection fraction of each requested test against an alternative at
    one sample size n: power_curve's cell for ns = (n,), with the same
    arguments and defaults."""
    (cell,) = power_curve(
        alternative, (n,), reps, level, tests, seed, threads, critical_values,
        null_reps,
    )
    return cell


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
    value_range overrides them; a value_range that cannot hold bins
    finite-sized bins, or more than 2**20 bins (16 MiB of edges and
    counts), raises InvalidParamsError before any draw.
    """
    n = check_n(n)
    reps, seed, threads = _check_common(reps, seed, threads)
    statistic = check_member(Statistic, statistic, "statistic")
    bins = check_int("bins", bins, lo=2, hi=2**20 + 1)
    if value_range is not None:
        try:
            lo, hi = map(float, value_range)
            ok = not isinstance(value_range, str) and -np.inf < lo < hi < np.inf
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidParamsError(
                "value_range must be two finite increasing numbers (lo, hi), "
                f"got {value_range!r}"
            )
        # the uniform edges np.histogram would build, checked before the draw
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.linspace(lo, hi, bins + 1)
        if not (np.isfinite(edges).all() and (edges[:-1] < edges[1:]).all()):
            raise InvalidParamsError(
                f"value_range {value_range!r} cannot be split into "
                f"bins={bins} finite-sized bins"
            )
    raw, z = _null_statistics((n,), reps, seed, _SPMS, threads)[n][TestName.SPMS]
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
    n = check_n(n)
    reps, seed, threads = _check_common(reps, seed, threads, min_reps=2)
    values, _ = _null_statistics((n,), reps, seed, _SPMS, threads)[n][TestName.SPMS]
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
