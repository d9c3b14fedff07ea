"""Replication engine: brute-force oracles, determinism, conservation."""

import gc
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pmskew import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Family,
    InvalidLevelError,
    InvalidParamsError,
    PmskewError,
    Sample,
    SampleTooLargeError,
    SampleTooSmallError,
    SeededStream,
    beta2_spms,
    calibrate,
    calibrate_curve,
    draw_values,
    lambda2,
    lin_mudholkar_test,
    moment_validation,
    null_histogram,
    power_curve,
    power_study,
    shapiro_wilk_test,
    spms_test,
    sqrt_b1_test,
    su_params,
)
from pmskew import TestName as TN
from pmskew import montecarlo
from pmskew.montecarlo import (
    ALL_TESTS,
    CALIBRATION_STREAM_BASE,
    _chunk_rows,
    _draw_chunk,
    _spans,
)

NORMAL = AlternativeSpec(Family.NORMAL)


def _null_values(n, reps, seed, base=0):
    """Per-replication spms values via the public scalar API."""
    out = []
    for r in range(reps):
        x = draw_values(NORMAL, n, SeededStream(seed, base + r).generator())
        res = spms_test(Sample(x))
        out.append(res.raw_statistic if res.defined else np.nan)
    return np.array(out)


class TestCalibrate:
    def test_matches_scalar_api_exactly(self):
        n, reps, seed = 50, 300, 9
        levels = (0.05, 0.2)
        thresholds = [ndtri(1.0 - l / 2.0) for l in levels]
        su = su_params(n)
        counts = [0, 0]
        for r in range(reps):
            x = draw_values(NORMAL, n, SeededStream(seed, r).generator())
            res = spms_test(Sample(x))
            assert res.defined
            for i, t in enumerate(thresholds):
                if abs(su.z(res.raw_statistic)) > t:
                    counts[i] += 1
        row = calibrate(n, reps, levels, seed)
        assert row.rejection_rates == (counts[0] / reps, counts[1] / reps)
        assert row.undefined_count == 0
        assert row.n == n and row.reps == reps and row.levels == levels

    def test_thread_count_invariance_across_chunk_boundary(self):
        reps = 2 * _chunk_rows(12) + 7
        assert len(_spans(reps, 12)) == 3
        r1 = calibrate(12, reps, [0.05, 0.1], 3, threads=1)
        r3 = calibrate(12, reps, [0.05, 0.1], 3, threads=3)
        assert r1 == r3

    def test_null_rate_tracks_level(self):
        row = calibrate(100, 4000, [0.05], 1)
        assert 0.03 <= row.rejection_rates[0] <= 0.08

    def test_validation(self):
        with pytest.raises(SampleTooSmallError):
            calibrate(7, 100, [0.05], 0)
        with pytest.raises(InvalidParamsError):
            calibrate(50, 0, [0.05], 0)
        with pytest.raises(InvalidLevelError):
            calibrate(50, 100, [0.05, 1.0], 0)
        with pytest.raises(InvalidParamsError):
            calibrate(20, 100, [], 0)


class TestCalibrateCurve:
    """A calibrate call over several n draws each null replication once, at
    the largest n; every row and every kept null run equals what a call at
    its n alone gives, bit for bit."""

    @pytest.mark.parametrize("threads", [1, 3])
    def test_rows_equal_single_n_calls(self, threads):
        ns, levels = (50, 20, 20, 8), (0.01, 0.05, 0.2)
        reps = 2 * _chunk_rows(50) + 7  # three chunks at n=50, one at n=8
        key = (reps, 9, (TN.SPMS,), threads, 0)
        montecarlo._null_runs.cache_clear()
        each = [calibrate(n, reps, levels, 9, threads=threads) for n in ns]
        alone = {n: _kernel_bytes(r) for n, r in montecarlo._null_runs(*key).items()}
        montecarlo._null_runs.cache_clear()
        curve = calibrate_curve(ns, reps, levels, 9, threads=threads)
        assert curve == each
        assert [row.n for row in curve] == list(ns)
        shared = {n: _kernel_bytes(r) for n, r in montecarlo._null_runs(*key).items()}
        assert shared == alone

    def test_readme_sizes_drawn_once_at_the_largest_n(self, draws):
        reps = 20_000
        calibrate_curve((8, 20, 50, 100), reps, (0.01, 0.05), 1)
        assert draws == [(100, 1, 0)] * len(_spans(reps, 100))
        draws.clear()
        # kept runs are read; the missing n=30 and n=60 are drawn at n=60
        calibrate_curve((30, 100, 8, 60), reps, (0.01, 0.05), 1)
        assert draws == [(60, 1, 0)] * len(_spans(reps, 60))


class TestPowerStudy:
    def test_matches_scalar_api_exactly(self):
        alt = AlternativeSpec.parse("beta:2,1")
        n, reps, level, seed, null_reps = 40, 256, 0.05, 5, 1500
        su = su_params(n)

        # simulated criticals recomputed from the reserved null streams
        pools = {t: [] for t in TN}
        for j in range(null_reps):
            x = draw_values(
                NORMAL, n, SeededStream(seed, CALIBRATION_STREAM_BASE + j).generator()
            )
            s = Sample(x)
            r = spms_test(s)
            if r.defined:
                pools[TN.SPMS].append(abs(su.z(r.raw_statistic)))
            pools[TN.SQRT_B1].append(abs(sqrt_b1_test(s).z_value))
            pools[TN.SHAPIRO_WILK].append(
                shapiro_wilk_test(s).raw_statistic
            )
            pools[TN.LIN_MUDHOLKAR].append(
                abs(lin_mudholkar_test(s).z_value)
            )
        crit = {
            t: np.quantile(np.array(pools[t]), 0.05 if t is TN.SHAPIRO_WILK else 0.95)
            for t in TN
        }

        hits = {t: 0 for t in TN}
        for r in range(reps):
            x = draw_values(alt, n, SeededStream(seed, r).generator())
            s = Sample(x)
            res = spms_test(s)
            if res.defined and abs(su.z(res.raw_statistic)) > crit[TN.SPMS]:
                hits[TN.SPMS] += 1
            if abs(sqrt_b1_test(s).z_value) > crit[TN.SQRT_B1]:
                hits[TN.SQRT_B1] += 1
            if shapiro_wilk_test(s).raw_statistic < crit[TN.SHAPIRO_WILK]:
                hits[TN.SHAPIRO_WILK] += 1
            if abs(lin_mudholkar_test(s).z_value) > crit[TN.LIN_MUDHOLKAR]:
                hits[TN.LIN_MUDHOLKAR] += 1

        cell = power_study(
            alt, n, reps, level, seed=seed, null_reps=null_reps
        )
        for t in TN:
            assert cell.powers[t] == hits[t] / reps, t
            assert cell.undefined_counts[t] == 0

    def test_asymptotic_mode_matches_scalar_api(self):
        alt = AlternativeSpec.parse("gamma:3")
        n, reps, level, seed = 30, 400, 0.1, 2
        hits = {t: 0 for t in TN}
        for r in range(reps):
            s = Sample(draw_values(alt, n, SeededStream(seed, r).generator()))
            for t, res in (
                (TN.SPMS, spms_test(s)),
                (TN.SQRT_B1, sqrt_b1_test(s)),
                (TN.SHAPIRO_WILK, shapiro_wilk_test(s)),
                (TN.LIN_MUDHOLKAR, lin_mudholkar_test(s)),
            ):
                if res.reject_at(level):
                    hits[t] += 1
        cell = power_study(
            alt, n, reps, level, seed=seed, critical_values="asymptotic"
        )
        for t in TN:
            assert cell.powers[t] == hits[t] / reps, t

    def test_common_random_numbers_across_test_subsets(self):
        alt = AlternativeSpec.parse("weibull:2")
        full = power_study(alt, 40, 500, 0.05, seed=7, null_reps=1000)
        pair = power_study(
            alt,
            40,
            500,
            0.05,
            tests=("spms", "shapiro_wilk"),
            seed=7,
            null_reps=1000,
        )
        assert set(pair.powers) == {TN.SPMS, TN.SHAPIRO_WILK}
        for t in pair.powers:
            assert pair.powers[t] == full.powers[t]

    def test_thread_count_invariance(self):
        alt = AlternativeSpec.parse("lognormal:0,0.5")
        kw = dict(seed=4, null_reps=1000)
        c1 = power_study(alt, 20, 4200, 0.05, threads=1, **kw)
        c3 = power_study(alt, 20, 4200, 0.05, threads=3, **kw)
        assert c1.powers == c3.powers
        assert c1.undefined_counts == c3.undefined_counts

    def test_one_chunk_starts_no_thread_pool(self, monkeypatch):
        # 1024 reps and a 500-rep null pool at n=20 are one chunk each
        alt = AlternativeSpec.parse("gamma:2")
        kw = dict(seed=4, null_reps=500)
        assert len(_spans(1024, 20)) == len(_spans(500, 20)) == 1
        c1 = power_study(alt, 20, 1024, 0.05, threads=1, **kw)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started for one chunk")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        assert power_study(alt, 20, 1024, 0.05, threads=4, **kw) == c1

    def test_at_most_one_worker_per_chunk(self, monkeypatch):
        workers = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        montecarlo._null_runs.cache_clear()
        calibrate(20, 2 * _chunk_rows(20), [0.05], 3, threads=4)  # two chunks
        assert workers == [2]

    def test_null_alternative_power_is_level(self):
        cell = power_study(NORMAL, 50, 3000, 0.1, seed=11, null_reps=20000)
        for t, p in cell.powers.items():
            assert 0.073 <= p <= 0.127, (t, p)

    # weibull:0.001 overflows every row; gamma:1e-320 draws all-zero rows
    @pytest.mark.parametrize("alt", ["weibull:0.001", "gamma:1e-320"])
    def test_undefined_rows_raise_no_numpy_warnings(self, alt):
        reps = 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = power_study(
                AlternativeSpec.parse(alt), 20, reps, 0.05,
                critical_values="asymptotic",
            )
        assert cell.undefined_counts == dict.fromkeys(ALL_TESTS, reps)
        assert cell.powers == dict.fromkeys(ALL_TESTS, 0.0)

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            power_study(NORMAL, 40, 100, 0.05, tests=("spms", "nosuch"))
        with pytest.raises(InvalidParamsError):
            power_study(NORMAL, 40, 100, 0.05, critical_values="exact")
        with pytest.raises(InvalidLevelError):
            power_study(NORMAL, 40, 100, 0.0)
        with pytest.raises(SampleTooLargeError):
            power_study(NORMAL, 5001, 100, 0.05)
        # without Shapiro-Wilk, large n is allowed
        power_study(
            NORMAL,
            5001,
            8,
            0.05,
            tests=("spms",),
            critical_values="asymptotic",
        )


class TestPowerCurve:
    """A power call over several n draws each replication once, at the
    largest n; every cell and every kept null run equals what a call at
    its n alone gives, bit for bit."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("critical_values", ["simulated", "asymptotic"])
    def test_cells_equal_single_n_calls(self, critical_values, threads):
        alt = AlternativeSpec.parse("beta:2,1")
        ns, null_reps = (50, 20, 20, 8), 3000
        reps = 2 * _chunk_rows(50) + 7  # three chunks at n=50, one at n=8
        kw = dict(seed=9, threads=threads, critical_values=critical_values,
                  null_reps=null_reps)
        key = (null_reps, 9, ALL_TESTS, threads, CALIBRATION_STREAM_BASE)
        montecarlo._null_runs.cache_clear()
        each = [power_study(alt, n, reps, 0.05, **kw) for n in ns]
        alone = {n: _kernel_bytes(r) for n, r in montecarlo._null_runs(*key).items()}
        montecarlo._null_runs.cache_clear()
        curve = power_curve(alt, ns, reps, 0.05, **kw)
        assert curve == each
        assert curve[1] is not curve[2]
        shared = {n: _kernel_bytes(r) for n, r in montecarlo._null_runs(*key).items()}
        assert shared == alone

    def test_null_runs_drawn_once_at_the_largest_missing_n(self, draws):
        alt = AlternativeSpec.parse("gamma:2")
        kw = dict(seed=27, null_reps=600)
        power_curve(alt, (20, 50), 100, 0.05, **kw)
        assert [d[0] for d in _pool_draws(draws)] == [50]
        assert [d[0] for d in draws if d[2] == 0] == [50]
        draws.clear()
        # kept runs are read; the missing n=8 and n=30 are drawn at n=30
        power_curve(alt, (8, 20, 30, 50), 100, 0.05, **kw)
        assert [d[0] for d in _pool_draws(draws)] == [30]
        runs = montecarlo._null_runs(600, 27, ALL_TESTS, 1, CALIBRATION_STREAM_BASE)
        assert sorted(runs) == [8, 20, 30, 50]

    @pytest.mark.parametrize("ns", [(), 20, "20,50", None])
    @pytest.mark.parametrize("curve", ["power_curve", "calibrate_curve"])
    def test_sizes_must_be_a_nonempty_collection(self, curve, ns, draws):
        call = {
            "power_curve": lambda: power_curve(_GAMMA2, ns, 100, 0.05, null_reps=200),
            "calibrate_curve": lambda: calibrate_curve(ns, 100, [0.05], 0),
        }[curve]
        with pytest.raises(InvalidParamsError, match="ns"):
            call()
        assert draws == []


class TestNullHistogram:
    def test_matches_numpy_histogram_of_scalar_values(self):
        n, reps, seed = 25, 600, 13
        values = _null_values(n, reps, seed)
        assert not np.isnan(values).any()
        h = null_histogram("spms", n, reps, 12, seed, value_range=(-0.6, 0.6))
        want_counts, want_edges = np.histogram(
            values, bins=12, range=(-0.6, 0.6)
        )
        assert np.array_equal(h.counts, want_counts)
        assert np.array_equal(h.bin_edges, want_edges)
        assert h.out_of_range == reps - want_counts.sum()

    def test_z_statistic_variant(self):
        n, reps, seed = 25, 400, 6
        su = su_params(n)
        z = su.z(_null_values(n, reps, seed))
        h = null_histogram("z", n, reps, 8, seed, value_range=(-3.0, 3.0))
        want, _ = np.histogram(z, bins=8, range=(-3.0, 3.0))
        assert np.array_equal(h.counts, want)

    def test_default_edges_span_mean_pm_5sd(self):
        n, reps, seed = 30, 500, 1
        values = _null_values(n, reps, seed)
        h = null_histogram("spms", n, reps, 20, seed)
        assert h.bin_edges[0] == pytest.approx(
            values.mean() - 5.0 * values.std(), rel=1e-12
        )
        assert h.bin_edges[-1] == pytest.approx(
            values.mean() + 5.0 * values.std(), rel=1e-12
        )
        assert len(h.bin_edges) == 21

    def test_conservation(self):
        h = null_histogram("spms", 20, 1000, 7, 3)
        assert h.counts.sum() + h.out_of_range == 1000

    def test_thread_count_invariance(self):
        reps = _chunk_rows(15) + 100
        assert len(_spans(reps, 15)) == 2
        kw = dict(statistic="z", n=15, reps=reps, bins=9, seed=2)
        h1 = null_histogram(threads=1, **kw)
        h3 = null_histogram(threads=3, **kw)
        assert np.array_equal(h1.counts, h3.counts)
        assert np.array_equal(h1.bin_edges, h3.bin_edges)
        assert h1.out_of_range == h3.out_of_range

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            null_histogram("spms", 20, 100, 1, 0)
        with pytest.raises(InvalidParamsError) as info:
            null_histogram("median", 20, 100, 10, 0)
        assert info.value.__suppress_context__  # raised from None
        with pytest.raises(InvalidParamsError):
            null_histogram("spms", 20, 100, 10, 0, value_range=(1.0, -1.0))
        with pytest.raises(InvalidParamsError):
            null_histogram("spms", 20, 100, 10, 0, value_range=(-np.inf, np.inf))
        with pytest.raises(InvalidParamsError):
            null_histogram("z", 20, 100, 10, 0, value_range=(0.0, np.inf))

    @pytest.mark.parametrize("value_range", [(1.0, 1.0 + 1e-15), (-1e308, 1e308)])
    def test_range_numpy_cannot_bin_raises_before_the_draw(self, value_range, draws):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamsError, match="value_range.*bins=60"):
                null_histogram("z", 20, 100, 60, 1, value_range=value_range)
        assert draws == []

    def test_subnormal_range_still_bins(self):
        h = null_histogram("z", 20, 100, 60, 1, value_range=(0.0, 1e-320))
        assert (h.bin_edges[0], h.bin_edges[-1]) == (0.0, 1e-320)
        assert len(h.bin_edges) == 61
        assert h.counts.sum() + h.out_of_range == 100


class TestMomentValidation:
    def test_matches_scalar_values_exactly(self):
        n, reps, seed = 40, 700, 8
        values = _null_values(n, reps, seed)
        assert not np.isnan(values).any()
        mv = moment_validation(n, reps, seed)
        mean = values.mean()
        d = values - mean
        var = (d * d).mean()
        by_name = {row.quantity: row for row in mv.rows}
        assert by_name["mean"].empirical == mean
        assert by_name["variance"].empirical == var
        assert by_name["third_moment"].empirical == (d**3).mean()
        assert by_name["kurtosis"].empirical == (d**4).mean() / var**2
        assert mv.undefined_count == 0

    def test_series_columns_and_ses(self):
        n, reps = 60, 500
        mv = moment_validation(n, reps, 0)
        by_name = {row.quantity: row for row in mv.rows}
        lam2 = lambda2(n)
        assert by_name["mean"].series == 0.0
        assert by_name["variance"].series == lam2
        assert by_name["third_moment"].series == 0.0
        assert by_name["kurtosis"].series == beta2_spms(n)
        assert by_name["mean"].se == pytest.approx(np.sqrt(lam2 / reps))
        assert by_name["variance"].se == pytest.approx(
            lam2 * np.sqrt(2.0 / reps)
        )
        assert by_name["third_moment"].se == pytest.approx(
            np.sqrt(6.0 * lam2**3 / reps)
        )
        assert by_name["kurtosis"].se == pytest.approx(np.sqrt(24.0 / reps))

    def test_thread_count_invariance(self):
        reps = _chunk_rows(10) + 100
        assert len(_spans(reps, 10)) == 2
        m1 = moment_validation(10, reps, 5, threads=1)
        m3 = moment_validation(10, reps, 5, threads=3)
        assert m1 == m3

    def test_fewer_than_two_reps_rejected(self):
        with pytest.raises(InvalidParamsError):
            moment_validation(20, 1, 0)


class TestChunkPipeline:
    @pytest.fixture
    def moment_calls(self, monkeypatch):
        from pmskew import moments, skewtests

        calls = []

        def counting(name):
            def counted(x, *a, **k):
                calls.append(len(x))
                return getattr(moments, name)(x, *a, **k)

            return counted

        # a pass from raw rows or from rows the chunk has already centred
        for module in (skewtests, montecarlo):
            for name in ("central_moment_arrays", "centred_moment_arrays"):
                monkeypatch.setattr(module, name, counting(name), raising=False)
        return calls

    @pytest.mark.parametrize(
        "tests, passes",
        [
            (montecarlo.ALL_TESTS, 1),
            ((TN.SPMS,), 1),
            ((TN.SQRT_B1,), 1),
            ((TN.SHAPIRO_WILK,), 0),
            ((TN.LIN_MUDHOLKAR,), 0),
        ],
        ids=["all", "spms", "sqrt_b1", "shapiro_wilk", "lin_mudholkar"],
    )
    def test_one_moments_pass_per_chunk(self, moment_calls, monkeypatch, tests, passes):
        from pmskew import moments, skewtests

        formed, read = [], []

        def squares(d, *a):
            sq, sq_sum = moments._squares(d, *a)
            formed.append(sq)
            return sq, sq_sum

        def lm(xc, sq, *a):
            read.append(sq)
            return skewtests._batch_lm_z(xc, sq, *a)

        monkeypatch.setattr(montecarlo, "_squares", squares)
        monkeypatch.setattr(montecarlo, "_batch_lm_z", lm)
        x = _draw_chunk(NORMAL, 30, 2, (0, 64))
        y = np.empty_like(x)
        montecarlo._chunk_statistics(x, tests, su_params(30), y=y)
        assert moment_calls == [64] * passes
        # the rows are squared once, into the y block, unless Shapiro-Wilk
        # runs alone, and Lin-Mudholkar reads those squares
        assert len(formed) == (tests != (TN.SHAPIRO_WILK,))
        assert all(np.shares_memory(sq, y) for sq in formed)
        assert len(read) == (TN.LIN_MUDHOLKAR in tests)
        assert all(np.shares_memory(sq, formed[0]) for sq in read)

    def test_power_study_passes_equal_chunks(self, moment_calls):
        alt = AlternativeSpec.parse("gamma:2")
        rows = _chunk_rows(20)
        power_study(alt, 20, rows + 5, 0.05, critical_values="asymptotic")
        assert moment_calls == [rows, 5]


class TestChunkRule:
    """Chunks hold CHUNK_SIZE values; no result depends on the rows per
    chunk, so every experiment gives what fixed 4096-row chunks give."""

    @pytest.mark.parametrize("n", [8, 12, 100, 1000, 2**17, 2**17 + 1, 10**6])
    def test_rows_fill_the_budget(self, n):
        rows = _chunk_rows(n)
        assert rows >= 1
        assert rows * n <= montecarlo.CHUNK_SIZE or rows == 1
        assert (rows + 1) * n > montecarlo.CHUNK_SIZE

    EXPERIMENTS = {
        "calibrate": lambda threads: calibrate(
            30, 5000, [0.05, 0.2], 7, threads=threads
        ),
        "hist": lambda threads: null_histogram(
            "z", 30, 5000, 12, 2, threads=threads
        ),
        "moments": lambda threads: moment_validation(40, 5000, 6, threads=threads),
        "power_simulated": lambda threads: power_study(
            AlternativeSpec.parse("gamma:2"), 100, 4500, 0.05, seed=3,
            threads=threads, null_reps=5000,
        ),
        "power_asymptotic": lambda threads: power_study(
            AlternativeSpec.parse("lognormal:0,0.5"), 100, 4500, 0.05, seed=5,
            threads=threads, critical_values="asymptotic",
        ),
    }

    @staticmethod
    def _fields(result):
        if isinstance(result, montecarlo.HistogramData):
            return (result.bin_edges.tobytes(), result.counts.tobytes(),
                    result.out_of_range)
        return result

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_budget_chunks_equal_fixed_chunks(self, name, threads, monkeypatch):
        run = self.EXPERIMENTS[name]
        montecarlo._null_runs.cache_clear()
        budget = self._fields(run(threads))
        montecarlo._null_runs.cache_clear()
        monkeypatch.setattr(montecarlo, "_chunk_rows", lambda n: 4096)
        fixed = self._fields(run(threads))
        assert budget == fixed

    def test_power_cell_at_n1000_peaks_small(self):
        # one chunk of 4096 rows at n=1000 is 32 MiB; a 131-row one 1 MiB
        alt = AlternativeSpec.parse("lognormal:0,0.5")
        power_study(alt, 1000, 8, 0.05, critical_values="asymptotic")
        tracemalloc.start()
        try:
            power_study(alt, 1000, 4096, 0.05, critical_values="asymptotic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _kernel_bytes(stats):
    return {t: tuple(a.tobytes() for a in out) for t, out in stats.items()}


_SERIAL_N = montecarlo._SERIAL_DRAW_MAX_N


def _curve(name, ns, reps, threads, seed=3):
    """calibrate_curve or power_curve (gamma:2, simulated criticals) at ns."""
    if name == "calibrate_curve":
        return calibrate_curve(ns, reps, [0.01, 0.05], seed, threads=threads)
    return power_curve(
        _GAMMA2, ns, reps, 0.05, seed=seed, threads=threads, null_reps=reps
    )


class TestDrawRule:
    """A chunk whose largest n is at most _SERIAL_DRAW_MAX_N draws while no
    other chunk of the process draws; above it, chunks draw concurrently.
    Either way every thread count gives the bytes of threads=1."""

    @staticmethod
    def _overlap(monkeypatch, wait):
        """Record the most _draw_chunk calls running at once; each call
        runs wait() before it draws."""
        guard, seen = threading.Lock(), {"now": 0, "most": 0}
        draw = montecarlo._draw_chunk

        def recording(*args, **kwargs):
            with guard:
                seen["now"] += 1
                seen["most"] = max(seen["most"], seen["now"])
            try:
                wait()
                return draw(*args, **kwargs)
            finally:
                with guard:
                    seen["now"] -= 1

        monkeypatch.setattr(montecarlo, "_draw_chunk", recording)
        return seen

    @pytest.mark.parametrize("ns", [(20,), (20, _SERIAL_N)])
    @pytest.mark.parametrize("name", ["calibrate_curve", "power_curve"])
    def test_small_n_draws_one_chunk_at_a_time(self, name, ns, monkeypatch):
        montecarlo._null_runs.cache_clear()
        # the sleep holds each draw open long enough for another to start
        seen = self._overlap(monkeypatch, lambda: time.sleep(0.005))
        _curve(name, ns, 4 * _chunk_rows(max(ns)), threads=3)
        assert seen["most"] == 1

    @pytest.mark.parametrize("name", ["calibrate_curve", "power_curve"])
    def test_larger_n_draws_concurrently(self, name, monkeypatch):
        montecarlo._null_runs.cache_clear()
        # three chunks on three threads: each draw waits for the other two,
        # which a serial draw would never let in
        barrier = threading.Barrier(3, timeout=30)
        seen = self._overlap(monkeypatch, barrier.wait)
        ns = (20, _SERIAL_N + 1)
        _curve(name, ns, 3 * _chunk_rows(max(ns)), threads=3)
        assert seen["most"] == 3

    @pytest.mark.parametrize(
        "ns", [(20, 1000), (_SERIAL_N,), (_SERIAL_N + 1,)], ids=str
    )
    @pytest.mark.parametrize("name", ["calibrate_curve", "power_curve"])
    def test_thread_counts_give_equal_results(self, name, ns):
        reps = 2 * _chunk_rows(max(ns)) + 5  # three chunks, the last short
        results = [_curve(name, ns, reps, threads=t) for t in (1, 2, 3)]
        assert results[0] == results[1] == results[2]


class TestWorkspace:
    """Chunks reuse pooled workspaces of four CHUNK_SIZE buffers at any
    number of sizes, and a chunk longer than the budget uses four blocks
    of its own, so every kept workspace is (4, CHUNK_SIZE); no output byte
    depends on them, no kernel writes to the drawn block, and no result a
    chunk returns or a kept run holds is a view of one."""

    SUBSETS = [
        tests
        for k in range(1, len(ALL_TESTS) + 1)
        for tests in itertools.combinations(ALL_TESTS, k)
    ]

    @staticmethod
    def _pooled():
        return [b for ws in montecarlo._workspaces for b in ws]

    @pytest.mark.parametrize("n", [8, 20, 1000])
    @pytest.mark.parametrize(
        "tests", SUBSETS, ids=["+".join(map(str, t)) for t in SUBSETS]
    )
    def test_chunk_statistics_with_and_without_workspace(self, tests, n):
        span = (0, min(_chunk_rows(n), 300))
        rows, su = span[1], su_params(n)
        x = _draw_chunk(AlternativeSpec.parse("gamma:2"), n, 4, span)
        want = montecarlo._chunk_statistics(x.copy(), tests, su)
        with montecarlo._chunk_blocks(rows, n) as (block, *spare):
            block[...] = x
            for b in spare:
                b.fill(np.nan)  # leftovers of an earlier chunk change nothing
            got = montecarlo._chunk_statistics(block, tests, su, *spare)
            for out in got.values():
                for a in out:
                    assert not any(
                        np.shares_memory(a, b) for b in (block, *spare)
                    )
            assert block.tobytes() == x.tobytes()  # the input is read only
        assert _kernel_bytes(got) == _kernel_bytes(want)

    def test_chunk_kernels_leave_the_draw_intact(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_workspaces", [])
        alt, sizes, span = AlternativeSpec.parse("beta:2,1"), (8, 20, 33), (5, 400)
        montecarlo._chunk_kernels(alt, sizes, 4, span, ALL_TESTS)
        ((draw, *_),) = montecarlo._workspaces
        want = _draw_chunk(alt, sizes[-1], 4, span)
        assert draw[: want.size].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["calibrate_curve", "power_curve"])
    def test_several_n_use_four_buffer_workspaces(self, name, monkeypatch):
        monkeypatch.setattr(montecarlo, "_workspaces", [])
        montecarlo._null_runs.cache_clear()
        _curve(name, (8, 20, 33), 2 * _chunk_rows(33) + 5, threads=2)
        assert montecarlo._workspaces
        assert all(ws.shape[0] == 4 for ws in montecarlo._workspaces)

    def test_sample_larger_than_a_buffer_keeps_no_workspace_of_it(self):
        n, reps, seed = montecarlo.CHUNK_SIZE + 1, 3, 6
        alt = AlternativeSpec.parse("lognormal:0,0.5")
        tests = (TN.SPMS, TN.SQRT_B1, TN.LIN_MUDHOLKAR)
        cell = power_study(
            alt, n, reps, 0.05, tests=tests, seed=seed,
            critical_values="asymptotic",
        )
        # its chunks built blocks of their own and freed them
        assert all(
            ws.shape == (4, montecarlo.CHUNK_SIZE) for ws in montecarlo._workspaces
        )
        su = su_params(n)
        counts = dict.fromkeys(tests, 0)
        for r in range(reps):
            stats = montecarlo._chunk_statistics(
                _draw_chunk(alt, n, seed, (r, r + 1)), tests, su
            )
            for t in tests:
                counts[t] += int(montecarlo._rejects(t, 0.05)(*stats[t])[0])
        assert cell.powers == {t: counts[t] / reps for t in tests}

    def test_kept_null_run_owns_its_arrays(self):
        montecarlo._null_runs.cache_clear()
        null = montecarlo._null_statistics((20,), 5000, 3, ALL_TESTS, 1)[20]
        before = _kernel_bytes(null)
        calibrate(8, 3000, [0.05], 3)
        power_study(
            AlternativeSpec.parse("gamma:2"), 1000, 300, 0.05, seed=3,
            threads=2, critical_values="asymptotic",
        )
        assert montecarlo._workspaces
        for out in null.values():
            for a in out:
                assert not any(np.shares_memory(a, b) for b in self._pooled())
        assert _kernel_bytes(null) == before

    def test_threads_agree_after_reuse_across_n(self):
        alt = AlternativeSpec.parse("beta:2,1")

        def run(threads, sizes):
            montecarlo._null_runs.cache_clear()
            return {
                n: (
                    power_study(alt, n, 3 * _chunk_rows(n) + 5, 0.05, seed=2,
                                threads=threads, critical_values="asymptotic"),
                    calibrate(n, 2 * _chunk_rows(n) + 9, [0.05, 0.1], 2,
                              threads=threads),
                )
                for n in sizes
            }

        first = run(1, (1000, 8, 100))
        assert run(3, (100, 8, 1000)) == first
        assert run(1, (8, 1000, 100)) == first

    def test_warm_cell_faults_in_few_pages(self):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RUSAGE_THREAD"):
            pytest.skip("per-thread resource usage is not available")
        alt = AlternativeSpec.parse("lognormal:0,0.5")
        kw = dict(reps=2048, level=0.05, critical_values="asymptotic")
        cells = {
            "one n": lambda: power_study(alt, 1000, **kw),
            "two n": lambda: power_curve(alt, (500, 1000), **kw),
        }
        for name, cell in cells.items():
            cell()
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            cell()
            faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
            # allocating and freeing each chunk's blocks took about 7,600
            assert faults < 1000, name

    def test_a_call_leaves_at_most_its_threads_idle_workspaces(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_workspaces", [])
        montecarlo._null_runs.cache_clear()
        _curve("power_curve", (8, 33), 16 * _chunk_rows(33), threads=8)
        assert 1 <= len(montecarlo._workspaces) <= 8
        # as if all eight chunks had run at once
        while len(montecarlo._workspaces) < 8:
            montecarlo._workspaces.append(montecarlo._new_workspace())
        montecarlo._null_runs.cache_clear()
        _curve("power_curve", (8, 33), 16 * _chunk_rows(33), threads=1)
        assert len(montecarlo._workspaces) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_writes_its_own_copy_of_a_workspace(self):
        ws = montecarlo._new_workspace()
        ws.fill(1.0)
        pid = os.fork()
        if pid == 0:
            ws.fill(2.0)
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        assert np.all(ws == 1.0)


@pytest.fixture
def draws(monkeypatch):
    """(n, seed, base) of every chunk drawn, from an empty memo on."""
    montecarlo._null_runs.cache_clear()
    calls = []

    def recording(spec, n, seed, span, base=0, **k):
        calls.append((n, seed, base))
        return _draw_chunk(spec, n, seed, span, base, **k)

    monkeypatch.setattr(montecarlo, "_draw_chunk", recording)
    return calls


def _pool_draws(draws):
    return [d for d in draws if d[2] == CALIBRATION_STREAM_BASE]


class TestNullReferenceCache:
    def test_repeat_call_reuses_null_run(self):
        alt = AlternativeSpec.parse("gamma:2")
        kw = dict(seed=21, null_reps=1000)
        power_study(alt, 25, 100, 0.05, **kw)
        runs = montecarlo._null_runs(
            1000, 21, ALL_TESTS, 1, CALIBRATION_STREAM_BASE
        )
        pools = runs[25]
        cell = power_study(alt, 25, 100, 0.01, **kw)
        assert runs[25] is pools
        assert cell.level == 0.01

    def test_table_builds_each_pool_once(self, monkeypatch):
        log = []  # the null runs of every request, keyed by n
        orig = montecarlo._null_statistics

        def recording(sizes, *args):
            log.append(orig(sizes, *args))
            return log[-1]

        monkeypatch.setattr(montecarlo, "_null_statistics", recording)
        montecarlo._null_runs.cache_clear()
        kw = dict(seed=22, null_reps=600)
        for alt in ("gamma:2", "beta:2,1"):
            for n in (20, 50):
                power_study(AlternativeSpec.parse(alt), n, 50, 0.05, **kw)
        assert [list(runs) for runs in log] == [[20], [50], [20], [50]]
        assert log[2][20] is log[0][20]
        assert log[3][50] is log[1][50]
        assert montecarlo._null_runs.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "change",
        [dict(seed=24), dict(null_reps=700), dict(tests=("spms", "sqrt_b1")),
         dict(threads=2)],
        ids=["seed", "null_reps", "tests", "threads"],
    )
    def test_two_latest_configurations_are_kept(self, change, draws):
        alt = AlternativeSpec.parse("weibull:2")
        kw = dict(seed=23, null_reps=600, tests=("spms",))

        def table(**other):
            for n in (20, 50):
                power_study(alt, n, 50, 0.05, **{**kw, **other})

        table()
        table(**change)
        assert len(_pool_draws(draws)) == 4
        draws.clear()
        table()
        table(**change)
        assert _pool_draws(draws) == []
        # a third configuration drops the least recently used one
        table(seed=99)
        assert montecarlo._null_runs.cache_info().currsize == 2
        draws.clear()
        table(**change)
        assert _pool_draws(draws) == []
        table()
        assert len(_pool_draws(draws)) == 2

    @pytest.mark.parametrize(
        "run, key",
        [
            (lambda: power_study(AlternativeSpec.parse("gamma:3"), 20, 50,
                                 0.05, seed=25, null_reps=600),
             (600, 25, ALL_TESTS, 1, CALIBRATION_STREAM_BASE)),
            (lambda: calibrate(20, 600, [0.05], 25), (600, 25, (TN.SPMS,), 1, 0)),
        ],
        ids=["power", "calibrate"],
    )
    def test_cached_pools_are_read_only(self, run, key):
        montecarlo._null_runs.cache_clear()
        run()
        (null,) = montecarlo._null_runs(*key).values()
        assert tuple(null) == key[2]
        for raw, z in null.values():
            for pool in (raw, z):
                assert not pool.flags.writeable
                with pytest.raises(ValueError):
                    pool[0] = 0.0

    def test_warm_results_equal_cold(self):
        alt = AlternativeSpec.parse("lognormal:0,0.5")
        kw = dict(seed=26, null_reps=600, threads=2)
        montecarlo._null_runs.cache_clear()
        cold = power_study(alt, 20, 300, 0.05, **kw)
        power_study(AlternativeSpec.parse("beta:3,2"), 50, 300, 0.05, **kw)
        warm = power_study(alt, 20, 300, 0.05, **kw)
        runs = montecarlo._null_runs(600, 26, ALL_TESTS, 2, CALIBRATION_STREAM_BASE)
        assert sorted(runs) == [20, 50]
        assert warm == cold

    @pytest.mark.parametrize("null_reps", [0, -5])
    def test_nonpositive_null_reps_rejected(self, null_reps):
        alt = AlternativeSpec.parse("gamma:2")
        with pytest.raises(InvalidParamsError, match="null_reps"):
            power_study(alt, 20, 10, 0.05, null_reps=null_reps)
        cell = power_study(alt, 20, 10, 0.05, null_reps=null_reps,
                           critical_values="asymptotic")
        assert cell.reps == 10


class TestSharedNullRun:
    """calibrate, null_histogram and moment_validation at one (n, reps,
    seed, threads) read one kept null run."""

    SUMMARIES = {
        "calibrate": lambda t: calibrate(20, 700, [0.05, 0.2], 33, threads=t),
        "hist_z": lambda t: null_histogram("z", 20, 700, 9, 33, threads=t),
        "hist_spms": lambda t: null_histogram("spms", 20, 700, 9, 33, threads=t),
        "moments": lambda t: moment_validation(20, 700, 33, threads=t),
    }

    @pytest.mark.parametrize("name", ["hist_z", "hist_spms", "moments"])
    def test_summary_after_calibrate_draws_nothing(self, name, draws):
        self.SUMMARIES["calibrate"](1)
        assert draws
        draws.clear()
        self.SUMMARIES[name](1)
        assert draws == []

    @pytest.mark.parametrize("name", sorted(SUMMARIES))
    def test_warm_results_equal_cold(self, name, draws):
        cold = TestChunkRule._fields(self.SUMMARIES[name](1))
        montecarlo._null_runs.cache_clear()
        other = "moments" if name == "calibrate" else "calibrate"
        self.SUMMARIES[other](1)  # builds the run the warm call reads
        draws.clear()
        warm = TestChunkRule._fields(self.SUMMARIES[name](1))
        assert draws == []
        assert warm == cold

    def test_threads_2_after_threads_1_draws_its_own_chunks(
        self, draws, monkeypatch
    ):
        workers = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        reps = 2 * _chunk_rows(20)  # two chunks
        one = calibrate(20, reps, [0.05], 35, threads=1)
        assert draws == [(20, 35, 0)] * 2 and workers == []
        draws.clear()
        two = calibrate(20, reps, [0.05], 35, threads=2)
        assert draws == [(20, 35, 0)] * 2 and workers == [2]
        assert two == one

    @pytest.mark.parametrize(
        "run, rebuilt",
        [
            (lambda: moment_validation(20, 800, 33), (20, 33, 0)),
            (lambda: null_histogram("z", 20, 700, 9, 34), (20, 34, 0)),
            (
                lambda: power_study(
                    AlternativeSpec.parse("gamma:2"), 20, 50, 0.05,
                    tests=("spms",), seed=33, null_reps=700,
                ),
                (20, 33, CALIBRATION_STREAM_BASE),
            ),
        ],
        ids=["reps", "seed", "base"],
    )
    def test_another_run_is_rebuilt_and_keeps_the_table(self, run, rebuilt, draws):
        for n in (20, 30):
            calibrate(n, 700, [0.05], 33)
        draws.clear()
        run()
        assert rebuilt in draws
        draws.clear()
        for n in (20, 30):
            calibrate(n, 700, [0.05], 33)
        assert draws == []
        assert montecarlo._null_runs.cache_info().currsize == 2

    def test_racing_callers_draw_one_null_run(self, monkeypatch):
        # one lock covers the lookup, the draw and the store: without it
        # each of the 4 threads drew the whole 20,000-row run
        rows = []

        def counting(spec, n, seed, span, base=0, **k):
            if base != 0:
                rows.append(span[1] - span[0])
            return _draw_chunk(spec, n, seed, span, base, **k)

        monkeypatch.setattr(montecarlo, "_draw_chunk", counting)
        montecarlo._null_runs.cache_clear()
        alt = AlternativeSpec.parse("gamma:2")
        start = threading.Barrier(4, timeout=60)

        def racing(_):
            start.wait()
            return power_curve(alt, [20, 50], 100, 0.05, seed=9, null_reps=20000)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(racing, range(4)))
        assert sum(rows) == 20000
        assert all(r == results[0] for r in results)

    def test_concurrent_summaries_equal_serial(self):
        names = sorted(self.SUMMARIES)
        montecarlo._null_runs.cache_clear()
        serial = {name: TestChunkRule._fields(self.SUMMARIES[name](1))
                  for name in names}
        montecarlo._null_runs.cache_clear()
        jobs = [names[i % len(names)] for i in range(8)]
        start = threading.Barrier(len(jobs), timeout=60)

        def call(name):
            start.wait()
            return TestChunkRule._fields(self.SUMMARIES[name](1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(call, jobs))
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial[name] for name in jobs]
        assert montecarlo._null_runs.cache_info().currsize <= 2


class TestKeptCriticalValues:
    """A kept null run computes each (test, level) critical value once, by
    np.quantile of its own unsorted arrays, and keeps it beside them."""

    LEVELS = (0.01, 0.05, 0.10, 0.20, 0.037)

    @staticmethod
    def _quantile(test, raw, z, level):
        if test is TN.SHAPIRO_WILK:
            return float(np.quantile(raw, level))
        return float(np.quantile(np.abs(z), 1.0 - level))

    @staticmethod
    def _run(n, seed, null_reps):
        return montecarlo._null_runs(
            null_reps, seed, ALL_TESTS, 1, CALIBRATION_STREAM_BASE
        )[n]

    def _check_crits(self, n, seed, null_reps):
        crits = montecarlo._null_reference(n, seed, null_reps, ALL_TESTS, 1)
        run = self._run(n, seed, null_reps)
        assert tuple(crits) == ALL_TESTS
        for t in ALL_TESTS:
            for level in self.LEVELS:
                want = self._quantile(t, *run[t], level)
                assert crits[t](level).hex() == want.hex(), (t, level)
        assert {k: v.hex() for k, v in run.crit.items()} == {
            (t, level): crits[t](level).hex()
            for t in ALL_TESTS for level in self.LEVELS
        }
        return run

    @pytest.mark.parametrize("null_reps", [4161, 8192, 10001])
    def test_kept_values_equal_quantiles_of_the_unsorted_run(self, null_reps):
        montecarlo._null_runs.cache_clear()
        run = self._check_crits(20, 41, null_reps)
        assert {a.size for pair in run.values() for a in pair} == {null_reps}

    def test_run_with_undefined_rows_dropped(self, monkeypatch):
        orig = montecarlo._chunk_statistics

        def every_fifth_undefined(x, *args):
            out = orig(x, *args)
            for raw, z, defined in out.values():
                raw[::5] = z[::5] = np.nan
                defined[::5] = False
            return out

        monkeypatch.setattr(montecarlo, "_chunk_statistics", every_fifth_undefined)
        montecarlo._null_runs.cache_clear()
        run = self._check_crits(30, 42, 4164)
        kept = sum(b - a - len(range(0, b - a, 5)) for a, b in _spans(4164, 30))
        assert kept == 3331  # an odd run
        assert {a.size for pair in run.values() for a in pair} == {kept}
        assert all(np.isfinite(a).all() for pair in run.values() for a in pair)

    def test_rejects_reads_the_kept_critical_value(self):
        montecarlo._null_runs.cache_clear()
        crits = montecarlo._null_reference(25, 43, 5001, ALL_TESTS, 1)
        run = self._run(25, 43, 5001)
        for t in ALL_TESTS:
            raw, z = run[t]
            ok = np.ones(z.size, bool)
            for level in self.LEVELS:
                crit = self._quantile(t, raw, z, level)
                want = raw < crit if t is TN.SHAPIRO_WILK else np.abs(z) > crit
                got = montecarlo._rejects(t, level, crits[t])(raw, z, ok)
                assert np.array_equal(got, want), (t, level)

    def test_warm_power_call_runs_no_quantile(self, monkeypatch):
        alt = AlternativeSpec.parse("gamma:2")
        calls = []
        quantile = np.quantile

        def counting_quantile(*args, **kwargs):
            calls.append(args[1])
            return quantile(*args, **kwargs)

        monkeypatch.setattr(montecarlo.np, "quantile", counting_quantile)
        montecarlo._null_runs.cache_clear()
        kw = dict(seed=44, null_reps=3000)
        cold = power_curve(alt, [20, 50], 200, 0.05, **kw)
        assert len(calls) == 8  # 2 sizes x 4 tests
        warm = power_curve(alt, [20, 50], 200, 0.05, **kw)
        assert len(calls) == 8
        assert warm == cold
        power_curve(alt, [50, 20], 200, 0.2, **kw)  # a new level: 8 more
        power_curve(alt, [20], 200, 0.2, **kw)
        assert len(calls) == 16

    def test_racing_threads_keep_equal_values(self):
        alt = AlternativeSpec.parse("beta:2,1")
        kw = dict(seed=45, null_reps=2000)

        def call(level):
            return power_curve(alt, [20, 30], 100, level, **kw)

        def kept():
            return {
                n: (
                    {t: (raw.tobytes(), z.tobytes()) for t, (raw, z) in run.items()},
                    {k: v.hex() for k, v in run.crit.items()},
                )
                for n in (20, 30)
                for run in [self._run(n, 45, 2000)]
            }

        montecarlo._null_runs.cache_clear()
        serial = {level: call(level) for level in (0.05, 0.1)}
        serial_kept = kept()
        assert all(len(crit) == 8 for _, crit in serial_kept.values())
        montecarlo._null_runs.cache_clear()
        jobs = [(0.05, 0.1)[i % 2] for i in range(8)]
        start = threading.Barrier(len(jobs), timeout=60)

        def racing(level):
            start.wait()
            return call(level)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(racing, jobs))
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial[level] for level in jobs]
        # one run is built and kept, and it holds every level asked
        assert kept() == serial_kept

    def test_kept_power_run_holds_only_its_raw_and_z_arrays(self):
        montecarlo._null_runs.cache_clear()
        power_study(AlternativeSpec.parse("gamma:2"), 20, 100, 0.05, seed=49,
                    null_reps=3000)
        run = self._run(20, 49, 3000)
        arrays = [a for pair in run.values() for a in pair]
        assert all(a.base is None and a.dtype == np.float64 for a in arrays)
        assert sum(a.nbytes for a in arrays) == 2 * len(ALL_TESTS) * 3000 * 8
        assert list(vars(run)) == ["crit"]
        assert all(type(v) is float for v in run.crit.values())

    def test_evicted_configuration_drops_its_run(self):
        montecarlo._null_runs.cache_clear()
        crits = montecarlo._null_reference(20, 46, 1500, ALL_TESTS, 1)
        crits[TN.SPMS](0.05)
        gone = weakref.ref(self._run(20, 46, 1500))
        del crits
        gc.collect()
        assert gone() is not None  # kept in _null_runs
        for seed in (47, 48):  # two newer configurations evict it
            calibrate(20, 300, [0.05], seed)
        gc.collect()
        assert gone() is None


class TestResultScalarTypes:
    """Result records hold plain Python scalars whatever the numpy version,
    so they serialize to JSON as they are."""

    def test_calibration_row(self):
        row = calibrate(20, 300, (0.05, 0.2), seed=2)
        assert type(row.undefined_count) is int
        assert all(type(r) is float for r in row.rejection_rates)

    @pytest.mark.parametrize("critical_values", ["simulated", "asymptotic"])
    def test_power_cell(self, critical_values):
        cell = power_study(
            AlternativeSpec.parse("beta:2,1"),
            20,
            200,
            0.05,
            seed=3,
            critical_values=critical_values,
            null_reps=500,
        )
        assert all(type(p) is float for p in cell.powers.values())
        assert all(type(c) is int for c in cell.undefined_counts.values())

    def test_histogram_and_moments(self):
        hist = null_histogram("z", 20, 300, 8, seed=4)
        assert type(hist.out_of_range) is int
        assert type(moment_validation(20, 300, seed=4).undefined_count) is int


class TestSeedValidation:
    """Every experiment rejects a seed outside 64 bits before drawing."""

    EXPERIMENTS = {
        "calibrate": lambda seed, threads: calibrate(
            20, 100, [0.05], seed, threads=threads
        ),
        "power_study": lambda seed, threads: power_study(
            AlternativeSpec.parse("gamma:2"),
            20,
            100,
            0.05,
            seed=seed,
            threads=threads,
            null_reps=200,
        ),
        "null_histogram": lambda seed, threads: null_histogram(
            "z", 20, 100, 8, seed, threads=threads
        ),
        "moment_validation": lambda seed, threads: moment_validation(
            20, 100, seed, threads=threads
        ),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_out_of_range_seed(self, name, seed, threads, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a chunk was drawn before the seed check")

        monkeypatch.setattr("pmskew.montecarlo._draw_chunk", no_draw)
        with pytest.raises(InvalidParamsError, match="seed"):
            self.EXPERIMENTS[name](seed, threads)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_largest_seed_accepted(self, name):
        self.EXPERIMENTS[name](2**64 - 1, 1)


_GAMMA2 = AlternativeSpec.parse("gamma:2")

# each experiment with valid small arguments, by keyword
_EXPERIMENTS = {
    "calibrate": (calibrate, dict(n=20, reps=100, levels=[0.05], seed=1)),
    "power_study": (
        power_study,
        dict(alternative=_GAMMA2, n=20, reps=100, level=0.05, seed=1, null_reps=200),
    ),
    "null_histogram": (
        null_histogram, dict(statistic="z", n=20, reps=100, bins=8, seed=1)
    ),
    "moment_validation": (moment_validation, dict(n=20, reps=100, seed=1)),
}

# power_curve over two sizes, with the defaults' Shapiro-Wilk n <= 5000 rule
_POWER_CURVE = (
    power_curve,
    dict(alternative=_GAMMA2, ns=(20, 50), reps=100, level=0.05, seed=1, null_reps=200),
)
_CALIBRATE_CURVE = (
    calibrate_curve, dict(ns=(20, 50), reps=100, levels=[0.05], seed=1)
)


_BAD_COUNTS = [
    ("threads", 0), ("threads", -3), ("threads", 2.5), ("threads", "2"),
    ("threads", 1025),
    ("seed", 1.7), ("seed", "3"), ("reps", 100.9),
    ("reps", True), ("seed", True), ("threads", True),
]


class TestArgumentValidation:
    """Every experiment checks its counts, as integers, before it looks a
    null run up or draws one: a float or a string is rejected, never
    truncated or parsed, and the kept null runs stay as they were."""

    @pytest.mark.parametrize(
        "name, arg, value, error, match",
        [
            pytest.param(name, arg, v, InvalidParamsError, arg, id=f"{name}-{arg}-{v}")
            for name, arg, v in [
                (name, arg, v) for name in sorted(_EXPERIMENTS) for arg, v in _BAD_COUNTS
            ]
            + [("null_histogram", "bins", 10.7), ("null_histogram", "bins", 2**20 + 1),
               ("power_study", "null_reps", 2.5)]
        ]
        # every n of a multi-n power call, the largest last or not
        + [
            pytest.param("power_curve", "ns", ns, error, match, id=f"power_curve-ns-{id_}")
            for ns, error, match, id_ in [
                ((20, 6000), SampleTooLargeError, "6000", "sw_too_large"),
                ((6000, 20), SampleTooLargeError, "6000", "sw_too_large_first"),
                ((20, 50, 4), SampleTooSmallError, "4", "too_small"),
                ((20, 50.5), InvalidParamsError, "n", "not_integer"),
            ]
        ]
        # every n and every level of a multi-n calibrate call
        + [
            pytest.param("calibrate_curve", "ns", (20, 50, 7), SampleTooSmallError,
                         "7", id="calibrate_curve-ns-too_small"),
            pytest.param("calibrate_curve", "levels", [0.05, 1.0], InvalidLevelError,
                         "1.0", id="calibrate_curve-levels-one"),
        ],
    )
    def test_rejected_before_any_draw(self, name, arg, value, error, match, monkeypatch):
        func, kw = {
            **_EXPERIMENTS,
            "power_curve": _POWER_CURVE,
            "calibrate_curve": _CALIBRATE_CURVE,
        }[name]
        func(**kw)  # a kept configuration a bad call must not evict
        kept = montecarlo._null_runs.cache_info()

        def no_draw(*args, **kwargs):
            raise AssertionError(f"a chunk was drawn before the {arg} check")

        monkeypatch.setattr("pmskew.montecarlo._draw_chunk", no_draw)
        with pytest.raises(error, match=match):
            func(**{**kw, arg: value})
        assert montecarlo._null_runs.cache_info() == kept


# malformed non-count arguments, each with the error it must raise
_MALFORMED = {
    "levels_not_a_list": ("calibrate", "levels", 0.05, InvalidLevelError),
    "levels_bare_string": ("calibrate", "levels", "0.05", InvalidLevelError),
    "tests_none": ("power_study", "tests", None, InvalidParamsError),
    "tests_bare_string": ("power_study", "tests", "spms", InvalidParamsError),
    "tests_empty": ("power_study", "tests", [], InvalidParamsError),
    "alternative_string": (
        "power_study", "alternative", "beta:2,1", InvalidParamsError
    ),
    "alternative_none": ("power_study", "alternative", None, InvalidParamsError),
    "value_range_not_numbers": (
        "null_histogram", "value_range", ("a", "b"), InvalidParamsError
    ),
    "value_range_one_value": (
        "null_histogram", "value_range", (1.0,), InvalidParamsError
    ),
    "value_range_bare_string": (
        "null_histogram", "value_range", "12", InvalidParamsError
    ),
}


class TestMalformedArguments:
    """A levels, tests or value_range argument of the wrong shape raises a
    typed error naming it, before any null run is looked up or drawn."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_typed_error_before_any_draw(self, case, monkeypatch):
        name, arg, value, error = _MALFORMED[case]
        func, kw = _EXPERIMENTS[name]
        func(**kw)  # a kept configuration a bad call must not evict
        kept = montecarlo._null_runs.cache_info()

        def no_draw(*args, **kwargs):
            raise AssertionError(f"a chunk was drawn before the {arg} check")

        monkeypatch.setattr("pmskew.montecarlo._draw_chunk", no_draw)
        with pytest.raises(error, match=arg):
            func(**{**kw, arg: value})
        assert montecarlo._null_runs.cache_info() == kept

    @pytest.mark.parametrize(
        "tests",
        [lambda: (t for t in ["spms", "bogus"]), lambda: ["spms", "bogus"]],
        ids=["generator", "list"],
    )
    def test_unknown_test_name_is_named(self, tests):
        # a generator is consumed by the check, so the message names the
        # item itself, not what is left of the argument
        with pytest.raises(InvalidParamsError, match="unknown test name 'bogus'"):
            power_study(AlternativeSpec.parse("gamma:2"), 20, 10, 0.05,
                        tests=tests(), critical_values="asymptotic")


def _count(lo, hi):
    """A valid integer argument: in [lo, hi], Python or numpy."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi).map(np.uint64))


# small counts, so that no example allocates much or starts many threads
_VALID = dict(
    n=_count(8, 200),
    reps=_count(1, 64),
    seed=_count(0, 2**64 - 1),
    threads=_count(1, 4),
    bins=_count(2, 64),
    null_reps=_count(1, 64),
    level=st.floats(0.001, 0.999),
    levels=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3),
    ns=st.lists(_count(8, 200), min_size=1, max_size=3),
    tests=st.lists(st.sampled_from([*ALL_TESTS, "spms"]), min_size=1, max_size=4),
)
# the collection arguments: a bad value is one more item, or the whole
_COLLECTIONS = ("levels", "ns", "tests")
# out-of-range integers, and values that are not integers or numbers
_BAD = st.one_of(
    st.sampled_from([-3, -1, 0, 1, 7, 2**64]),
    st.sampled_from([0.0, 1.0, 1.5, 2.5, math.nan]),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.integers(-3, 300).map(str),
)
# numpy-shaped and collection-like values: 0-d and 2-d arrays, numpy
# scalars, bools, bytes, generators and dicts
_SHAPED = st.one_of(
    st.sampled_from([
        np.array(20), np.array(0.05), np.array("spms"), np.array([[20, 50]]),
        np.array([[0.05]]), np.int64(20), np.float64(0.05), np.bool_(True),
        True, False, b"20", b"spms", {20: 1}, {},
    ]),
    st.builds(lambda xs: (x for x in xs), st.lists(st.integers(8, 60), max_size=2)),
)
# one valid value of each argument
_ARGS = dict(
    n=20, reps=20, seed=1, threads=1, bins=8, null_reps=20, level=0.05,
    levels=[0.05], ns=[20], tests=["spms"],
)
# every experiment, with the multi-n ones
_PROPERTY_EXPERIMENTS = {
    **_EXPERIMENTS,
    "calibrate_curve": _CALIBRATE_CURVE,
    "power_curve": _POWER_CURVE,
}


class TestArgumentProperty:
    """Whatever its counts, sizes, levels and tests, an experiment returns
    a result or raises a PmskewError, never another exception. About half
    the examples are valid calls; in the others one argument is bad (for
    levels, ns and tests, one of the list's items or the whole argument)."""

    @settings(max_examples=250, deadline=None)
    @given(
        name=st.sampled_from(sorted(_PROPERTY_EXPERIMENTS)),
        args=st.fixed_dictionaries(_VALID),
        bad=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(sorted(_VALID)), _BAD | _SHAPED, st.booleans()
            ),
        ),
        critical_values=st.sampled_from(["simulated", "asymptotic"]),
    )
    # a 0-d array as a whole collection argument, which iterating raises on
    @example("calibrate_curve", _ARGS, ("ns", np.array(20), True), "asymptotic")
    @example("calibrate", _ARGS, ("levels", np.array(0.05), True), "asymptotic")
    @example("power_study", _ARGS, ("tests", np.array("spms"), True), "asymptotic")
    @example("power_curve", _ARGS, ("ns", np.array(20), True), "asymptotic")
    def test_result_or_typed_error(self, name, args, bad, critical_values):
        args = dict(args)
        if bad is not None:
            arg, value, whole = bad
            item = arg in _COLLECTIONS and not whole
            args[arg] = args[arg] + [value] if item else value
        func, kw = _PROPERTY_EXPERIMENTS[name]
        call = {k: args[k] for k in kw if k in args}
        call["threads"] = args["threads"]
        if name.startswith("power"):
            call["critical_values"] = critical_values
            call["tests"] = args["tests"]
        try:
            result = func(**{**kw, **call})
        except PmskewError:
            return
        if isinstance(result, list):
            assert result and all(r.reps == args["reps"] for r in result)
        else:
            assert result.n == args["n"] and result.reps == args["reps"]


class TestStreamContract:
    """Chunk row j draws exactly the variates of a generator built for
    stream (seed, base + start + j), byte for byte."""

    SEED = 2**64 - 1
    # numpy's samplers called directly, one fresh generator per row: the
    # oracle shares no code with the in-place row fill
    SAMPLERS = {
        Family.NORMAL: lambda g, p, n: g.standard_normal(n),
        Family.BETA: lambda g, p, n: g.beta(p[0], p[1], n),
        Family.GAMMA: lambda g, p, n: g.gamma(p[0], 1.0, n),
        Family.WEIBULL: lambda g, p, n: g.weibull(p[0], n),
        Family.LOGNORMAL: lambda g, p, n: g.lognormal(p[0], p[1], n),
    }
    # gamma:0.5 and gamma:1 take numpy's shape < 1 and shape == 1 branches
    SPECS = (NORMAL,) + POWER_STUDY_ALTERNATIVES + tuple(
        AlternativeSpec.parse(s) for s in ("gamma:0.5", "gamma:1")
    )

    @classmethod
    def _per_row(cls, spec, n, seed, span, base):
        draw = cls.SAMPLERS[spec.family]
        return np.vstack(
            [
                draw(SeededStream(seed, base + r).generator(), spec.params, n)
                for r in range(*span)
            ]
        )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    def test_draw_values_equals_numpy_sampler(self, spec):
        got = draw_values(spec, 50, SeededStream(self.SEED, 7).generator())
        want = self._per_row(spec, 50, self.SEED, (7, 8), 0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("base", [0, CALIBRATION_STREAM_BASE])
    @pytest.mark.parametrize("span", [(4096, 8192), (8192, 8197)])
    @pytest.mark.parametrize("n", [8, 20, 50, 1000])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    def test_chunk_rows_equal_per_row_streams(self, spec, n, span, base):
        got = _draw_chunk(spec, n, self.SEED, span, base=base)
        want = self._per_row(spec, n, self.SEED, span, base)
        assert got.shape == (span[1] - span[0], n)
        assert got.tobytes() == want.tobytes()

    def test_concurrent_chunks_match_sequential(self):
        spec = AlternativeSpec.parse("beta:2,1")
        spans = _spans(2 * _chunk_rows(40), 40)
        assert len(spans) == 2
        sequential = [_draw_chunk(spec, 40, self.SEED, s) for s in spans]
        barrier = threading.Barrier(2)

        def draw(span):
            barrier.wait()
            return _draw_chunk(spec, 40, self.SEED, span)

        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(draw, spans))
        for a, b in zip(sequential, concurrent):
            assert a.tobytes() == b.tobytes()
