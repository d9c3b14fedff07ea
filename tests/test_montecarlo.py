"""Replication engine: brute-force oracles, determinism, conservation."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from pmskew import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Family,
    InvalidLevelError,
    InvalidParamsError,
    Sample,
    SampleTooLargeError,
    SampleTooSmallError,
    SeededStream,
    beta2_spms,
    calibrate,
    draw_values,
    lambda2,
    lin_mudholkar_test,
    moment_validation,
    null_histogram,
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
        with pytest.raises(InvalidParamsError):
            null_histogram("median", 20, 100, 10, 0)
        with pytest.raises(InvalidParamsError):
            null_histogram("spms", 20, 100, 10, 0, value_range=(1.0, -1.0))
        with pytest.raises(InvalidParamsError):
            null_histogram("spms", 20, 100, 10, 0, value_range=(-np.inf, np.inf))
        with pytest.raises(InvalidParamsError):
            null_histogram("z", 20, 100, 10, 0, value_range=(0.0, np.inf))


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
            def counted(x):
                calls.append(len(x))
                return getattr(moments, name)(x)

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
    def test_one_moments_pass_per_chunk(self, moment_calls, tests, passes):
        x = _draw_chunk(NORMAL, 30, 2, (0, 64))
        montecarlo._chunk_statistics(x, tests, su_params(30))
        assert moment_calls == [64] * passes

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


@pytest.fixture
def draws(monkeypatch):
    """(n, seed, base) of every chunk drawn, from an empty memo on."""
    montecarlo._null_runs.cache_clear()
    calls = []

    def recording(spec, n, seed, span, base=0):
        calls.append((n, seed, base))
        return _draw_chunk(spec, n, seed, span, base)

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
        log = []  # (n, null run) of every lookup
        orig = montecarlo._null_statistics

        def recording(n, *args):
            log.append((n, orig(n, *args)))
            return log[-1][1]

        monkeypatch.setattr(montecarlo, "_null_statistics", recording)
        montecarlo._null_runs.cache_clear()
        kw = dict(seed=22, null_reps=600)
        for alt in ("gamma:2", "beta:2,1"):
            for n in (20, 50):
                power_study(AlternativeSpec.parse(alt), n, 50, 0.05, **kw)
        assert [n for n, _ in log] == [20, 50, 20, 50]
        assert log[2][1] is log[0][1]
        assert log[3][1] is log[1][1]
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

    def test_concurrent_summaries_equal_serial(self):
        # no lock: racing threads may each build the run, with equal bytes
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
