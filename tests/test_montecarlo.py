"""Replication engine: brute-force oracles, determinism, conservation."""

import threading
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
from pmskew.montecarlo import CALIBRATION_STREAM_BASE, CHUNK_SIZE, _draw_chunk

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
        assert CHUNK_SIZE < 4200
        r1 = calibrate(12, 4200, [0.05, 0.1], 3, threads=1)
        r3 = calibrate(12, 4200, [0.05, 0.1], 3, threads=3)
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
        kw = dict(statistic="z", n=15, reps=4200, bins=9, seed=2)
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
        m1 = moment_validation(10, 4200, 5, threads=1)
        m3 = moment_validation(10, 4200, 5, threads=3)
        assert m1 == m3

    def test_fewer_than_two_reps_rejected(self):
        with pytest.raises(InvalidParamsError):
            moment_validation(20, 1, 0)


class TestChunkPipeline:
    @pytest.fixture
    def moment_calls(self, monkeypatch):
        from pmskew import moments, skewtests

        calls = []

        def counted(x):
            calls.append(len(x))
            return moments.central_moment_arrays(x)

        for module in (skewtests, montecarlo):
            monkeypatch.setattr(
                module, "central_moment_arrays", counted, raising=False
            )
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
        power_study(alt, 20, CHUNK_SIZE + 5, 0.05, critical_values="asymptotic")
        assert moment_calls == [CHUNK_SIZE, 5]


class TestNullReferenceCache:
    def test_repeat_call_reuses_null_run(self):
        from pmskew import montecarlo

        alt = AlternativeSpec.parse("gamma:2")
        kw = dict(seed=21, null_reps=1000)
        power_study(alt, 25, 100, 0.05, **kw)
        key = list(montecarlo._null_cache)[0]
        pools = montecarlo._null_cache[key]
        cell = power_study(alt, 25, 100, 0.01, **kw)
        assert montecarlo._null_cache[key] is pools
        assert cell.level == 0.01

    def test_table_builds_each_pool_once(self, monkeypatch):
        log = []  # (n, pools) of every lookup
        orig = montecarlo._null_reference

        def recording(n, *args):
            log.append((n, orig(n, *args)))
            return log[-1][1]

        monkeypatch.setattr(montecarlo, "_null_reference", recording)
        montecarlo._null_cache.clear()
        kw = dict(seed=22, null_reps=600)
        for alt in ("gamma:2", "beta:2,1"):
            for n in (20, 50):
                power_study(AlternativeSpec.parse(alt), n, 50, 0.05, **kw)
        assert [n for n, _ in log] == [20, 50, 20, 50]
        assert log[2][1] is log[0][1]
        assert log[3][1] is log[1][1]
        assert sorted(k[0] for k in montecarlo._null_cache) == [20, 50]

    @pytest.mark.parametrize(
        "change",
        [dict(seed=24), dict(null_reps=700), dict(tests=("spms", "sqrt_b1"))],
        ids=["seed", "null_reps", "tests"],
    )
    def test_new_configuration_drops_previous_table(self, change):
        montecarlo._null_cache.clear()
        alt = AlternativeSpec.parse("weibull:2")
        kw = dict(seed=23, null_reps=600, tests=("spms",))
        for n in (20, 50):
            power_study(alt, n, 50, 0.05, **kw)
        assert len(montecarlo._null_cache) == 2
        power_study(alt, 20, 50, 0.05, **{**kw, **change})
        assert len(montecarlo._null_cache) == 1
        (key,) = montecarlo._null_cache
        assert key[0] == 20
        assert key[1:] != (23, 600, (TN.SPMS,))

    def test_cached_pools_are_read_only(self):
        montecarlo._null_cache.clear()
        power_study(AlternativeSpec.parse("gamma:3"), 20, 50, 0.05, seed=25,
                    null_reps=600)
        (pools,) = montecarlo._null_cache.values()
        assert set(pools) == set(TN)
        for pool in pools.values():
            assert not pool.flags.writeable
            with pytest.raises(ValueError):
                pool[0] = 0.0

    def test_warm_results_equal_cold(self):
        alt = AlternativeSpec.parse("lognormal:0,0.5")
        kw = dict(seed=26, null_reps=600, threads=2)
        montecarlo._null_cache.clear()
        cold = power_study(alt, 20, 300, 0.05, **kw)
        power_study(AlternativeSpec.parse("beta:3,2"), 50, 300, 0.05, **kw)
        warm = power_study(alt, 20, 300, 0.05, **kw)
        assert len(montecarlo._null_cache) == 2
        assert warm == cold

    @pytest.mark.parametrize("null_reps", [0, -5])
    def test_nonpositive_null_reps_rejected(self, null_reps):
        alt = AlternativeSpec.parse("gamma:2")
        with pytest.raises(InvalidParamsError, match="null_reps"):
            power_study(alt, 20, 10, 0.05, null_reps=null_reps)
        cell = power_study(alt, 20, 10, 0.05, null_reps=null_reps,
                           critical_values="asymptotic")
        assert cell.reps == 10


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

    @staticmethod
    def _per_row(spec, n, seed, span, base):
        return np.vstack(
            [
                draw_values(spec, n, SeededStream(seed, base + r).generator())
                for r in range(*span)
            ]
        )

    @pytest.mark.parametrize("base", [0, CALIBRATION_STREAM_BASE])
    @pytest.mark.parametrize("span", [(CHUNK_SIZE, 2 * CHUNK_SIZE), (8192, 8197)])
    @pytest.mark.parametrize("n", [8, 1000])
    @pytest.mark.parametrize(
        "spec", (NORMAL,) + POWER_STUDY_ALTERNATIVES, ids=lambda s: s.label
    )
    def test_chunk_rows_equal_per_row_streams(self, spec, n, span, base):
        got = _draw_chunk(spec, n, self.SEED, span, base=base)
        want = self._per_row(spec, n, self.SEED, span, base)
        assert got.shape == (span[1] - span[0], n)
        assert got.tobytes() == want.tobytes()

    def test_concurrent_chunks_match_sequential(self):
        spec = AlternativeSpec.parse("beta:2,1")
        spans = [(0, CHUNK_SIZE), (CHUNK_SIZE, 2 * CHUNK_SIZE)]
        sequential = [_draw_chunk(spec, 40, self.SEED, s) for s in spans]
        barrier = threading.Barrier(2)

        def draw(span):
            barrier.wait()
            return _draw_chunk(spec, 40, self.SEED, span)

        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(draw, spans))
        for a, b in zip(sequential, concurrent):
            assert a.tobytes() == b.tobytes()
