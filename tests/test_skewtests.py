"""The spms statistic, its series expansion, and the comparison tests."""

import math

import numpy as np
import pytest
from scipy import stats

import pmskew as pk
from pmskew import (
    DegenerateCorrelationError,
    DegenerateDenominatorError,
    InvalidLevelError,
    Sample,
    SampleTooLargeError,
    SampleTooSmallError,
    SeriesState,
    central_moments,
    lin_mudholkar_test,
    population_pms,
    shapiro_wilk_test,
    shift_scale,
    spms_series,
    spms_statistic,
    spms_test,
    sqrt_b1_test,
)
from pmskew.moments import central_moment_arrays
from pmskew.skewtests import (
    _batch_lm_z,
    _batch_spms,
    _batch_sqrt_b1_z,
    _batch_sw,
)

N_BATTERY = (8, 11, 12, 25, 50, 100, 500, 2000)


def _degenerate_sample() -> Sample:
    # symmetric with b2 = 1.8 exactly, so 5*b2 - 6*b1 - 9 = 0
    c = math.sqrt(5.0) - 2.0
    return Sample(np.array([1.0, -1.0, c, -c] * 2))


def _seeded(n, seed=0, skew=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if skew:
        x = x + skew * rng.gamma(2.0, size=n)
    return x


class TestSpmsStatistic:
    def test_symmetric_sample_is_zero(self):
        s = central_moments(Sample([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert spms_statistic(s) == 0.0

    def test_zero_zero_one(self):
        s = central_moments(Sample([0.0, 0.0, 1.0]))
        assert spms_statistic(s) == pytest.approx(
            -1.0 / (2.0 * math.sqrt(2.0)), abs=1e-12
        )

    def test_skewed_five_points(self):
        # b1 = 1.296, b2 = 2.788: num = 1.13842*5.788, den = 2*(-2.816)
        s = central_moments(Sample([1.0, 2.0, 3.0, 4.0, 10.0]))
        assert spms_statistic(s) == pytest.approx(-1.1617021711811792, rel=1e-12)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(DegenerateDenominatorError):
            spms_statistic(central_moments(_degenerate_sample()))

    def test_negative_denominator_is_legitimate(self):
        # platykurtic sample: 5*b2 - 9 < 0, statistic flips sign, no error
        s = central_moments(Sample([1.0, 2.0, 3.0, 4.0, 10.0]))
        den = 5.0 * s.b2 - 6.0 * s.sqrt_b1**2 - 9.0
        assert den < 0
        assert spms_statistic(s) < 0 < s.sqrt_b1

    def test_antisymmetry_and_scale_invariance(self):
        base = Sample(_seeded(60, seed=2, skew=0.5))
        v = spms_statistic(central_moments(base))
        flipped = spms_statistic(central_moments(shift_scale(base, 0.0, -1.0)))
        moved = spms_statistic(central_moments(shift_scale(base, 13.0, 2.5)))
        assert flipped == pytest.approx(-v, rel=1e-10)
        assert moved == pytest.approx(v, rel=1e-10)


class TestPopulationPms:
    def test_normal_is_zero(self):
        assert population_pms(0.0, 3.0) == 0.0

    def test_gamma2_exact(self):
        # sqrt(beta1) = sqrt(2), beta2 = 6: 9*sqrt(2)/18
        assert population_pms(math.sqrt(2.0), 6.0) == pytest.approx(
            math.sqrt(0.5), rel=1e-14
        )

    def test_beta21_exact(self):
        # sqrt(beta1) = -4/(5*sqrt(2)), beta2 = 2.4 gives exactly -sqrt(2)
        assert population_pms(-4.0 / (5.0 * math.sqrt(2.0)), 2.4) == pytest.approx(
            -math.sqrt(2.0), rel=1e-14
        )

    def test_rounded_inputs(self):
        # faithful evaluation at two-decimal inputs
        assert population_pms(1.41, 6.0) == pytest.approx(0.699451, abs=1e-6)
        assert population_pms(-0.57, 2.4) == pytest.approx(-1.464877, abs=1e-6)

    def test_degenerate(self):
        # beta2 = 1.8, beta1 = 0 sits on the singular surface
        with pytest.raises(DegenerateDenominatorError):
            population_pms(0.0, 1.8)


class TestSpmsSeries:
    def test_symmetric_state_is_zero(self):
        assert spms_series(SeriesState(U=0.7, V=0.0, W=-0.2, n=50)) == 0.0

    def test_pure_v_state(self):
        # only V/2 and V^3/2 terms survive: 0.05 + 0.0005
        assert spms_series(SeriesState(U=0.0, V=1.0, W=0.0, n=100)) == (
            pytest.approx(0.0505, rel=1e-15)
        )

    def test_from_sample_state(self):
        x = _seeded(200, seed=4, skew=0.3)
        s = central_moments(Sample(x))
        st = SeriesState.from_sample(Sample(x))
        rn = math.sqrt(200)
        assert st.U == pytest.approx(rn * (s.m2 - 1.0), rel=1e-13)
        assert st.V == pytest.approx(rn * s.m3, rel=1e-13)
        assert st.W == pytest.approx(rn * (s.m4 - 3.0), rel=1e-13)

    def test_series_tracks_statistic_on_null_samples(self):
        # standardized moments near (1, 0, 3): the four-order series must
        # sit much closer to spms than the leading term alone
        errs_full, errs_lead = [], []
        for seed in range(300):
            x = _seeded(200, seed=seed)
            sam = Sample(x)
            value = spms_statistic(central_moments(sam))
            st = SeriesState.from_sample(sam)
            errs_full.append(abs(value - spms_series(st)))
            errs_lead.append(abs(value - 0.5 * st.V / math.sqrt(st.n)))
        assert np.median(errs_full) < 0.2 * np.median(errs_lead)
        assert np.median(errs_full) < 1e-3


class TestTestResult:
    def test_reject_levels(self):
        r = pk.TestResult(pk.TestName.SPMS, 0.1, 2.0, 0.0455)
        assert r.reject_at(0.05) and not r.reject_at(0.01)

    def test_undefined_never_rejects(self):
        r = pk.TestResult(pk.TestName.SPMS, math.nan, math.nan, math.nan, False)
        assert not r.reject_at(0.2)

    def test_invalid_level(self):
        r = pk.TestResult(pk.TestName.SPMS, 0.1, 2.0, 0.05)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidLevelError):
                r.reject_at(bad)


class TestSpmsTest:
    def test_result_shape(self):
        r = spms_test(Sample(_seeded(120, seed=1)))
        assert r.test_name is pk.TestName.SPMS
        assert r.defined
        assert r.p_value == pytest.approx(
            2.0 * stats.norm.sf(abs(r.z_value)), rel=1e-12
        )

    def test_degenerate_sample_reports_undefined(self):
        r = spms_test(_degenerate_sample())
        assert not r.defined
        assert math.isnan(r.raw_statistic)
        assert not r.reject_at(0.05)

    def test_min_n(self):
        with pytest.raises(SampleTooSmallError):
            spms_test(Sample([1.0, 2.0, 4.0]))

    def test_series_choice_changes_z_not_statistic(self):
        s = Sample(_seeded(80, seed=9, skew=0.4))
        r_cal = spms_test(s)
        r_full = spms_test(s, series="full")
        assert r_cal.raw_statistic == r_full.raw_statistic
        assert r_cal.z_value != r_full.z_value

    def test_batch_matches_scalar(self):
        x = np.vstack([_seeded(60, seed=s, skew=0.2) for s in range(12)])
        values, defined = _batch_spms(central_moment_arrays(x))
        assert defined.all()
        for i in range(12):
            r = spms_test(Sample(x[i]))
            assert values[i] == r.raw_statistic


class TestSqrtB1:
    @pytest.mark.parametrize("n", N_BATTERY)
    def test_matches_scipy_skewtest(self, n):
        x = _seeded(n, seed=n, skew=0.3)
        r = sqrt_b1_test(Sample(x))
        z_ref, p_ref = stats.skewtest(x)
        assert r.z_value == pytest.approx(float(z_ref), abs=1e-10)
        assert r.p_value == pytest.approx(float(p_ref), abs=1e-10)
        assert r.raw_statistic == pytest.approx(stats.skew(x), rel=1e-12)

    def test_antisymmetry(self):
        x = _seeded(45, seed=6, skew=0.8)
        z_pos = sqrt_b1_test(Sample(x)).z_value
        z_neg = sqrt_b1_test(Sample(-x)).z_value
        assert z_neg == pytest.approx(-z_pos, rel=1e-12)

    def test_batch_matches_scalar(self):
        x = np.vstack([_seeded(40, seed=s) for s in range(8)])
        raw, z = _batch_sqrt_b1_z(central_moment_arrays(x), x.shape[1])
        for i in range(8):
            r = sqrt_b1_test(Sample(x[i]))
            assert raw[i] == r.raw_statistic
            assert z[i] == r.z_value


class TestShapiroWilk:
    @pytest.mark.parametrize("n", N_BATTERY + (5000,))
    def test_matches_scipy_reference(self, n):
        # scipy carries the published AS R94 reference implementation
        x = _seeded(n, seed=n + 1, skew=0.2)
        r = shapiro_wilk_test(Sample(x))
        w_ref, p_ref = stats.shapiro(x)
        assert r.raw_statistic == pytest.approx(float(w_ref), abs=1e-8)
        assert r.p_value == pytest.approx(float(p_ref), abs=2e-6)

    def test_published_weights_sample(self):
        # 1965 weights data: published W = 0.79, borderline p
        x = np.array(
            [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236], float
        )
        r = shapiro_wilk_test(Sample(x))
        assert r.raw_statistic == pytest.approx(0.7888, abs=5e-5)
        assert r.p_value == pytest.approx(0.0067, abs=5e-4)

    def test_perfectly_normal_scores_high_w(self):
        x = stats.norm.ppf((np.arange(1, 101) - 0.375) / 100.25)
        r = shapiro_wilk_test(Sample(x))
        assert r.raw_statistic > 0.99
        assert r.p_value > 0.5

    def test_location_scale_invariance(self):
        x = _seeded(50, seed=12, skew=0.5)
        r0 = shapiro_wilk_test(Sample(x))
        r1 = shapiro_wilk_test(Sample(5.0 - 3.0 * x))
        assert r1.raw_statistic == pytest.approx(r0.raw_statistic, rel=1e-12)

    def test_size_bounds(self):
        with pytest.raises(SampleTooSmallError):
            shapiro_wilk_test(Sample(np.arange(7.0)))
        with pytest.raises(SampleTooLargeError):
            shapiro_wilk_test(Sample(_seeded(5001)))

    def test_batch_matches_scalar(self):
        x = np.vstack([_seeded(30, seed=s, skew=0.3) for s in range(8)])
        w, z = _batch_sw(x)
        for i in range(8):
            r = shapiro_wilk_test(Sample(x[i]))
            assert w[i] == r.raw_statistic
            assert z[i] == r.z_value


class TestLinMudholkar:
    def test_hand_oracle(self):
        # direct evaluation of the definition on the raw (uncentered) data;
        # the implementation centers first, which must not change r
        x = _seeded(35, seed=8, skew=0.6)
        n = len(x)
        y = np.empty(n)
        for i in range(n):
            rest = np.delete(x, i)
            y[i] = np.cbrt(
                (rest**2).sum() - rest.sum() ** 2 / (n - 1)
            )
        r_ref = np.corrcoef(x, y)[0, 1]
        z_ref = np.arctanh(r_ref) * math.sqrt(n / 3.0)
        r = lin_mudholkar_test(Sample(x))
        assert r.raw_statistic == pytest.approx(r_ref, abs=1e-10)
        assert r.z_value == pytest.approx(z_ref, abs=1e-9)
        assert r.p_value == pytest.approx(
            2.0 * stats.norm.sf(abs(z_ref)), abs=1e-9
        )

    def test_skewed_data_rejects(self):
        x = np.random.default_rng(3).lognormal(0.0, 1.0, 400)
        r = lin_mudholkar_test(Sample(x))
        assert r.p_value < 1e-4

    def test_degenerate_correlation(self):
        with pytest.raises(DegenerateCorrelationError):
            lin_mudholkar_test(Sample(np.array([1.0, -1.0] * 4)))

    def test_min_n(self):
        with pytest.raises(SampleTooSmallError):
            lin_mudholkar_test(Sample([1.0, 2.0, 4.0, 5.0]))

    def test_batch_matches_scalar(self):
        x = np.vstack([_seeded(25, seed=s, skew=0.4) for s in range(8)])
        r_arr, z_arr, defined = _batch_lm_z(x)
        assert defined.all()
        for i in range(8):
            r = lin_mudholkar_test(Sample(x[i]))
            assert r_arr[i] == r.raw_statistic
            assert z_arr[i] == r.z_value


class TestNonFiniteStatistic:
    """A statistic that overflows to NaN is reported undefined, never as a
    defined NaN result (the moments of values near 1e200 overflow)."""

    @staticmethod
    def _huge_sample() -> Sample:
        return Sample(1e200 * (1.0 + 1e-3 * _seeded(10, seed=3)))

    @pytest.mark.parametrize("test", [spms_test, sqrt_b1_test, shapiro_wilk_test])
    def test_reports_undefined(self, test):
        with np.errstate(over="ignore", invalid="ignore"):
            r = test(self._huge_sample())
        assert not r.defined
        assert not any(r.reject_at(level) for level in (0.01, 0.05, 0.1, 0.2))


class TestCrossTestSanity:
    def test_all_tests_agree_on_blatant_skewness(self):
        x = np.random.default_rng(10).exponential(size=500)
        s = Sample(x)
        for result in (
            spms_test(s),
            sqrt_b1_test(s),
            shapiro_wilk_test(s),
            lin_mudholkar_test(s),
        ):
            assert result.p_value < 1e-6, result.test_name

    def test_all_tests_accept_clean_normal(self):
        x = stats.norm.ppf((np.arange(1, 201) - 0.375) / 200.25)
        s = Sample(x)
        for result in (
            spms_test(s),
            sqrt_b1_test(s),
            lin_mudholkar_test(s),
            shapiro_wilk_test(s),
        ):
            assert result.p_value > 0.2, result.test_name
