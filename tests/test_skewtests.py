"""The spms statistic, its series expansion, and the comparison tests."""

import cProfile
import itertools
import math
import pstats
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import pmskew as pk
from pmskew import (
    InvalidLevelError,
    Sample,
    SampleTooLargeError,
    SampleTooSmallError,
    SeriesState,
    central_moments,
    lin_mudholkar_test,
    population_pms,
    shapiro_wilk_test,
    spms_series,
    spms_statistic,
    spms_test,
    sqrt_b1_test,
    su_params,
)
from pmskew import moments, skewtests
from pmskew.moments import central_moment_arrays
from pmskew.montecarlo import _chunk_statistics
from pmskew.skewtests import (
    _O1,
    _O2,
    _O3,
    _O4,
    _batch_lm_z,
    _batch_spms,
    _batch_sqrt_b1_z,
    _batch_sw,
)

N_BATTERY = (8, 11, 12, 25, 50, 100, 500, 2000)
# row lengths at which each scalar test must equal its chunk row, each a
# multiple of 4 so the degenerate rows of TestUndefinedConvention repeat whole
AGREEMENT_SIZES = (8, 12, 100, 1000)


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

    def test_degenerate_denominator_is_nan(self):
        # the statistic and the test report the same undefined value
        s = _degenerate_sample()
        assert math.isnan(spms_statistic(central_moments(s)))
        r = spms_test(s)
        assert not r.defined and math.isnan(r.raw_statistic)

    def test_negative_denominator_is_legitimate(self):
        # platykurtic sample: 5*b2 - 9 < 0, statistic flips sign, no error
        s = central_moments(Sample([1.0, 2.0, 3.0, 4.0, 10.0]))
        den = 5.0 * s.b2 - 6.0 * s.sqrt_b1**2 - 9.0
        assert den < 0
        assert spms_statistic(s) < 0 < s.sqrt_b1

    def test_antisymmetry_and_scale_invariance(self):
        base = Sample(_seeded(60, seed=2, skew=0.5))
        v = spms_statistic(central_moments(base))
        flipped = spms_statistic(central_moments(Sample(-base.values)))
        moved = spms_statistic(central_moments(Sample(13.0 + 2.5 * base.values)))
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

    def test_degenerate_is_nan(self):
        # 5*beta2 - 6*beta1 - 9 = 0: the singular surface, here at
        # (beta1, beta2) = (0, 1.8) and (0.5, 2.4)
        assert math.isnan(population_pms(0.0, 1.8))
        assert math.isnan(population_pms(math.sqrt(0.5), 2.4))
        assert math.isnan(population_pms(-math.sqrt(0.5), 2.4))


class TestSpmsSeries:
    def test_symmetric_state_is_zero(self):
        assert spms_series(SeriesState(U=0.7, V=0.0, W=-0.2, n=50)) == 0.0

    def test_pure_v_state(self):
        # only V/2 and V^3/2 terms survive: 0.05 + 0.0005
        assert spms_series(SeriesState(U=0.0, V=1.0, W=0.0, n=100)) == (
            pytest.approx(0.0505, rel=1e-15)
        )

    @pytest.mark.parametrize("scale", [1e30, 1e60, 1e100, 1e150])
    def test_overflowing_power_is_nan(self, scale):
        # W**3 overflows a Python float, which raises instead of giving inf
        x = _seeded(50, seed=5, skew=0.3) * scale
        assert math.isnan(spms_series(SeriesState.from_sample(Sample(x))))

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

    def test_orders_match_computer_algebra_expansion(self):
        # expand spms in e = n^-1/2 about the normal moments, with
        # m2 = 1 + U e, m3 = V e, m4 = 3 + W e as in SeriesState; the
        # coefficient of e^k must be exactly the k-th printed order
        sp = pytest.importorskip("sympy")
        U, V, W, e = sp.symbols("U V W e")
        m2, m3, m4 = 1 + U * e, V * e, 3 + W * e
        sqrt_b1 = m3 / m2 ** sp.Rational(3, 2)
        b1 = m3**2 / m2**3
        b2 = m4 / m2**2
        spms = sqrt_b1 * (b2 + 3) / (2 * (5 * b2 - 6 * b1 - 9))
        expansion = sp.expand(sp.series(spms, e, 0, 5).removeO())
        printed = {
            1: zip(_O1, (V,)),
            2: zip(_O2, (U * V, V * W)),
            3: zip(_O3, (U**2 * V, U * V * W, V**3, V * W**2)),
            4: zip(_O4, (U**3 * V, U**2 * V * W, U * V**3, U * V * W**2,
                         V**3 * W, V * W**3)),
        }
        for k, terms in printed.items():
            derived = sp.Poly(expansion.coeff(e, k), U, V, W)
            want = {}
            for c, monomial in terms:
                exact = Fraction(c).limit_denominator(1000)
                assert float(exact) == c  # the float is the rounded fraction
                want[sp.Poly(monomial, U, V, W).monoms()[0]] = exact
            got = {
                m: Fraction(int(c.p), int(c.q))
                for m, c in zip(derived.monoms(), derived.coeffs())
            }
            assert got == want, k


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

    @pytest.mark.parametrize(
        "bad", ["0.05", None, [0.05], np.array([0.01, 0.05])],
        ids=["str", "none", "list", "array"],
    )
    def test_level_that_is_not_a_number(self, bad):
        r = pk.TestResult(pk.TestName.SPMS, 0.1, 2.0, 0.05)
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
        z_full = su_params(80, "full").z(r_cal.raw_statistic)
        assert r_cal.z_value == su_params(80).z(r_cal.raw_statistic)
        assert r_cal.z_value != z_full

    def test_batch_matches_scalar(self):
        x = np.vstack([_seeded(60, seed=s, skew=0.2) for s in range(12)])
        values, z, defined = _batch_spms(central_moment_arrays(x), su_params(60))
        assert defined.all()
        for i in range(12):
            r = spms_test(Sample(x[i]))
            assert values[i] == r.raw_statistic
            assert z[i] == r.z_value


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
        raw, z, defined = _batch_sqrt_b1_z(central_moment_arrays(x), x.shape[1])
        assert defined.all()
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
        w, z, defined = _batch_sw(x)
        assert defined.all()
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

    # equal leave-one-out proxies: r is undefined; two distinct values
    # (seven zeros and a one): |r| = 1, where z = arctanh(r) is infinite;
    # either is reported, not raised
    @pytest.mark.parametrize(
        "x", [[1.0, -1.0] * 4, [0.0] * 7 + [1.0]], ids=["equal", "two_valued"]
    )
    def test_degenerate_correlation(self, x):
        r = lin_mudholkar_test(Sample(np.array(x)))
        assert not r.defined
        assert all(
            math.isnan(v) for v in (r.raw_statistic, r.z_value, r.p_value)
        )
        assert not r.reject_at(0.05)

    @pytest.mark.parametrize("scale", [1e100, 1e120, 1e150])
    def test_overflowing_correlation_is_undefined(self, scale):
        # sxx * syy overflows to inf, which would read as r = 0
        x = _seeded(50, seed=9) * scale
        r = lin_mudholkar_test(Sample(x))
        assert not r.defined
        assert math.isnan(r.raw_statistic)
        assert not r.reject_at(0.05)

    def test_min_n(self):
        with pytest.raises(SampleTooSmallError):
            lin_mudholkar_test(Sample([1.0, 2.0, 4.0, 5.0]))

    def test_batch_matches_scalar(self):
        x = np.vstack([_seeded(25, seed=s, skew=0.4) for s in range(8)])
        r_arr, z_arr, defined = _batch_lm_z(x - x.mean(axis=1, keepdims=True))
        assert defined.all()
        for i in range(8):
            r = lin_mudholkar_test(Sample(x[i]))
            assert r_arr[i] == r.raw_statistic
            assert z_arr[i] == r.z_value

    def test_callers_centre_rows_with_a_large_offset(self):
        # _batch_lm_z takes centred rows: on raw rows offset by 1e6 its
        # leave-one-out proxy cancels and r comes out near 0, so the scalar
        # test and the chunk pipeline must each centre before calling it
        x = np.vstack([_seeded(25, seed=s, skew=0.4) for s in range(8)])
        r_arr, z_arr, _ = _batch_lm_z(x - x.mean(axis=1, keepdims=True))
        shifted = x + 1e6
        for i in range(8):
            r = lin_mudholkar_test(Sample(shifted[i]))
            assert r.raw_statistic == pytest.approx(r_arr[i], rel=1e-8)
            assert r.z_value == pytest.approx(z_arr[i], rel=1e-8)
        _, z, defined = _chunk_statistics(shifted, (pk.TestName.LIN_MUDHOLKAR,), None)[
            pk.TestName.LIN_MUDHOLKAR
        ]
        assert defined.all()
        assert z == pytest.approx(z_arr, rel=1e-8)


class TestSampleSharing:
    """A Sample is centred and its moments computed once, when it is
    validated; every scalar test reads them from the Sample."""

    TESTS = (spms_test, sqrt_b1_test, shapiro_wilk_test, lin_mudholkar_test)

    @staticmethod
    def _bits(result):
        fields = (result.raw_statistic, result.z_value, result.p_value)
        return (result.test_name, result.defined) + tuple(
            v.hex() for v in fields
        )

    @staticmethod
    def _summary_bits(summary):
        return tuple(float(v).hex() for v in vars(summary).values())

    def test_one_centring_and_one_moments_pass(self, monkeypatch):
        seen = []

        def recording(name, orig):
            def wrapped(x, *a):
                seen.append((name, x))
                return orig(x, *a)

            return wrapped

        monkeypatch.setattr(
            moments,
            "centred_moment_arrays",
            recording("moments", moments.centred_moment_arrays),
        )
        monkeypatch.setattr(
            skewtests, "_batch_lm_z", recording("lm", skewtests._batch_lm_z)
        )
        s = Sample(_seeded(150, seed=8, skew=0.5))
        for test in self.TESTS:
            test(s)
        central_moments(s)
        SeriesState.from_sample(s)
        assert [name for name, _ in seen] == ["moments", "lm"]
        # both read the centred row the Sample kept, not a new centring
        for _, x in seen:
            assert np.shares_memory(x, s._centred)

    def test_cached_arrays_are_read_only(self):
        s = Sample(_seeded(40, seed=9))
        assert not s.values.flags.writeable
        assert not s._centred.flags.writeable
        # the five moments are Python floats, which cannot be changed
        assert len(s._moments) == 5
        assert all(type(m) is float for m in s._moments)

    @pytest.mark.parametrize("n", [8, 60, 700])
    def test_results_do_not_depend_on_call_order(self, n):
        x = _seeded(n, seed=n, skew=0.4)
        alone = [self._bits(test(Sample(x))) for test in self.TESTS]
        summary = self._summary_bits(central_moments(Sample(x)))
        for order in itertools.permutations(range(len(self.TESTS))):
            s = Sample(x)
            got = {i: self._bits(self.TESTS[i](s)) for i in order}
            assert [got[i] for i in range(len(self.TESTS))] == alone
            assert self._summary_bits(central_moments(s)) == summary
        s = Sample(x)
        assert self._summary_bits(central_moments(s)) == summary
        assert [self._bits(test(s)) for test in self.TESTS] == alone


class TestNonFiniteStatistic:
    """A statistic that overflows to NaN is reported undefined, never as a
    defined NaN result (the moments of values near 1e200 overflow)."""

    @staticmethod
    def _huge_sample() -> Sample:
        return Sample(1e200 * (1.0 + 1e-3 * _seeded(10, seed=3)))

    @pytest.mark.parametrize("test", [spms_test, sqrt_b1_test, shapiro_wilk_test])
    def test_reports_undefined(self, test):
        r = test(self._huge_sample())
        assert not r.defined
        assert not any(r.reject_at(level) for level in (0.01, 0.05, 0.1, 0.2))

    @pytest.mark.parametrize("scale", [1e100, 1e150, 1e155, 1e200, 1e300])
    def test_no_numpy_warning_at_large_scales(self, scale):
        # the library silences the overflow of its own moments and kernels
        x = _seeded(60, seed=11, skew=0.4) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = Sample(x)
            for test in TestSampleSharing.TESTS:
                test(s)
            spms_statistic(central_moments(s))


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


class TestUndefinedConvention:
    """Every kernel returns (raw, z, defined) with defined = isfinite(raw),
    and the chunk pipeline and the scalar tests agree row by row."""

    N = 8

    def _mixed_chunk(self, n=N):
        c = math.sqrt(5.0) - 2.0
        rows = [
            _seeded(n, seed=1, skew=0.5),
            [1.0, -1.0, c, -c] * (n // 4),  # b2 = 1.8: spms denominator is zero
            _seeded(n, seed=2),
            [1.0, -1.0] * (n // 2),  # equal Lin-Mudholkar proxies
            _seeded(n, seed=3, skew=1.0),
        ]
        return np.array(rows, dtype=float)

    def test_every_kernel_marks_exactly_the_non_finite_rows(self):
        x = self._mixed_chunk()
        xc = x - x.mean(axis=1, keepdims=True)
        m = central_moment_arrays(x)
        outs = {
            "spms": _batch_spms(m, su_params(self.N)),
            "sqrt_b1": _batch_sqrt_b1_z(m, self.N),
            "shapiro_wilk": _batch_sw(x),
            "lin_mudholkar": _batch_lm_z(xc),
        }
        for name, (raw, z, defined) in outs.items():
            assert raw.shape == z.shape == defined.shape == (len(x),), name
            assert defined.dtype == bool, name
            assert np.array_equal(defined, np.isfinite(raw)), name
        assert outs["spms"][2].tolist() == [True, False, True, True, True]
        assert outs["lin_mudholkar"][2].tolist() == [True, True, True, False, True]

    @pytest.mark.parametrize("n", AGREEMENT_SIZES)
    def test_chunk_masks_match_scalar_results(self, n):
        # a Sample runs the kernels on its 1-D row and ends on numpy
        # scalars; each result must keep the bits of its chunk row
        x = self._mixed_chunk(n)
        tests = pk.ALL_TESTS
        stats = _chunk_statistics(x.copy(), tests, su_params(n))
        assert not stats[pk.TestName.SPMS][2][1]
        # the equal Lin-Mudholkar proxies centre to exact zeros (r = 0/0)
        # only where their row mean rounds back to their value, which
        # depends on n and on numpy's SIMD target; else r = 0, defined
        r_lm, _, defined_lm = stats[pk.TestName.LIN_MUDHOLKAR]
        assert not defined_lm[3] or r_lm[3] == 0.0
        scalar = {
            pk.TestName.SPMS: spms_test,
            pk.TestName.SQRT_B1: sqrt_b1_test,
            pk.TestName.SHAPIRO_WILK: shapiro_wilk_test,
            pk.TestName.LIN_MUDHOLKAR: lin_mudholkar_test,
        }
        for test in tests:
            raw, z, defined = stats[test]
            for i, row in enumerate(x):
                r = scalar[test](Sample(row))
                assert defined[i] == r.defined, (test, i)
                if r.defined:
                    assert (raw[i].hex(), z[i].hex()) == (
                        r.raw_statistic.hex(),
                        r.z_value.hex(),
                    ), (test, i)
                else:
                    assert math.isnan(raw[i]) and math.isnan(r.raw_statistic)


class TestScalarPathOverhead:
    """Sample() and the four scalar tests call none of numpy's Python
    wrappers around a row mean, a clip or an all (_methods._mean behind
    ndarray.mean, _methods._clip behind np.clip, _methods._all behind
    ndarray.all): on one sample the wrapper costs more than the
    arithmetic. A numpy without those wrappers passes trivially."""

    WRAPPERS = {"_mean", "_clip", "_all"}

    def test_no_numpy_mean_or_clip_wrapper(self):
        x = _seeded(50, seed=12, skew=0.5)
        skewtests._sw_coefficients.cache_clear()  # the weight build runs too
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            s = Sample(x)
            results = [test(s) for test in TestSampleSharing.TESTS]
        finally:
            profiler.disable()
        assert all(r.defined for r in results)
        called = {
            (filename, func): stats[1]
            for (filename, _, func), stats in pstats.Stats(profiler).stats.items()
            if func in self.WRAPPERS and filename.endswith("_methods.py")
        }
        assert called == {}
