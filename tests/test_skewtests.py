"""The spms statistic, its series expansion, and the comparison tests."""

import cProfile
import itertools
import math
import os
import pickle
import pstats
import sys
import threading
import warnings
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

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
from pmskew import montecarlo, moments, skewtests
from pmskew.moments import _squares, central_moment_arrays
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

    @pytest.mark.parametrize("n, match", [
        (0, "n must be >= 1, got 0"),
        (-4, "n must be >= 1, got -4"),
        (2.5, "n must be an integer, got 2.5"),
    ])
    def test_state_needs_a_positive_integer_n(self, n, match):
        # these gave ZeroDivisionError, a math domain error and 3.037
        with pytest.raises(pk.InvalidParamsError, match=match):
            SeriesState(1.0, 1.0, 1.0, n)

    def test_float32_state_is_evaluated_in_float64(self):
        # a float32 state returned np.float32(0.10209495)
        u, v, w = np.float32(0.3), np.float32(0.7), np.float32(-0.2)
        got = spms_series(SeriesState(u, v, w, 20))
        assert type(got) is float
        assert got == spms_series(SeriesState(float(u), float(v), float(w), 20))

    def test_numpy_integer_n_gives_a_python_float(self):
        st = SeriesState(0.3, 0.7, -0.2, np.int64(20))
        assert type(st.n) is int
        got = spms_series(st)
        assert type(got) is float
        assert got == spms_series(SeriesState(0.3, 0.7, -0.2, 20))

    @pytest.mark.parametrize(
        "bad", ["0.3", True, None, 1 + 2j, 10**400],
        ids=["str", "bool", "none", "complex", "int_past_float"],
    )
    def test_state_needs_real_moment_deviations(self, bad):
        # a string was accepted, and spms_series then raised TypeError
        with pytest.raises(pk.InvalidParamsError, match="U must be a real number"):
            SeriesState(bad, 0.7, -0.2, 20)

    def test_state_of_a_sample_too_small_for_the_tests(self):
        st = SeriesState.from_sample(Sample(np.array([0.0, 1.0, 2.0, 3.0, 7.0])))
        assert st.n == 5
        assert math.isfinite(spms_series(st))

    def test_from_sample_state(self):
        x = _seeded(200, seed=4, skew=0.3)
        s = central_moments(Sample(x))
        st = SeriesState.from_sample(Sample(x))
        rn = math.sqrt(200)
        assert st.U == pytest.approx(rn * (s.m2 - 1.0), rel=1e-13)
        assert st.V == pytest.approx(rn * s.m3, rel=1e-13)
        assert st.W == pytest.approx(rn * (s.m4 - 3.0), rel=1e-13)
        # stored as Python floats with the bits of the expressions above
        assert all(type(a) is float for a in (st.U, st.V, st.W))
        assert (st.U, st.V, st.W) == (
            float(rn * (s.m2 - 1.0)), float(rn * s.m3), float(rn * (s.m4 - 3.0))
        )

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

    def test_scalar_results_are_the_dataclass_own(self):
        # the scalar tests build a TestResult without its __init__: it must
        # be the one __init__ gives, frozen, with the same eq, hash, repr
        # and pickle, defined or not
        results = [test(Sample(_seeded(40, seed=2, skew=0.5)))
                   for test in TestSampleSharing.TESTS]
        results.append(spms_test(_degenerate_sample()))
        assert not results[-1].defined
        for r in results:
            built = pk.TestResult(*(getattr(r, f.name) for f in fields(r)))
            assert type(r) is pk.TestResult
            assert vars(r) == vars(built) and list(vars(r)) == list(vars(built))
            assert repr(r) == repr(built)
            assert pickle.dumps(r) == pickle.dumps(built)
            assert r == built and hash(r) == hash(built)
            with pytest.raises(FrozenInstanceError):
                r.p_value = 0.0


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

    # two values repeated give equal leave-one-out proxies: r is undefined
    # at every n, though at some n the proxies' row mean does not round
    # back to their value and they centre to rounding residue, not zeros;
    # two distinct values (seven zeros and a one): |r| = 1, where
    # z = arctanh(r) is infinite; either is reported, not raised
    @pytest.mark.parametrize(
        "x",
        [
            pytest.param([1.0, -1.0] * 4, id="equal"),
            pytest.param([0.0] * 7 + [1.0], id="two_valued"),
        ]
        + [
            pytest.param([a, b] * k, id=f"equal-{a!r},{b!r}-n{2 * k}")
            for a, b in (
                (1.0, -1.0),
                (0.1, 2.1),
                (1e5 + 0.3, 1e5 - 0.7),
                (-1e-50, 2e-50),
            )
            for k in (6, 50, 500, 2499)
        ],
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
        xc = x - x.mean(axis=1, keepdims=True)
        r_arr, z_arr, defined = _batch_lm_z(xc, *_squares(xc))
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
        xc = x - x.mean(axis=1, keepdims=True)
        r_arr, z_arr, _ = _batch_lm_z(xc, *_squares(xc))
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
                seen.append((name, x, a[:2]))
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
        assert [name for name, _, _ in seen] == ["moments", "lm"]
        # both read the centred row the Sample kept, not a new centring,
        # and the squares and their sum it kept, not a new squaring
        sq, sq_sum = s._squares
        for _, x, (sq_read, sum_read) in seen:
            assert np.shares_memory(x, s._centred)
            assert np.shares_memory(sq_read, sq)
            assert sum_read is sq_sum
        assert np.array_equal(sq, s._centred * s._centred)
        assert sq_sum == np.add.reduce(sq)

    def test_cached_arrays_are_read_only(self):
        s = Sample(_seeded(40, seed=9))
        assert not s.values.flags.writeable
        assert not s._centred.flags.writeable
        assert not s._squares[0].flags.writeable
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

    def test_sample_whose_mean_overflows(self):
        # finite values whose sum overflows: Sample's finite check reads the
        # mean (inf) and then the values, which are all finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = Sample([1e308] * 7 + [-1e308])
            results = [test(s) for test in TestSampleSharing.TESTS]
        assert s._mean == math.inf
        assert [r.defined for r in results] == [False] * 4

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
    """Every kernel returns (raw, z, defined) with defined = isfinite(raw)
    (isfinite(z) for Lin-Mudholkar, whose z is infinite at |r| = 1), and
    the chunk pipeline and the scalar tests agree row by row."""

    N = 8

    def _mixed_chunk(self, n=N):
        c = math.sqrt(5.0) - 2.0
        k = n // 8
        rows = [
            _seeded(n, seed=1, skew=0.5),
            [1.0, -1.0, c, -c] * (n // 4),  # b2 = 1.8: spms denominator is zero
            _seeded(n, seed=2),
            [1.0, -1.0] * (n // 2),  # equal Lin-Mudholkar proxies
            _seeded(n, seed=3, skew=1.0),
            # proportional to the Shapiro-Wilk weights, so W is 1 but for
            # rounding, above 1 before the clip at some of AGREEMENT_SIZES
            _sw_weights(n),
            10.0 * _sw_weights(n),
            # two values, so r is +-1 but for rounding: z is +-inf, and r
            # is beyond +-1 before the clip at some of AGREEMENT_SIZES
            [0.0] * k + [1.0] * (n - k),
            [1.0] * k + [0.0] * (n - k),
            # sxx * syy and the moments overflow, W is NaN
            _seeded(n, seed=4) * 1e160,
        ]
        return np.array(rows, dtype=float)

    def test_every_kernel_marks_exactly_the_non_finite_rows(self):
        x = self._mixed_chunk()
        xc = x - x.mean(axis=1, keepdims=True)
        with moments._quiet:  # the last row's squares overflow
            squares = _squares(xc)
        m = central_moment_arrays(x)
        outs = {
            "spms": _batch_spms(m, su_params(self.N)),
            "sqrt_b1": _batch_sqrt_b1_z(m, self.N),
            "shapiro_wilk": _batch_sw(x),
            "lin_mudholkar": _batch_lm_z(xc, *squares),
        }
        for name, (raw, z, defined) in outs.items():
            assert raw.shape == z.shape == defined.shape == (len(x),), name
            assert defined.dtype == bool, name
            marked = z if name == "lin_mudholkar" else raw
            assert np.array_equal(defined, np.isfinite(marked)), name
        assert outs["spms"][2].tolist() == [True, False] + [True] * 7 + [False]
        assert outs["sqrt_b1"][2].tolist() == [True] * 9 + [False]
        assert outs["shapiro_wilk"][2].tolist() == [True] * 9 + [False]
        assert outs["lin_mudholkar"][2].tolist() == (
            [True, True, True, False] + [True] * 3 + [False] * 3
        )

    @pytest.mark.parametrize("n", AGREEMENT_SIZES)
    def test_chunk_masks_match_scalar_results(self, n):
        # a Sample runs the kernels on its 1-D row and finishes on scalars,
        # with Python comparisons in place of the chunk's ufuncs; each
        # result must keep the bits of its chunk row
        x = self._mixed_chunk(n)
        tests = pk.ALL_TESTS
        stats = _chunk_statistics(x.copy(), tests, su_params(n))
        assert not stats[pk.TestName.SPMS][2][1]
        # the equal Lin-Mudholkar proxies centre to exact zeros or, where
        # their row mean does not round back to their value (which depends
        # on n and on numpy's SIMD target), to rounding residue: r = 0/0
        assert not stats[pk.TestName.LIN_MUDHOLKAR][2][3]
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
                elif test is pk.TestName.LIN_MUDHOLKAR:
                    assert math.isinf(z[i]) or math.isnan(raw[i])
                else:
                    assert math.isnan(raw[i]) and math.isnan(r.raw_statistic)

    def test_rows_drive_each_helper_both_ways(self, monkeypatch):
        # every comparison a scalar test makes after its row reductions
        # comes out both ways on the rows of _mixed_chunk, by kernel
        seen = set()

        def spy(name, helper, outcome):
            def wrapped(*args):
                caller = sys._getframe(1).f_code.co_name
                seen.add((caller, name, bool(outcome(*args))))
                return helper(*args)

            return wrapped

        outcomes = {
            "_nan_where": lambda bad, x: bad,
            "_at_most": lambda x, hi: x > hi,
            "_at_least": lambda x, lo: x < lo,
            "_isfinite": math.isfinite,
        }
        for name, outcome in outcomes.items():
            monkeypatch.setattr(
                skewtests, name, spy(name, getattr(skewtests, name), outcome)
            )
        for n in AGREEMENT_SIZES:
            for row in self._mixed_chunk(n):
                s = Sample(row)
                for test in TestSampleSharing.TESTS:
                    test(s)
        sites = [
            ("_spms", "_nan_where"),  # the denominator guard
            ("_batch_spms", "_isfinite"),
            ("_batch_sqrt_b1_z", "_isfinite"),
            ("_batch_sw", "_at_most"),  # W clipped at 1
            ("_sw_z_from_w", "_at_least"),  # 1 - W raised to _SW_TINY
            ("_batch_sw", "_isfinite"),
            ("_batch_lm_z", "_nan_where"),  # equal proxies, an overflow
            ("_batch_lm_z", "_at_least"),  # r clipped at -1
            ("_batch_lm_z", "_at_most"),  # r clipped at 1
            ("_batch_lm_z", "_isfinite"),
        ]
        assert seen == {
            (caller, name, way) for caller, name in sites for way in (False, True)
        }

    def test_sw_gamma_exceeds_every_finite_y(self):
        # _sw_z_from_w takes -log(gamma - y) unguarded: y = log(1 - W) is
        # at most 0 for W in [0, 1], and gamma is positive wherever it is set
        for n in range(8, 12):
            assert skewtests._constants(n).sw[3] > 0.0
        assert skewtests._constants(12).sw[3] is None


# row lengths of the degenerate corpus: the smallest n, Shapiro-Wilk's
# small-n branch (n <= 11) and the first n past it, and SW_MAX_N
CORPUS_SIZES = (8, 9, 11, 12, 5000)
# from scales whose squared variance underflows, which a Sample refuses,
# through 1e-80, about the smallest it takes, to scales whose moments overflow
CORPUS_SCALES = (1e-150, 1e-100, 1e-80, 1.0, 1e100, 1e150, 1e200)


def _degenerate_corpus(n):
    """(label, scale, row): a normal row, two two-valued rows and two
    constant rows with one-ulp noise, at each of CORPUS_SCALES."""
    rng = np.random.default_rng(n)
    base = rng.standard_normal(n)
    up = np.zeros(n, dtype=bool)
    up[rng.choice(n, max(1, n // 3), replace=False)] = True
    index = np.arange(n)
    for scale in CORPUS_SCALES:
        c = 1.7 * scale
        c_up = np.nextafter(c, math.inf)
        yield "normal", scale, base * scale
        yield "two-valued", scale, np.where(index < max(1, n // 8), 0.0, scale)
        yield "alternating", scale, np.resize([-scale, scale], n)
        yield "first one ulp up", scale, np.where(index == 0, c_up, c)
        yield "a third one ulp up", scale, np.where(up, c_up, c)


class TestDegenerateCorpus:
    """A Sample's tests finish on Python floats, which raise
    ZeroDivisionError or OverflowError where numpy scalars give inf or NaN.
    On degenerate rows at extreme scales a Sample either refuses the row
    with a documented error or takes it, and then each scalar test's
    kernel output (raw, z, defined) has the bits of its chunk row, with no
    warning and no other exception."""

    @pytest.mark.parametrize("n", CORPUS_SIZES)
    def test_degenerate_corpus_matches_chunk_rows(self, n, monkeypatch):
        seen = []
        one_row = skewtests._one_row

        def recording(name, kernel_out, *a):
            seen.append((name, kernel_out))
            return one_row(name, kernel_out, *a)

        def bits(raw, z, defined):
            return float(raw).hex(), float(z).hex(), bool(defined)

        monkeypatch.setattr(skewtests, "_one_row", recording)
        taken = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label, scale, row in _degenerate_corpus(n):
                try:
                    s = Sample(row)
                except pk.ZeroVarianceError:  # the only one these rows can meet
                    continue
                taken.add(scale)
                seen.clear()
                results = [test(s) for test in TestSampleSharing.TESTS]
                chunk = _chunk_statistics(row[None, :], pk.ALL_TESTS, su_params(n))
                assert [name for name, _ in seen] == [r.test_name for r in results]
                for name, got in seen:
                    want = [v[0] for v in chunk[name]]
                    assert bits(*got) == bits(*want), (label, scale, name)
        # every scale from 1e-80 up has rows a Sample takes
        assert taken == set(CORPUS_SCALES[2:])


class TestScalarPathOverhead:
    """Sample() and the four scalar tests call none of numpy's Python
    wrappers around a row mean, a clip, an all or an einsum
    (_methods._mean behind ndarray.mean, _methods._clip behind np.clip,
    _methods._all behind ndarray.all, einsumfunc.einsum and its
    dispatcher behind np.einsum): on one sample the wrapper costs more
    than the arithmetic. A numpy without those wrappers passes trivially."""

    WRAPPERS = {
        ("_methods.py", "_mean"),
        ("_methods.py", "_clip"),
        ("_methods.py", "_all"),
        ("einsumfunc.py", "einsum"),
        ("einsumfunc.py", "_einsum_dispatcher"),
    }

    def test_no_numpy_mean_or_clip_wrapper(self, store):
        # an empty record store, so the per-n constants are built too
        x = _seeded(50, seed=12, skew=0.5)
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
            if (os.path.basename(filename), func) in self.WRAPPERS
        }
        assert called == {}

    @pytest.mark.parametrize("subscripts", ["...j,j->...", "...j,...j->..."])
    @pytest.mark.parametrize("shape", [(50,), (7, 50)])
    def test_c_einsum_entry_is_np_einsum(self, subscripts, shape):
        # the kernels call np.einsum's C entry directly; a numpy that moves
        # or changes it must fail here, not change a statistic's bits
        rng = np.random.default_rng(13)
        a = rng.standard_normal(shape)
        b = rng.standard_normal(50 if subscripts == "...j,j->..." else shape)
        got = skewtests._einsum(subscripts, a, b)
        want = np.einsum(subscripts, a, b, optimize=False)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _independent_sw_weights(n):
    """The full AS R94 weight vector, built directly from the published
    constants (Royston 1995) and np.polyval, in the rounding order of the
    construction: scores m/fac, end weights -a1 and -a2, antisymmetric."""
    c1 = [-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0]
    c2 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0]
    n2 = n // 2
    m = ndtri((np.arange(1, n2 + 1, dtype=np.float64) - 0.375) / (n + 0.25))
    m0, m1 = float(m[0]), float(m[1])
    summ2 = 2.0 * float(np.sum(m * m))
    rsn = 1.0 / math.sqrt(n)
    a1 = float(np.polyval(c1, rsn)) - m0 / math.sqrt(summ2)
    a2 = float(np.polyval(c2, rsn)) - m1 / math.sqrt(summ2)
    fac = math.sqrt(
        (summ2 - 2.0 * m0**2 - 2.0 * m1**2) / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
    )
    low = m / fac
    low[:2] = -a1, -a2
    c = np.zeros(n)
    c[:n2] = low
    c[n - n2 :] = -low[::-1]
    return c


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def store(monkeypatch):
    """skewtests' store of per-n records, and its slot for the latest n
    above SW_MAX_N, empty for the test's duration."""
    monkeypatch.setattr(skewtests, "_store", {})
    monkeypatch.setattr(skewtests, "_large", (None, None))
    return skewtests._store


def _sw_weights(n):
    """n's full Shapiro-Wilk weight vector as _batch_sw builds it."""
    return skewtests._sw_coefficients(skewtests._constants(n).sw[0], n)


def _dagostino_sqrt_b1(n):
    """(var, beta2, W2, delta, alpha): sqrt(b1)'s exact null variance and
    kurtosis under normality (D'Agostino 1970) and the S_U constants
    fitted to them, delta = 1/sqrt(ln W) with ln W = log(W2)/2, written out
    in the rounding order of the record's build. var and beta2 are also
    checked against their exact rational values."""
    var = 6.0 * (n - 2) / ((n + 1.0) * (n + 3.0))
    num = 3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
    beta2 = num / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    exact_var = Fraction(6 * (n - 2), (n + 1) * (n + 3))
    exact_beta2 = Fraction(
        3 * (n * n + 27 * n - 70) * (n + 1) * (n + 3),
        (n - 2) * (n + 5) * (n + 7) * (n + 9),
    )
    assert abs(var - exact_var) <= 1e-15 * exact_var, n
    assert abs(beta2 - exact_beta2) <= 1e-15 * exact_beta2, n
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return var, beta2, w2, delta, alpha


def _scalar_results(x):
    """The bits of Sample(x) through the four tests: (raw, z, p) as hex per
    test, or the type of the error it raised."""
    s = Sample(x)
    out = []
    for test in TestSampleSharing.TESTS:
        try:
            r = test(s)
        except pk.PmskewError as e:
            out.append(type(e))
        else:
            out.append((r.raw_statistic.hex(), r.z_value.hex(), r.p_value.hex()))
    return out


class TestSizeConstantStore:
    """skewtests keeps one record of per-n constants for each n up to
    SW_MAX_N (the S_U transform, sqrt(b1)'s constants, the read-only
    lower-half Shapiro-Wilk weights and their z constants, Lin-Mudholkar's
    scale) and never evicts one; above SW_MAX_N it keeps only the latest
    n's record. A kept, a new and a rebuilt record give results with the
    same bits."""

    @staticmethod
    def _ndtri_spy(monkeypatch):
        calls = []

        def spy(*a, **kw):
            calls.append(a[0].size)
            return ndtri(*a, **kw)

        monkeypatch.setattr(skewtests, "ndtri", spy)
        return calls

    def test_revisited_size_runs_no_ndtri(self, store, monkeypatch):
        # 65 other sizes in between: a 64-entry LRU would rebuild n = 100
        for n in range(100, 166):
            _sw_weights(n)
        calls = self._ndtri_spy(monkeypatch)
        c = _sw_weights(100)
        assert calls == []
        assert _same_bits(c, _independent_sw_weights(100))

    def test_warm_revisit_builds_nothing(self, store, monkeypatch):
        # Sample() and the four tests on an n met before: no S_U fit, no
        # weight build, no sqrt(b1) constants and no `with np.errstate`
        x = _seeded(40, seed=13, skew=0.5)
        cold = _scalar_results(x)
        calls = []

        def spy(name, orig):
            def wrapped(*a, **kw):
                calls.append(name)
                return orig(*a, **kw)

            return wrapped

        for name in ("su_params", "ndtri", "_sqrt_b1_constants"):
            monkeypatch.setattr(skewtests, name, spy(name, getattr(skewtests, name)))
        monkeypatch.setattr(
            np.errstate, "__enter__", spy("errstate", np.errstate.__enter__)
        )
        assert _scalar_results(x) == cold
        assert calls == []

    def test_size_above_sw_max_n_has_no_weights(self, store):
        x = _seeded(skewtests.SW_MAX_N + 1, seed=14, skew=0.2)
        results = _scalar_results(x)
        assert results[2] is SampleTooLargeError
        assert all(type(r) is tuple for i, r in enumerate(results) if i != 2)
        large_n, rec = skewtests._large
        assert large_n == x.size and rec.sw is None
        assert not store

    @pytest.mark.parametrize("n", [8, 11, 12, 20, 4999, 5000, 5001, 20000])
    def test_kept_new_and_rebuilt_results_agree(self, store, monkeypatch, n):
        x = _seeded(n, seed=n, skew=0.3)
        new = _scalar_results(x)
        assert (n in store) == (n <= skewtests.SW_MAX_N)
        assert (skewtests._large[0] == n) == (n > skewtests.SW_MAX_N)
        kept = _scalar_results(x)
        store.clear()
        monkeypatch.setattr(skewtests, "_large", (None, None))
        rebuilt = _scalar_results(x)
        assert new == kept == rebuilt

    def test_record_transform_equals_su_params_at_every_n(self, store):
        # and sqrt(b1)'s transform equals D'Agostino's exact-moment fit,
        # field by field and in its z, on Python, numpy and array input
        values = [-1.5, -0.2, 0.0, 0.05, 0.9]
        for n in range(8, skewtests.SW_MAX_N + 1):
            rec = skewtests._constants(n)
            assert type(rec.su) is type(su_params(n))
            assert rec.su == su_params(n), n
            b1 = rec.b1
            assert type(b1) is type(su_params(n)) and b1.n == n
            fields = (b1.lambda2, b1.beta2_spms, b1.W2, b1.delta, b1.alpha)
            want = _dagostino_sqrt_b1(n)
            assert [f.hex() for f in fields] == [f.hex() for f in want], n
            var, _, _, delta, alpha = want
            zs = [
                float(delta * np.arcsinh((v / math.sqrt(var)) / alpha))
                for v in values
            ]
            for v, z in zip(values, zs):
                assert b1.z(v).hex() == b1.z(np.float64(v)).hex() == z.hex(), (n, v)
            assert b1.z(np.array(values)).tobytes() == np.array(zs).tobytes(), n

    def test_every_size_up_to_sw_max_n_is_kept_and_no_larger_one(self, store):
        # the store's ceiling: all 4,993 records, 49,999,904 bytes of weights
        sizes = range(8, skewtests.SW_MAX_N + 1)
        for n in sizes:
            skewtests._constants(n)
        for n in (5001, 20000, 5001, 6000):
            assert skewtests._constants(n).su.n == n
            assert skewtests._large[0] == n
        assert sorted(store) == list(sizes)
        assert sum(r.sw[0].nbytes for r in store.values()) == 49_999_904
        assert all(not r.sw[0].flags.writeable for r in store.values())

    def test_large_size_builds_one_record_per_sample_and_chunk(
        self, store, monkeypatch
    ):
        # above SW_MAX_N, the four tests of one Sample, and the kernels of
        # one chunk, share one build of the record
        n = skewtests.SW_MAX_N + 1
        builds = []
        build = skewtests._size_constants

        def spy(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(skewtests, "_size_constants", spy)
        _scalar_results(_seeded(n, seed=15, skew=0.4))
        assert builds == [n]
        tests = tuple(t for t in pk.ALL_TESTS if t is not pk.TestName.SHAPIRO_WILK)
        montecarlo._chunk_kernels(
            pk.AlternativeSpec.parse("gamma:2"), (n + 1,), 3, (0, 16), tests
        )
        assert builds == [n, n + 1]
        assert not store

    def test_racing_threads_keep_one_record_and_equal_bytes(self, store):
        sizes = range(2000, 2016)
        threads = 8
        barrier = threading.Barrier(threads, timeout=60)
        got = [[] for _ in range(threads)]

        def race(k):
            for n in sizes:
                barrier.wait()
                got[k].append(skewtests._constants(n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=race, args=(k,)) for k in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for i, n in enumerate(sizes):
            # every thread holds the kept record, whichever thread built it
            assert {id(g[i]) for g in got} == {id(store[n])}
            c = skewtests._sw_coefficients(store[n].sw[0], n)
            assert _same_bits(c, _independent_sw_weights(n))
        assert sorted(store) == list(sizes)

    def test_racing_threads_above_sw_max_n_get_their_own_record(self, store):
        # the threads keep replacing the one slot for sizes above
        # SW_MAX_N: a lookup must never return another size's record
        threads, rounds = 8, 40
        barrier = threading.Barrier(threads, timeout=60)
        wrong = []

        def race(k):
            barrier.wait()
            for i in range(rounds):
                # three sizes shared by all threads
                n = skewtests.SW_MAX_N + 1 + (k + i) % 3
                rec = skewtests._constants(n)
                if not rec.su.n == rec.b1.n == n:
                    wrong.append((n, rec.su.n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=race, args=(k,)) for k in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == [] and not store

    @pytest.mark.parametrize("n", [8, 9, 20, 21, 4999, 5000])
    def test_full_vectors_equal_an_independent_build(self, store, n):
        expected = _independent_sw_weights(n)
        cold = _sw_weights(n)
        assert _same_bits(cold, expected)
        cold[:] = 0.0  # a caller's vector is its own: the store is untouched
        warm = _sw_weights(n)
        assert n in store
        assert _same_bits(warm, expected)
