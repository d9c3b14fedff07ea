"""Alternative specs, seeded streams, and exact population moments."""

import re

import numpy as np
import pytest
from scipy import stats

from pmskew import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Family,
    InvalidParamsError,
    SeededStream,
    draw_values,
    population_moments,
    sample,
)


class TestAlternativeSpec:
    @pytest.mark.parametrize(
        "text,family,params",
        [
            ("normal", Family.NORMAL, ()),
            ("beta:2,1", Family.BETA, (2.0, 1.0)),
            ("beta:3,2", Family.BETA, (3.0, 2.0)),
            ("gamma:3", Family.GAMMA, (3.0,)),
            ("weibull:2", Family.WEIBULL, (2.0,)),
            ("lognormal:0,0.5", Family.LOGNORMAL, (0.0, 0.5)),
            ("gamma:1.0000001", Family.GAMMA, (1.0000001,)),  # not "gamma:1"
            ("gamma:1e-320", Family.GAMMA, (1e-320,)),  # subnormal
        ],
    )
    def test_parse_and_label_round_trip(self, text, family, params):
        spec = AlternativeSpec.parse(text)
        assert spec.family is family
        assert spec.params == params
        assert spec.label == text
        assert AlternativeSpec.parse(spec.label) == spec

    def test_parse_tolerates_case_and_space(self):
        assert AlternativeSpec.parse(" Beta:2,1 ") == AlternativeSpec.parse(
            "beta:2,1"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "cauchy:1",  # unknown family
            "beta:2",  # wrong arity
            "beta:2,1,5",
            "gamma",  # missing shape
            "gamma:0",  # nonpositive
            "gamma:-3",
            "beta:2,0",
            "weibull:nan",
            "lognormal:0,0",  # sigma must be positive
            "beta:a,b",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidParamsError):
            AlternativeSpec.parse(bad)

    @pytest.mark.parametrize(
        "args, match",
        [
            (("beta", "21"), "'21'"),  # not read as beta(2, 1)
            (("foo",), "foo"),
            (("gamma", None), "None"),
            (("gamma", ("x",)), "'x'"),
            (("gamma", ("2",)), r"\('2',\)"),  # not read as gamma(2)
            (("beta", (b"2", 1)), r"\(b'2', 1\)"),
            (("gamma", (True,)), r"\(True,\)"),  # not read as gamma(1)
        ],
        ids=[
            "params_string",
            "unknown_family",
            "params_none",
            "params_not_numbers",
            "param_numeric_string",
            "param_bytes",
            "param_bool",
        ],
    )
    def test_constructor_raises_only_invalid_params(self, args, match):
        with pytest.raises(InvalidParamsError, match=match):
            AlternativeSpec(*args)

    def test_lognormal_mu_may_be_negative(self):
        spec = AlternativeSpec.parse("lognormal:-1,0.5")
        assert spec.params == (-1.0, 0.5)

    def test_study_alternatives(self):
        labels = [a.label for a in POWER_STUDY_ALTERNATIVES]
        assert labels == [
            "beta:2,1",
            "beta:3,2",
            "weibull:2",
            "gamma:3",
            "gamma:2",
            "lognormal:0,0.5",
        ]


class TestSeededStream:
    def test_reproducible_and_stream_separated(self):
        a1 = SeededStream(7, 3).generator().standard_normal(16)
        a2 = SeededStream(7, 3).generator().standard_normal(16)
        b = SeededStream(7, 4).generator().standard_normal(16)
        c = SeededStream(8, 3).generator().standard_normal(16)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_matches_explicit_philox_key(self):
        got = SeededStream(5, 9).generator().standard_normal(8)
        key = np.array([5, 9], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
        assert np.array_equal(got, want)

    def test_distinct_streams_look_independent(self):
        x = SeededStream(0, 0).generator().standard_normal(4000)
        y = SeededStream(0, 1).generator().standard_normal(4000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05

    def test_64_bit_bounds(self):
        SeededStream(2**64 - 1, 0)
        for bad in (-1, 2**64):
            with pytest.raises(InvalidParamsError):
                SeededStream(bad, 0)
            with pytest.raises(InvalidParamsError):
                SeededStream(0, bad)

    @pytest.mark.parametrize("bad", [1.7, 2.0, "3", None])
    def test_key_words_are_integers(self, bad):
        # a float or a string is never truncated or parsed into a key word
        with pytest.raises(InvalidParamsError):
            SeededStream(bad, 0)
        with pytest.raises(InvalidParamsError):
            SeededStream(0, bad)
        numpy_words = SeededStream(np.uint64(2**64 - 1), np.int32(3))
        assert numpy_words == SeededStream(2**64 - 1, 3)


class TestDrawValues:
    @pytest.mark.parametrize("spec", POWER_STUDY_ALTERNATIVES)
    def test_support_bounds(self, spec):
        x = draw_values(spec, 5000, SeededStream(1, 0).generator())
        assert x.shape == (5000,)
        if spec.family is Family.BETA:
            assert x.min() >= 0.0 and x.max() <= 1.0
        else:
            assert x.min() >= 0.0

    def test_normal_dispatch(self):
        spec = AlternativeSpec(Family.NORMAL)
        x = draw_values(spec, 1000, SeededStream(1, 0).generator())
        want = SeededStream(1, 0).generator().standard_normal(1000)
        assert np.array_equal(x, want)

    def test_sample_wrapper(self):
        spec = AlternativeSpec.parse("gamma:3")
        s = sample(spec, 50, SeededStream(2, 11))
        assert s.n == 50
        t = sample(spec, 50, SeededStream(2, 11))
        assert np.array_equal(s.values, t.values)

    # the study's specs, and numpy's shape < 1 gamma branch and beta,
    # Weibull and lognormal samplers far from the study's parameters
    PREFIX_SPECS = (
        (AlternativeSpec(Family.NORMAL),)
        + POWER_STUDY_ALTERNATIVES
        + tuple(
            AlternativeSpec.parse(s)
            for s in ("beta:0.5,0.5", "gamma:0.3", "weibull:0.5", "lognormal:1,2")
        )
    )

    @pytest.mark.parametrize("stream_id", [7, 2**48 + 7])
    @pytest.mark.parametrize("spec", PREFIX_SPECS, ids=lambda s: s.label)
    def test_sample_is_a_prefix_of_a_longer_one(self, spec, stream_id):
        # power_curve runs each smaller n on the first n values of a row
        # drawn at the largest n
        longer = sample(spec, 1000, SeededStream(3, stream_id)).values
        for n in (8, 20, 50, 100, 999):
            got = sample(spec, n, SeededStream(3, stream_id)).values
            assert np.array_equal(got.view(np.uint64), longer[:n].view(np.uint64))

    def test_bad_n(self):
        with pytest.raises(InvalidParamsError):
            draw_values(
                AlternativeSpec(Family.NORMAL), 0, SeededStream(0, 0).generator()
            )

    @pytest.mark.parametrize("bad", [2.5, 3.0, "4"])
    def test_non_integer_n(self, bad):
        with pytest.raises(InvalidParamsError):
            draw_values(
                AlternativeSpec(Family.NORMAL), bad, SeededStream(0, 0).generator()
            )


class TestPopulationMoments:
    @pytest.mark.parametrize(
        "spec",
        [AlternativeSpec(Family.NORMAL)] + list(POWER_STUDY_ALTERNATIVES),
    )
    def test_matches_scipy(self, spec):
        dist = {
            Family.NORMAL: lambda p: stats.norm(),
            Family.BETA: lambda p: stats.beta(*p),
            Family.GAMMA: lambda p: stats.gamma(p[0]),
            Family.WEIBULL: lambda p: stats.weibull_min(p[0]),
            Family.LOGNORMAL: lambda p: stats.lognorm(p[1], scale=np.exp(p[0])),
        }[spec.family](spec.params)
        skew_ref, kurt_ref = dist.stats(moments="sk")
        sqrt_beta1, beta2 = population_moments(spec)
        assert sqrt_beta1 == pytest.approx(float(skew_ref), rel=1e-12, abs=1e-12)
        assert beta2 == pytest.approx(float(kurt_ref) + 3.0, rel=1e-12)

    def test_known_exact_values(self):
        b1, b2 = population_moments(AlternativeSpec.parse("gamma:2"))
        assert b1 == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert b2 == pytest.approx(6.0, rel=1e-15)
        b1, b2 = population_moments(AlternativeSpec.parse("beta:2,1"))
        assert b1 == pytest.approx(-4.0 / (5.0 * np.sqrt(2.0)), rel=1e-14)
        assert b2 == pytest.approx(2.4, rel=1e-14)

    # exp(900) and gamma(4001) overflow, 6 / 1e-320 is inf, and p * q
    # underflows to 0
    @pytest.mark.parametrize(
        "text", ["lognormal:0,30", "weibull:0.001", "gamma:1e-320", "beta:1e-320,1e-320"]
    )
    def test_beyond_float64_is_invalid_params(self, text):
        spec = AlternativeSpec.parse(text)
        with pytest.raises(InvalidParamsError, match=re.escape(spec.label)):
            population_moments(spec)

    @pytest.mark.parametrize("spec", POWER_STUDY_ALTERNATIVES)
    def test_simulation_agrees(self, spec):
        # 2*10^5 draws: sample skewness within a generous Monte Carlo band
        x = draw_values(spec, 200_000, SeededStream(3, 0).generator())
        sqrt_beta1, beta2 = population_moments(spec)
        assert stats.skew(x) == pytest.approx(sqrt_beta1, abs=0.08)
        assert stats.kurtosis(x, fisher=False) == pytest.approx(
            beta2, abs=0.12 * beta2
        )
