"""Null-moment series and the S_U normalizing transform."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pmskew import (
    InvalidParamsError,
    SampleTooSmallError,
    beta2_spms,
    lambda2,
    lambda4,
    su_params,
)
from pmskew.su_transform import NULL_MOMENT_SERIES


def _partial_sum(coeffs, n, first, terms):
    """sum(c / n**(first + k)) over the first terms coeffs, in exact
    rationals, rounded once."""
    return float(
        sum(c / Fraction(n) ** (first + k) for k, c in enumerate(coeffs[:terms]))
    )


class TestSeriesValues:
    """Hand-evaluated series pins (exact rational arithmetic oracle)."""

    def test_lambda2_pins(self):
        assert lambda2(100) == pytest.approx(0.0223555, abs=1e-10)
        assert lambda2(1000) == pytest.approx(0.0015442555, abs=1e-12)

    def test_lambda4_pins(self):
        assert lambda4(200) == pytest.approx(2.205e-4, rel=1e-12)
        assert lambda4(100) == pytest.approx(0.001089, rel=1e-12)

    def test_beta2_pin(self):
        assert beta2_spms(200) == pytest.approx(3.648793111111111, rel=1e-13)

    def test_term_truncation(self):
        # the two-term sums are su_params(n)'s, the leading terms the
        # first coefficients of NULL_MOMENT_SERIES
        n = 100
        su = su_params(n)
        assert su.lambda2 == pytest.approx(1.5 / n + 41.0 / n**2, rel=1e-15)
        assert su.beta2_spms == pytest.approx(
            3.0 + 20.0 / n + 48544.0 / 3.0 / n**2, rel=1e-15
        )
        assert _partial_sum(NULL_MOMENT_SERIES.lambda2_coeffs, n, 1, 1) == (
            pytest.approx(1.5 / n, rel=1e-15)
        )
        assert _partial_sum(NULL_MOMENT_SERIES.beta2_coeffs, n, 0, 2) == (
            pytest.approx(3.0 + 20.0 / n)
        )
        assert _partial_sum(NULL_MOMENT_SERIES.lambda4_coeffs, n, 2, 1) == (
            pytest.approx(6.75 / n**2, rel=1e-15)
        )

    def test_exact_coefficients(self):
        lam2 = NULL_MOMENT_SERIES.lambda2_coeffs
        assert [float(c) for c in lam2] == [1.5, 41.0, 3255.5]
        assert [float(c) for c in NULL_MOMENT_SERIES.lambda4_coeffs] == [
            6.75,
            414.0,
        ]
        b2 = NULL_MOMENT_SERIES.beta2_coeffs
        assert float(b2[0]) == 3.0 and float(b2[1]) == 20.0
        assert float(b2[2]) == pytest.approx(48544.0 / 3.0)
        assert float(b2[3]) == pytest.approx(10386704.0 / 9.0)

    def test_leading_behavior(self):
        # n*lambda2 -> 3/2 and beta2 -> 3 from above as n grows
        for n in (10**4, 10**6):
            assert n * lambda2(n) == pytest.approx(1.5, rel=1e-2 * 1e4 / n + 1e-3)
        assert beta2_spms(10**6) == pytest.approx(3.0, abs=1e-4)
        prev = beta2_spms(50)
        for n in (100, 200, 400, 800, 1600):
            cur = beta2_spms(n)
            assert cur < prev
            assert cur > 3.0
            prev = cur

    def test_lambda4_consistent_with_beta2_to_leading_order(self):
        # beta2 = lambda4/lambda2^2 holds for the leading terms; the
        # printed series differ at relative O(1/n)
        n = 5000
        assert lambda4(n) / lambda2(n) ** 2 == pytest.approx(
            beta2_spms(n), rel=30.0 / n
        )

    def test_domain_errors(self):
        for series in (lambda2, lambda4, beta2_spms):
            with pytest.raises(SampleTooSmallError):
                series(7)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lambda2(100.5),
            lambda: lambda4(100.5),
            lambda: beta2_spms(100.5),
            lambda: su_params(100.5),
            lambda: su_params("100"),
        ],
        ids=["lambda2_n", "lambda4_n", "beta2_n", "su_params_n", "su_params_str"],
    )
    def test_non_integer_arguments(self, call):
        # never truncated to an integer, never a raw TypeError
        with pytest.raises(InvalidParamsError):
            call()


class TestSuParams:
    def test_full_series_chain_at_200(self):
        # high-precision oracle chain evaluated with exact rationals
        su = su_params(200, series="full")
        assert su.lambda2 == pytest.approx(lambda2(200), rel=1e-15)
        assert su.W2 == pytest.approx(1.3016485879087236, rel=1e-12)
        assert su.delta == pytest.approx(2.7543318269395103, rel=1e-12)
        assert su.alpha == pytest.approx(2.574923610744131, rel=1e-12)

    def test_calibrated_chain_at_200(self):
        su = su_params(200)
        assert su.lambda2 == pytest.approx(
            _partial_sum(NULL_MOMENT_SERIES.lambda2_coeffs, 200, 1, 2), rel=1e-15
        )
        assert su.beta2_spms == pytest.approx(
            _partial_sum(NULL_MOMENT_SERIES.beta2_coeffs, 200, 0, 3), rel=1e-15
        )
        assert su.W2 == pytest.approx(1.2380944275581105, rel=1e-12)
        assert su.delta == pytest.approx(3.06014052829836, rel=1e-12)
        assert su.alpha == pytest.approx(2.898280282486014, rel=1e-12)

    def test_internal_consistency(self):
        # the defining identities of the fit, for both series choices
        for series in ("calibrated", "full"):
            for n in (50, 200, 1000):
                su = su_params(n, series=series)
                assert su.W2 == pytest.approx(
                    -1.0 + math.sqrt(2.0 * (su.beta2_spms - 1.0)), rel=1e-14
                )
                assert su.delta == pytest.approx(
                    1.0 / math.sqrt(0.5 * math.log(su.W2)), rel=1e-14
                )
                assert su.alpha == pytest.approx(
                    math.sqrt(2.0 / (su.W2 - 1.0)), rel=1e-14
                )

    def test_su_variate_variance_is_one(self):
        # X = alpha*sinh(Z/delta) with Z ~ N(0,1) has
        # Var(X) = alpha^2*(e^{2/delta^2} - 1)/2 and e^{2/delta^2} = W2,
        # so alpha is exactly the unit-variance normalization
        su = su_params(200)
        assert math.exp(2.0 / su.delta**2) == pytest.approx(su.W2, rel=1e-12)
        assert su.alpha**2 * (su.W2 - 1.0) / 2.0 == pytest.approx(
            1.0, rel=1e-12
        )
        rng = np.random.default_rng(5)
        x = su.alpha * np.sinh(rng.standard_normal(400_000) / su.delta)
        assert x.var() == pytest.approx(1.0, abs=0.02)

    def test_invalid_series_name(self):
        # raised on every call, also after valid calls at the same n
        for _ in range(3):
            with pytest.raises(InvalidParamsError):
                su_params(200, series="extended")
            su_params(200)

    def test_numpy_integer_n(self):
        for n in (8, 11, 200, 5000):
            for series in ("calibrated", "full"):
                su = su_params(np.int64(n), series=series)
                assert su == su_params(n, series=series)
                assert type(su.n) is int

    def test_min_n(self):
        with pytest.raises(SampleTooSmallError):
            su_params(7)
        su_params(8)

    @pytest.mark.parametrize(
        "n", [100.0, np.float64(100), [100], "100", True],
        ids=["float", "np_float64", "list", "str", "bool"],
    )
    def test_argument_rule_after_a_valid_call(self, n):
        # the rule is checked ahead of any shortcut: a memo keyed on n
        # would answer 100.0 from the int 100 entry, and [100] with a
        # TypeError
        su_params(100)
        with pytest.raises(InvalidParamsError):
            su_params(n)


class TestZTransform:
    def test_zero_maps_to_zero(self):
        assert su_params(100).z(0.0) == 0.0

    def test_odd_and_monotone(self):
        su = su_params(150)
        vals = np.linspace(-0.8, 0.8, 41)
        z = su.z(vals)
        assert np.allclose(su.z(-vals), -z, rtol=1e-13)
        assert np.all(np.diff(z) > 0)

    def test_scalar_and_array_agree(self):
        su = su_params(90)
        vals = np.array([-0.3, 0.01, 0.4])
        z = su.z(vals)
        for i, v in enumerate(vals):
            zi = su.z(float(v))
            assert isinstance(zi, float)
            assert zi == z[i]

    def test_asinh_form_matches_log_form(self):
        su = su_params(300)
        y = np.array([-40.0, -1.0, 0.5, 25.0]) * math.sqrt(su.lambda2)
        x = y / math.sqrt(su.lambda2) / su.alpha
        expected = su.delta * np.log(x + np.sqrt(1.0 + x * x))
        assert np.allclose(su.z(y), expected, rtol=1e-12)

    def test_large_sample_tail_behavior(self):
        # for |Y| >> alpha the transform grows like delta*ln|Y|
        su = su_params(500)
        big = 1e6 * math.sqrt(su.lambda2)
        z = su.z(big)
        approx = su.delta * (math.log(2.0 * 1e6 / su.alpha))
        assert z == pytest.approx(approx, rel=1e-6)
