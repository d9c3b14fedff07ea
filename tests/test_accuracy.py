"""Accuracy of the raw statistics and their z values against an oracle.

The byte contract (test_byte_contract.py) pins bits, and bits are per
numpy build and CPU. This file states the part of the contract that holds
on every machine: each raw statistic lies within a stated bound of its
exact value for the same float64 sample. The oracle works in exact
rational arithmetic on the sample's float64 values, and rounds only its
square roots (mpmath, 50 digits) and Lin-Mudholkar's cube roots (integer
roots, 192 bits past the binary point).

The corpus is seeded: n log-spread over 8..5000, normal and the six
power-study alternatives, each sample scaled by a power of ten from 1e-3 to
1e3. sqrt(b1), b2 and Shapiro-Wilk's W are bounded in ulps of the exact
value. spms and Lin-Mudholkar's r are bounded in condition-scaled ulps
(ulps divided by the condition number of their last step): spms divides by
5*b2 - 6*b1 - 9, which cancels near its pole, so its condition number is
(|5*b2| + |6*b1| + 9) / |5*b2 - 6*b1 - 9|; r ends on the sum of products
of the centred x and cube-rooted proxies y, so its condition number is
sum(|x_i*y_i|) / |sum(x_i*y_i)|. W uses the float64 weights that
test_skewtests._independent_sw_weights builds from the published AS R94
constants, bit-equal to the library's, so the oracle checks the
arithmetic, not the approximation.

Worst errors measured on x86-64 (AVX512_SPR) with numpy 2.4.6, with
numpy's SIMD dispatch targets on / off: sqrt(b1) 244.9 / 244.9 ulps, b2
5.1 / 5.1, spms 19.5 / 19.5 (condition-scaled), r 39.7 / 228.7
(condition-scaled; np.cbrt differs by target) and W 26.7 / 26.7. Each
bound is about twice the larger of the two. The large ones are
conditioning the scaled ulps leave out. sqrt(b1)'s worst is a lognormal
sample at n = 8 with sqrt(b1) = -0.0118, whose third moment cancels (its
condition number is 119). r's worst is at n = 5000, where the cube-rooted
proxies agree to about 1/n of their size, so centring them cancels too.

Each test's z is checked on the same corpus: the library's float raw
statistic and the float constants of n's record go through the test's
formula in mpmath at 50 digits (delta * asinh((v / sqrt(lambda2)) / alpha)
for spms and sqrt(b1), atanh(r) * sqrt(n/3) for Lin-Mudholkar, AS R94's
log(max(1 - W, 1e-19)) with its gamma branch at n <= 11 for
Shapiro-Wilk), so the oracle checks the rounding of the transform alone.
The error is taken relative to max(|z|, 1), so a z near 0 does not blow
it up, in units of 2**-52. Worst measured, dispatch targets on / off:
spms 0.69 / 0.74, sqrt(b1) 1.02 / 1.02, Shapiro-Wilk 4.23 / 4.23 (a
beta(3,2) sample at n = 8, the gamma branch) and Lin-Mudholkar 0.54 /
0.69; each bound is about twice the larger.

The normal functions pmskew owns (its port of Cephes's ndtr and ndtri)
are checked in ulps of mpmath's value at 50 digits of the same float
argument: the two-sided p 2 Phi(-|z|) over z in [0, 8], Shapiro-Wilk's
one-sided p Phi(-z) over z in [-8, 8], and the Blom scores at n in {8,
50, 500, 5000}. Worst measured, the same with the dispatch targets on and
off: 85.8, 80.5 and 3.0 ulps. The p-values' worst are near z = 8: erfc's
exp(-x^2), x = z / sqrt(2), turns the rounding of x and of x^2 into a
relative error about x^2 = 32 times as large. Each bound is about twice
the worst.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pmskew import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Sample,
    SeededStream,
    central_moments,
    lin_mudholkar_test,
    sample,
    shapiro_wilk_test,
    spms_test,
    sqrt_b1_test,
)
from pmskew import skewtests
from pmskew.normal import ndtr, ndtri
from test_skewtests import _independent_sw_weights

SPECS = (AlternativeSpec.parse("normal"),) + POWER_STUDY_ALTERNATIVES
SIZES = tuple(int(n) for n in np.geomspace(8, 5000, 6).round())

# worst error allowed, in ulps (condition-scaled for spms and r)
BOUNDS = {"sqrt_b1": 500.0, "b2": 12.0, "spms": 40.0, "r": 460.0, "w": 55.0}
# worst z error allowed, relative to max(|z|, 1), in units of 2**-52
Z_BOUNDS = {"spms": 1.5, "sqrt_b1": 2.0, "shapiro_wilk": 8.5, "lin_mudholkar": 1.4}
# worst error allowed of Phi and Phi^-1 as pmskew evaluates them, in ulps
NORMAL_BOUNDS = {"two_sided_p": 170.0, "sw_p": 160.0, "blom": 6.0}
Z_TESTS = {
    "spms": spms_test,
    "sqrt_b1": sqrt_b1_test,
    "shapiro_wilk": shapiro_wilk_test,
    "lin_mudholkar": lin_mudholkar_test,
}


def _corpus():
    """(label, n, scale, Sample): every spec at every size, each scaled by
    one of 10^-3..10^3 in turn."""
    for i, spec in enumerate(SPECS):
        for j, n in enumerate(SIZES):
            scale = 10.0 ** ((i + j) % 7 - 3)
            x = sample(spec, n, SeededStream(24, 100 * i + j)).values * scale
            yield spec.label, n, scale, Sample(x)


def _dyadic(values: np.ndarray):
    """(ints, e): values[i] == ints[i] * 2**e exactly, for float64 values."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    k = max(den.bit_length() for _, den in ratios) - 1
    return [num << (k - den.bit_length() + 1) for num, den in ratios], -k


def _icbrt(v: int) -> int:
    """floor(v ** (1/3)) for an int v >= 0, by Newton's method from above."""
    y = 1 << -(-v.bit_length() // 3)
    while True:
        z = (2 * y + v // (y * y)) // 3
        if z >= y:
            return y
        y = z


def _exact(x: np.ndarray):
    """{statistic: (exact value, condition number)} of the float64 sample
    x, each as an mpmath number at 50 digits.

    x is taken as exact integers X times a power of two, so the centred
    values D = n*X - sum(X) (n times x minus its mean, in those units) sum
    to zero exactly, and every moment ratio is an exact rational in the
    power sums of D. Only the square roots, and Lin-Mudholkar's cube roots
    (taken as integer roots 192 bits past the binary point), are rounded.
    """
    n = x.size
    xi, _ = _dyadic(x)
    total = sum(xi)
    d = [n * v - total for v in xi]
    d2 = [v * v for v in d]
    q2 = sum(d2)
    q3 = sum(a * b for a, b in zip(d2, d))
    q4 = sum(v * v for v in d2)
    b1 = Fraction(n * q3 * q3, q2**3)
    b2 = Fraction(n * q4, q2 * q2)
    den = 5 * b2 - 6 * b1 - 9

    # Lin-Mudholkar: the leave-one-out proxy of x_i is
    # (n - 1) * q2 - n * d_i^2, times a positive constant that r ignores
    y = [_icbrt(((n - 1) * q2 - n * v) << 576) for v in d2]
    sy = sum(y)
    sdy = sum(a * b for a, b in zip(d, y))  # sum(d) is 0: y needs no centring
    syy = n * sum(v * v for v in y) - sy * sy

    # W = (sum c_i x_(i))^2 / sum (x_i - mean)^2 with the float weights c;
    # the power of two of x cancels, c's does not
    c, e = _dyadic(_independent_sw_weights(n))
    cx = sum(a * b for a, b in zip(c, sorted(xi)))
    w = Fraction(cx * cx * n * n, q2) * Fraction(2) ** (2 * e)

    with mpmath.workdps(50):
        def mp(v):
            return mpmath.mpf(v.numerator) / v.denominator

        sqrt_b1 = mpmath.mpf(q3) * mpmath.sqrt(n) / mpmath.mpf(q2) ** 1.5
        spms = sqrt_b1 * mp(b2 + 3) / (2 * mp(den))
        r = sdy * mpmath.sqrt(n) / mpmath.sqrt(mpmath.mpf(q2) * syy)
        r_cond = mpmath.mpf(
            sum(abs(a * (n * b - sy)) for a, b in zip(d, y))
        ) / abs(n * sdy)
        return {
            "sqrt_b1": (sqrt_b1, 1),
            "b2": (mp(b2), 1),
            "spms": (spms, mp((abs(5 * b2) + abs(6 * b1) + 9) / abs(den))),
            "r": (r, r_cond),
            "w": (mp(w), 1),
        }


def _library(s: Sample):
    """{statistic: the library's float64 value} for one sample."""
    summary = central_moments(s)
    return {
        "sqrt_b1": summary.sqrt_b1,
        "b2": summary.b2,
        "spms": spms_test(s).raw_statistic,
        "r": lin_mudholkar_test(s).raw_statistic,
        "w": shapiro_wilk_test(s).raw_statistic,
    }


@functools.cache
def _worst_errors():
    """{statistic: (worst error, label, n, scale)} over the corpus, the
    error in ulps of the exact value divided by its condition number."""
    worst = {}
    for label, n, scale, s in _corpus():
        got = _library(s)
        for name, (exact, cond) in _exact(s.values).items():
            with mpmath.workdps(50):
                err = abs(mpmath.mpf(got[name]) - exact) / cond
            err = float(err) / math.ulp(float(exact))
            if err >= worst.get(name, (-1.0,))[0]:
                worst[name] = (err, label, n, scale)
    return worst


@pytest.mark.parametrize("statistic", sorted(BOUNDS))
def test_mpmath_worst_error_within_bound(statistic):
    err, label, n, scale = _worst_errors()[statistic]
    assert err <= BOUNDS[statistic], (
        f"{statistic}: {err:.1f} ulps at {label} n={n} scale={scale:g}"
    )


def _direct(x: np.ndarray):
    """The five statistics of x straight from their definitions, in mpmath
    at 50 digits: a second oracle, for small n only."""
    n = x.size
    with mpmath.workdps(50):
        xs = [mpmath.mpf(v) for v in x.tolist()]
        mean = mpmath.fsum(xs) / n
        d = [v - mean for v in xs]
        m2, m3, m4 = (mpmath.fsum(v**k for v in d) / n for k in (2, 3, 4))
        sqrt_b1 = m3 / m2**1.5
        b2 = m4 / m2**2
        proxies = [
            mpmath.cbrt(
                mpmath.fsum(v**2 for v in xs[:i] + xs[i + 1:])
                - mpmath.fsum(xs[:i] + xs[i + 1:]) ** 2 / (n - 1)
            )
            for i in range(n)
        ]
        ym = mpmath.fsum(proxies) / n
        yc = [v - ym for v in proxies]
        c = [mpmath.mpf(v) for v in _independent_sw_weights(n).tolist()]
        return {
            "sqrt_b1": sqrt_b1,
            "b2": b2,
            "spms": sqrt_b1 * (b2 + 3) / (2 * (5 * b2 - 6 * sqrt_b1**2 - 9)),
            "r": mpmath.fdot(d, yc) / mpmath.sqrt(mpmath.fdot(d, d) * mpmath.fdot(yc, yc)),
            "w": mpmath.fdot(c, sorted(xs)) ** 2 / mpmath.fdot(d, d),
        }


@pytest.mark.parametrize("n", [8, 29])
def test_exact_agrees_with_direct_evaluation(n):
    for label, size, scale, s in _corpus():
        if size == n:
            exact = _exact(s.values)
            for name, want in _direct(s.values).items():
                with mpmath.workdps(50):
                    err = abs(exact[name][0] - want) / abs(want)
                assert err <= 1e-40, (name, label, scale)


def _z_oracle(test: str, raw: float, rec):
    """The z of the float raw statistic through n's record of float
    constants rec, in mpmath at 50 digits: the formula each test's
    kernel rounds step by step."""
    with mpmath.workdps(50):
        v = mpmath.mpf(raw)
        if test in ("spms", "sqrt_b1"):
            su = rec.su if test == "spms" else rec.b1
            return su.delta * mpmath.asinh((v / mpmath.sqrt(su.lambda2)) / su.alpha)
        if test == "lin_mudholkar":
            return mpmath.atanh(v) * rec.lm_scale
        # AS R94: y = log(1 - W) with 1 - W floored at 1e-19, then
        # -log(gamma - y) at n <= 11
        _, mu, sigma, gamma = rec.sw
        y = mpmath.log(max(1 - v, mpmath.mpf(skewtests._SW_TINY)))
        if gamma is not None:
            y = -mpmath.log(gamma - y)
        return (y - mu) / sigma


@functools.cache
def _worst_z_errors():
    """{test: (worst error, label, n, scale)} over the corpus, the error
    of the library's z relative to max(|z|, 1), in units of 2**-52."""
    worst = {}
    for label, n, scale, s in _corpus():
        rec = skewtests._constants(n)
        for name, test in Z_TESTS.items():
            result = test(s)
            assert result.defined, (name, label, n, scale)
            exact = _z_oracle(name, result.raw_statistic, rec)
            with mpmath.workdps(50):
                err = abs(mpmath.mpf(result.z_value) - exact) / max(abs(exact), 1)
            err = float(err) / 2.0**-52
            if err >= worst.get(name, (-1.0,))[0]:
                worst[name] = (err, label, n, scale)
    return worst


@pytest.mark.parametrize("test", sorted(Z_BOUNDS))
def test_mpmath_worst_error_of_z_within_bound(test):
    err, label, n, scale = _worst_z_errors()[test]
    assert err <= Z_BOUNDS[test], f"{test}: {err:.2f} at {label} n={n} scale={scale:g}"


@functools.cache
def _worst_normal_errors():
    """{function: (worst error, exact value)} of the normal functions
    pmskew owns, the error in ulps of the exact value: the two-sided p
    2 Phi(-|z|) of spms, sqrt(b1) and Lin-Mudholkar over z in [0, 8],
    Shapiro-Wilk's one-sided p Phi(-z) over z in [-8, 8], and the Blom
    scores Phi^-1((i - 3/8) / (n + 1/4)) its weights start from, at n in
    {8, 50, 500, 5000}. Each exact value is mpmath's, at 50 digits, of
    the same float argument."""
    rng = np.random.default_rng(36)
    two_sided = np.concatenate([np.linspace(0, 8, 4001), rng.uniform(0, 8, 2000)])
    one_sided = np.concatenate([np.linspace(-8, 8, 4001), rng.uniform(-8, 8, 2000)])
    worst = {}

    def record(name, got, exact):
        err = float(abs(got - exact)) / math.ulp(float(exact))
        if err >= worst.get(name, (-1.0,))[0]:
            worst[name] = (err, float(exact))

    with mpmath.workdps(50):
        for z in two_sided.tolist():
            exact = mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2))
            record("two_sided_p", 2.0 * ndtr(-abs(z)), exact)
        for z in one_sided.tolist():
            record("sw_p", ndtr(-z), mpmath.ncdf(-mpmath.mpf(z)))
        for n in (8, 50, 500, 5000):
            m = (np.arange(1, n // 2 + 1, dtype=np.float64) - 0.375) / (n + 0.25)
            for p, score in zip(m.tolist(), ndtri(m).tolist()):
                exact = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
                record("blom", score, exact)
    return worst


@pytest.mark.parametrize("function", sorted(NORMAL_BOUNDS))
def test_mpmath_worst_error_of_normal_within_bound(function):
    err, exact = _worst_normal_errors()[function]
    assert err <= NORMAL_BOUNDS[function], f"{function}: {err:.2f} ulps at {exact!r}"
