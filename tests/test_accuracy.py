"""Accuracy of the raw statistics against an exact oracle.

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
)
from test_skewtests import _independent_sw_weights

SPECS = (AlternativeSpec.parse("normal"),) + POWER_STUDY_ALTERNATIVES
SIZES = tuple(int(n) for n in np.geomspace(8, 5000, 6).round())

# worst error allowed, in ulps (condition-scaled for spms and r)
BOUNDS = {"sqrt_b1": 500.0, "b2": 12.0, "spms": 40.0, "r": 460.0, "w": 55.0}


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
