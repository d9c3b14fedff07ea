"""Asymptotic null moments of spms and its Johnson S_U normalizing transform.

The null distribution of the spms statistic has variance and kurtosis given
by asymptotic series in 1/n (all odd moments vanish by symmetry):

    lambda2(n)    = (3/2) n^-1 + 41 n^-2 + (6511/2) n^-3
    lambda4(n)    = (27/4) n^-2 + 414 n^-3
    beta2_spms(n) = 3 + 20 n^-1 + (48544/3) n^-2 + (10386704/9) n^-3

The normalizing transform maps Y = spms/sqrt(lambda2) through a Johnson S_U
fit matched to the kurtosis beta2_spms:

    W^2   = -1 + sqrt(2*(beta2 - 1))
    delta = 1 / sqrt(ln W)
    alpha = sqrt(2 / (W^2 - 1))
    Z     = delta * asinh(Y / alpha)

alpha is fixed by requiring unit variance of the fitted S_U variate:
X = alpha*sinh(Z/delta) with Z ~ N(0,1) has Var(X) = alpha^2*(W^2 - 1)/2.

Because the series are asymptotic, including every known term does not give
the best finite-n transform: the n^-3 terms of lambda2 and beta2_spms
overshoot badly at practical n (they triple lambda2 at n = 40 and still add
20 percent at n = 100). Large-scale simulation (10^6 null replications per
n, n = 100..1000) shows the transform built from the series truncated after
the n^-2 terms tracks the true null rejection rates to within Monte Carlo
noise at every n and level, while the full-series transform under-rejects
by up to 3x at n = 100. The transform therefore defaults to the truncated
evaluation (series="calibrated"); series="full" uses every printed term.
su_params is the one place a truncation is chosen; the standalone series
evaluators lambda2, lambda4 and beta2_spms always sum every known term.

The series moments are formal: they are the moments of the expansion, not
of spms at finite n. The spms denominator 5*b2 - 6*b1 - 9 crosses zero
with positive probability at every finite n, so spms itself has no finite
variance there. At n = 50, 10^5 null replications (seed 1) give an
empirical variance of 3.92 against the series value 0.0724.

su_params fits a new transform on every call. No test kernel calls it:
the scalar tests and the Monte Carlo chunks both read the transform kept
in n's record of per-n constants (see skewtests), which also holds
sqrt(b1)'s S_U transform, fitted to its exact null moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, SampleTooSmallError, check_int

__all__ = [
    "SuTransform",
    "NULL_MOMENT_SERIES",
    "lambda2",
    "lambda4",
    "beta2_spms",
    "su_params",
]

# the smallest sample size the series, the tests and the experiments accept
MIN_N = 8

# Powers of 1/n the calibrated transform keeps in lambda2 and in beta2_spms:
# each series through its n^-2 term; see the module docstring.
CALIBRATED_TERMS = 2


@dataclass(frozen=True)
class NullMomentSeries:
    """Exact rational coefficients of the null-moment series.

    lambda2_coeffs pair with n^-1, n^-2, n^-3; lambda4_coeffs with
    n^-2, n^-3; beta2_coeffs with n^0 .. n^-3.
    """

    lambda2_coeffs: tuple[Fraction, ...] = (
        Fraction(3, 2),
        Fraction(41),
        Fraction(6511, 2),
    )
    lambda4_coeffs: tuple[Fraction, ...] = (
        Fraction(27, 4),
        Fraction(414),
    )
    beta2_coeffs: tuple[Fraction, ...] = (
        Fraction(3),
        Fraction(20),
        Fraction(48544, 3),
        Fraction(10386704, 9),
    )


NULL_MOMENT_SERIES = NullMomentSeries()

# the coefficients as floats, converted once rather than on every call
_LAMBDA2 = tuple(map(float, NULL_MOMENT_SERIES.lambda2_coeffs))
_LAMBDA4 = tuple(map(float, NULL_MOMENT_SERIES.lambda4_coeffs))
_BETA2 = tuple(map(float, NULL_MOMENT_SERIES.beta2_coeffs))


def check_n(n) -> int:
    """The one sample-size rule of the series, the tests and the
    experiments: n as an int, InvalidParamsError if it is not an integer,
    SampleTooSmallError if it is below MIN_N."""
    n = check_int("n", n, lo=-math.inf)  # too small is the error below
    if n < MIN_N:
        raise SampleTooSmallError(f"need n >= {MIN_N}, got {n}")
    return n


def _series(coeffs, n: int, first: int) -> float:
    """sum(c / n**(first + k)) over coeffs, added left to right from 0."""
    total, power = 0.0, n**first  # an exact int, as n ** (first + k) is
    for c in coeffs:
        total, power = total + c / power, power * n
    return total


def lambda2(n: int) -> float:
    """Asymptotic null variance of spms, every known term (n >= 8)."""
    return _series(_LAMBDA2, check_n(n), 1)


def lambda4(n: int) -> float:
    """Asymptotic null fourth moment of spms, every known term (n >= 8)."""
    return _series(_LAMBDA4, check_n(n), 2)


def beta2_spms(n: int) -> float:
    """Asymptotic null kurtosis of spms, every known term (n >= 8)."""
    return _series(_BETA2, check_n(n), 0)


@dataclass(frozen=True)
class SuTransform:
    """Per-n constants of the S_U normalizing transform.

    Invariants: beta2_spms > 3 for n >= 8, hence W2 > 1 and delta and
    alpha are positive and finite. The same type normalises sqrt(b1)
    (skewtests' per-n record): there lambda2 and beta2_spms hold sqrt(b1)'s
    exact null variance and kurtosis.
    """

    n: int
    lambda2: float
    beta2_spms: float
    W2: float
    delta: float
    alpha: float

    def z(self, spms_value):
        """Map spms values, or sqrt(b1) values through sqrt(b1)'s
        transform, to approximately standard normal Z.

        Accepts scalars or arrays; Z = delta * asinh(Y/alpha) with
        Y = spms_value / sqrt(lambda2). The asinh form is used instead of
        the literal log(x + sqrt(1 + x^2)) to avoid cancellation for
        large negative Y. A Python or numpy float skips the 0-d array:
        scalar division rounds as the ufunc's does.
        """
        if not isinstance(spms_value, float):
            spms_value = np.asarray(spms_value, dtype=np.float64)
        y = spms_value / math.sqrt(self.lambda2)
        out = self.delta * np.arcsinh(y / self.alpha)
        return float(out) if out.ndim == 0 else out


def su_params(n: int, series: str = "calibrated") -> SuTransform:
    """Compute the S_U transform constants for sample size n.

    Parameters
    ----------
    n : int
        Sample size, n >= 8.
    series : {"calibrated", "full"}, optional
        Which evaluation of the null-moment series feeds the fit.
        "calibrated" (default) truncates lambda2 and beta2_spms after
        their n^-2 terms, the evaluation whose finite-n null rejection
        rates match large-scale simulation; "full" uses every known term.
    """
    n = check_n(n)
    if series == "calibrated":
        terms = CALIBRATED_TERMS
    elif series == "full":
        terms = len(_LAMBDA2)
    else:
        raise InvalidParamsError(
            f'series must be "calibrated" or "full", got {series!r}'
        )
    lam2 = _series(_LAMBDA2[:terms], n, 1)
    bet2 = _series(_BETA2[: terms + 1], n, 0)
    w2 = -1.0 + math.sqrt(2.0 * (bet2 - 1.0))
    delta = 1.0 / math.sqrt(math.log(math.sqrt(w2)))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return SuTransform(n, lam2, bet2, w2, delta, alpha)
