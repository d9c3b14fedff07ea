"""The standard normal CDF and its inverse, ported from Cephes.

ndtr and ndtri follow S. L. Moshier's Cephes library (Methods and Programs
for Mathematical Functions, 1989): its rational approximations, its
constants and its branches, each polynomial evaluated in the Horner order
of Cephes's polevl and p1evl with one rounding per + and *. So they give
the same bits as scipy.special's ndtr and ndtri, which ship the same code
(built without fused multiply-adds, as on x86-64). The only calls that
round are libm's exp and log (through math.exp and math.log) and the
correctly rounded sqrt: no step depends on numpy's SIMD target.

ndtr takes a Python float and writes its polynomials as literals: each
p-value of a scalar test costs one call. ndtri runs one set of array
steps, on a float64 array of Shapiro-Wilk scores or on a float, an
asymptotic critical value, as an array of one: it evaluates the
polynomials with numpy's + and *, which round the same on every target,
and takes the tail's logs with math.log per element, since np.log's last
bit can depend on the target. A float costs about 60 us that way, which
does not matter: only the asymptotic critical values ask for one, once
per test and level of a Monte Carlo run, not once per chunk.
"""

from __future__ import annotations

import math
from math import exp as _exp

import numpy as np

_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# ndtri's rational approximations, highest degree first: in v^2 with
# v = y - 1/2 for |v| <= 3/8, and in 1/x with x = sqrt(-2 log y) in
# [2, 8) and in [8, 64); each Q leads with the 1 that p1evl implies
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2, 2.00260212380060660359e2,
    -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1, 2.50464946208309415979e0,
    -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1, 1.34204006088543189037e-2,
    3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
# the same, as _horner's tables: (coefficients, polynomials, 1)
_CENTRAL = np.array([(0.0,) * 4 + _P0, _Q0]).T[:, :, None]
_TAIL = np.array([_P1, _Q1, _P2, _Q2]).T[:, :, None]


def ndtr(a: float) -> float:
    """Phi(a) for a Python float a: Cephes's ndtr, through its erf for
    |a| / sqrt(2) < sqrt(1/2) and its erfc above, bit for bit."""
    # the constants are literals, which Python loads faster than names
    x = a * 0.7071067811865476  # sqrt(1/2)
    z = -x if x < 0.0 else x
    if z < 1.0:
        # erf(t) = t T(t^2) / U(t^2), on x itself (erf is odd, and the
        # products round the same for either sign) or on z
        t = x if z < 0.7071067811865476 else z
        w = t * t
        erf = (
            t
            * ((((9.60497373987051638749e0 * w + 9.00260197203842689217e1) * w
                 + 2.23200534594684319226e3) * w + 7.00332514112805075473e3) * w
               + 5.55923013010394962768e4)
            / (((((w + 3.35617141647503099647e1) * w + 5.21357949780152679795e2) * w
                 + 4.59432382970980127987e3) * w + 2.26290000613890934246e4) * w
               + 4.92673942608635921086e4)
        )
        if z < 0.7071067811865476:
            return 0.5 + 0.5 * erf
        y = 0.5 * (1.0 - erf)
    elif z * z > 709.782712893384:  # exp(-z^2) underflows (MAXLOG): erfc is 0
        y = 0.0
    elif z < 8.0:
        y = 0.5 * (
            (_exp(-z * z)
             * ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1) * z
                      + 7.46321056442269912687e0) * z + 4.86371970985681366614e1) * z
                    + 1.96520832956077098242e2) * z + 5.26445194995477358631e2) * z
                  + 9.34528527171957607540e2) * z + 1.02755188689515710272e3) * z
                + 5.57535335369399327526e2))
            / ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1) * z
                    + 3.54937778887819891062e2) * z + 9.75708501743205489753e2) * z
                  + 1.82390916687909736289e3) * z + 2.24633760818710981792e3) * z
                + 1.65666309194161350182e3) * z + 5.57535340817727675546e2)
        )
    else:  # z >= 8, or NaN, which every step carries through
        y = 0.5 * (
            (_exp(-z * z)
             * (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z
                   + 5.01905042251180477414e0) * z + 6.16021097993053585195e0) * z
                 + 7.40974269950448939160e0) * z + 2.97886665372100240670e0))
            / ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0) * z
                  + 1.20489539808096656605e1) * z + 1.70814450747565897222e1) * z
                + 9.60896809063285878198e0) * z + 3.36907645100081516050e0)
        )
    return 1.0 - y if x > 0 else y


def _horner(x, coefs):
    """Polynomials, highest degree first, at a 1-D array x by Horner's
    rule, rounding once per + and * as Cephes's polevl does (a leading 1
    gives p1evl). coefs is a table of one column per polynomial, and each
    comes out as one row; a column padded with leading zeros still rounds
    as polevl (each zero stays +0.0 at a finite x)."""
    ans = coefs[0] * x
    ans += coefs[1]
    for c in coefs[2:]:
        ans *= x
        ans += c
    return ans


def _logs(v: np.ndarray) -> np.ndarray:
    """math.log of each value of a 1-D float64 array, as a new array."""
    return np.fromiter(map(math.log, v.tolist()), np.float64, v.size)


def ndtri(p, out=None):
    """Phi^-1(p), Cephes's ndtri bit for bit, for a float or a float64
    array p: -inf at 0, inf at 1 and NaN outside [0, 1] or at NaN. A float
    gives a float, through the array steps on an array of one (about
    60 us); an array's result goes to out if given (out may be p itself),
    else to a new array."""
    y0 = np.asarray(p, dtype=np.float64)
    flat = y0.ravel()
    # y, the tail nearer each value; central past exp(-2), else the tail's
    # polynomials in 1/t, one for t < 8 and one above
    upper = flat > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - flat, flat)
    mid = y > _EXPM2
    tail = ~mid & (flat > 0.0) & (flat < 1.0)
    x = np.where(flat == 0.0, -np.inf, np.where(flat == 1.0, np.inf, np.nan))

    v = y[mid] - 0.5
    v2 = v * v
    num, den = _horner(v2, _CENTRAL)
    x[mid] = (v + v * (v2 * num / den)) * _S2PI

    t = np.sqrt(-2.0 * _logs(y[tail]))
    u = 1.0 / t
    p1, q1, p2, q2 = _horner(u, _TAIL)
    x1 = np.where(t < 8.0, u * p1 / q1, u * p2 / q2)
    x0 = t - _logs(t) / t
    x[tail] = np.where(upper[tail], x0 - x1, x1 - x0)

    if isinstance(p, float):
        return float(x[0])
    if out is None:
        return x.reshape(y0.shape)
    out[...] = x.reshape(y0.shape)
    return out
