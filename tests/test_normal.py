"""pmskew's port of Cephes's ndtr and ndtri against scipy.special's.

scipy.special ships the same Cephes code, so the port must give its bits,
not merely values close to them: every printed byte of pmskew that reads
Phi or its inverse was pinned when those came from scipy. The reference
is scipy's build without fused multiply-adds, as on x86-64. Three input
sets are checked, each bit for bit with the sign of a zero:
- every Blom score the Shapiro-Wilk weights read, n = 8..5000, through
  the array path with out aliasing its input, as skewtests calls it;
- seeded arguments: ndtr over [-40, 40], ndtri over (0, 1) with both
  tails down to the smallest subnormal;
- every branch edge of both, with the floats on either side of it;
- the floats the harness asks for, 1 - level and 1 - level/2 at each
  level the CLI reports, for the asymptotic critical values.

test_cpu_dispatch.py runs this file again with numpy's SIMD dispatch
targets off: the port uses no numpy loop whose last bit depends on them.
"""

import math

import numpy as np
import pytest
from scipy import special

from pmskew.cli import REPORT_LEVELS
from pmskew.normal import ndtr, ndtri

SQRTH = math.sqrt(0.5)
MAXLOG = 7.09782712893383996843e2
EXPM2 = 0.13533528323661269189


def _same_bits(got, want) -> np.ndarray:
    """Element-wise: the same float64 bits, any NaN matching any NaN."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want)
    )


def _ndtr_mismatches(a: np.ndarray) -> list[float]:
    want = special.ndtr(a)
    got = np.array([ndtr(v) for v in a.tolist()])
    return a[~_same_bits(got, want)].tolist()


def _ndtri_mismatches(p: np.ndarray) -> list[float]:
    return p[~_same_bits(ndtri(p), special.ndtri(p))].tolist()


def _around(points, steps=3) -> np.ndarray:
    """Each point and the `steps` floats on either side of it."""
    out = []
    for v in points:
        lo = hi = float(v)
        out.append(lo)
        for _ in range(steps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return np.array(out)


def test_blom_scores_bit_for_bit():
    mismatched = []
    for n in range(8, 5001):
        m = (np.arange(1, n // 2 + 1, dtype=np.float64) - 0.375) / (n + 0.25)
        want = special.ndtri(m)
        assert ndtri(m, out=m) is m
        if not _same_bits(m, want).all():
            mismatched.append(n)
    assert mismatched == []


def test_seeded_ndtr_bit_for_bit():
    rng = np.random.default_rng(20120223)
    a = np.concatenate([
        rng.uniform(-40.0, 40.0, 100_000),
        rng.uniform(-1.5, 1.5, 20_000),  # erf and erfc's [1/sqrt2, 1) part
        rng.uniform(-12.0, 12.0, 20_000),  # both erfc polynomials
    ])
    assert _ndtr_mismatches(a) == []


def test_seeded_ndtri_bit_for_bit():
    rng = np.random.default_rng(20120224)
    p = np.concatenate([
        rng.uniform(0.0, 1.0, 50_000),
        10.0 ** rng.uniform(-323.0, 0.0, 25_000),  # lower tail, x past 8
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 25_000),  # upper tail
        np.exp(-rng.uniform(0.0, 40.0, 25_000)),  # x across 2..9
    ])
    assert _ndtri_mismatches(p) == []


NDTR_EDGES = _around([
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1.0, -1.0,  # |x| = sqrt(1/2): erf, then erfc's 1 - erf
    1.0 / SQRTH, -1.0 / SQRTH,  # z = 1: erfc's first polynomial
    8.0 / SQRTH, -8.0 / SQRTH,  # z = 8: its second
    math.sqrt(MAXLOG) / SQRTH, -math.sqrt(MAXLOG) / SQRTH,  # exp underflows
])
NDTRI_EDGES = _around([
    0.0, -0.0, 1.0, math.nan, -0.5, 1.5, math.inf, -math.inf, 0.5,
    EXPM2, 1.0 - EXPM2,  # the central branch's two ends
    math.exp(-32.0), 1.0 - math.exp(-32.0),  # x = 8 in the tail
    5e-324, 2.2250738585072014e-308,  # the subnormal range
])


def test_branch_edges_bit_for_bit():
    assert _ndtr_mismatches(NDTR_EDGES) == []
    assert _ndtri_mismatches(NDTRI_EDGES) == []


def test_ndtri_forms_bit_for_bit():
    # a float gives a float, an array keeps its shape, and out may be p
    p = NDTRI_EDGES
    want = special.ndtri(p)
    got = [ndtri(v) for v in p.tolist()]
    assert all(type(v) is float for v in got)
    assert _same_bits(got, want).all()
    grid = p[:30].reshape(5, 6)
    assert _same_bits(ndtri(grid), want[:30].reshape(5, 6)).all()
    out = np.empty_like(grid)
    assert ndtri(grid, out=out) is out
    assert _same_bits(out, want[:30].reshape(5, 6)).all()


def test_ndtri_critical_value_arguments_bit_for_bit():
    # the floats montecarlo._rejects passes, each a float with scipy's bits
    p = [1.0 - a for a in REPORT_LEVELS] + [1.0 - a / 2.0 for a in REPORT_LEVELS]
    got = [ndtri(v) for v in p]
    assert all(type(v) is float for v in got)
    assert _same_bits(got, special.ndtri(p)).all()
