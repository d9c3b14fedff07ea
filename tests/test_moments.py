"""Sample container and divisor-n central moments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pmskew
from pmskew import (
    InvalidParamsError,
    NonFiniteError,
    PmskewError,
    Sample,
    SampleTooSmallError,
    ZeroVarianceError,
    central_moments,
)
from pmskew.moments import _row_mean, central_moment_arrays


class TestSample:
    def test_stores_float64_readonly_copy(self):
        src = np.array([1, 2, 3])
        s = Sample(src)
        assert s.values.dtype == np.float64
        assert not s.values.flags.writeable
        src[0] = 99
        assert s.values[0] == 1.0
        with pytest.raises(ValueError):
            s.values[0] = 0.0

    def test_accepts_lists_and_rejects_2d_input(self):
        assert Sample([1.0, 2.0, 3.0]).n == 3
        with pytest.raises(InvalidParamsError, match="one-dimensional"):
            Sample(np.arange(6.0).reshape(2, 3))

    def test_too_small(self):
        with pytest.raises(SampleTooSmallError):
            Sample([1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            Sample([1.0, bad, 3.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            Sample([2.0, 2.0, 2.0, 2.0])

    def test_variance_underflow(self):
        # min < max but the moment ratios would be 0/0 in float64
        with pytest.raises(ZeroVarianceError):
            Sample([7e-208, 0.0, 0.0])

    def test_equality_and_hash_are_identity(self):
        # a field-wise == would compare arrays and raise; an unhashable
        # Sample could not go in a set
        x = [1.0, 2.0, 4.0]
        s = Sample(x)
        assert s == s
        assert s != Sample(x)
        assert len({s, s}) == 1


# items a caller might put in a sample, valid or not
_ITEMS = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),  # beyond float64
    st.booleans(),
    st.complex_numbers(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
)
# whole arguments: lists and tuples of items, generators, dicts, nested
# and ragged lists, bare items and numpy arrays of several dtypes
_SAMPLE_ARGUMENTS = st.one_of(
    st.lists(_ITEMS, max_size=6),
    st.lists(_ITEMS, max_size=6).map(tuple),
    st.lists(_ITEMS, max_size=6).map(lambda xs: (x for x in xs)),
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=6),
    st.lists(st.lists(st.floats(-9, 9), max_size=3), max_size=3),
    st.dictionaries(st.integers(), st.floats(), max_size=4),
    _ITEMS,
    arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.bool_,
                         np.complex128, np.dtype("U3")]),
        st.integers(0, 6),
    ),
)


class TestSampleArguments:
    """Whatever it is given, Sample returns a sample of float64 values or
    raises a PmskewError, never another exception."""

    @pytest.mark.parametrize(
        "values",
        [
            (x for x in [1.0, 2.0, 3.0]),
            {1: 2, 3: 4, 5: 6},
            [1 + 2j, 3, 4],
            np.array([1.0, 2.0, 3.0], dtype=np.complex128),
            ["a", "b", "c"],
            "abc",
            [1.0, [2.0, 3.0], 4.0],
            [10**400, 1, 2],
            # each of these six would convert to float64 without the check
            ["1", "2", "3"],
            np.array([b"1", b"2", b"3"]),
            np.arange(10).astype("datetime64[s]"),
            np.arange(10).astype("timedelta64[s]"),
            np.array([1.0, 2.5, "3", 4.0], dtype=object),
            np.array([1.0, 2.5, b"3", 4.0], dtype=object),
            # and these four to 0.0, 1.0 or NaN
            [True, False, True, False],
            np.array([True, False, True, False]),
            [None, 1.0, 2.0],
            np.array([1.0, True, 2.0, 4.0], dtype=object),
        ],
        ids=["generator", "dict", "complex", "complex_array", "strings",
             "string", "ragged", "huge_int", "numeric_strings", "bytes",
             "datetime64", "timedelta64", "object_string", "object_bytes",
             "bools", "bool_array", "none", "object_bool"],
    )
    def test_non_real_values_raise_typed_error(self, values):
        with pytest.raises(InvalidParamsError, match="real float64 values"):
            Sample(values)

    def test_masked_entry_raises_typed_error(self):
        x = np.ma.masked_array(np.arange(10.0), mask=[0] * 9 + [1])
        with pytest.raises(InvalidParamsError, match=r"1 in a masked array.*compressed"):
            Sample(x)
        assert Sample(x.compressed()).n == 9

    def test_masked_array_without_masked_entries_is_its_data(self):
        x = np.ma.masked_array(np.arange(10.0), mask=[0] * 10)
        s = Sample(x)
        assert type(s.values) is np.ndarray
        assert s.values.tolist() == list(range(10))

    def test_scalar_path_leaves_numpy_ma_unloaded(self, tmp_path):
        # a masked array exists only once numpy.ma is imported, so neither
        # Sample() nor `pmskew test` pays for importing it
        data = tmp_path / "x.txt"
        data.write_text("\n".join(str(v) for v in range(1, 21)) + "\n")
        src = str(Path(pmskew.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, numpy\n"
            "loaded = ['numpy.ma' in sys.modules]\n"
            "import pmskew, pmskew.cli\n"
            "pmskew.Sample([1.0, 2.0, 4.0])\n"
            f"status = pmskew.cli.main(['test', {str(data)!r}])\n"
            "loaded.append('numpy.ma' in sys.modules)\n"
            "print(status, *loaded)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        status, by_numpy, by_pmskew = child.stdout.split()[-3:]
        if by_numpy == "True":
            pytest.skip("this numpy imports numpy.ma with numpy")
        assert (status, by_pmskew) == ("0", "False")

    @settings(max_examples=300, deadline=None)
    @given(_SAMPLE_ARGUMENTS)
    def test_sample_or_typed_error(self, values):
        try:
            s = Sample(values)
        except PmskewError:
            return
        assert s.values.dtype == np.float64 and s.values.ndim == 1
        assert s.n >= 3 and np.isfinite(s.values).all()


class TestCentralMoments:
    def test_symmetric_three_points(self):
        s = central_moments(Sample([-1.0, 0.0, 1.0]))
        assert s.mean == 0.0
        assert s.m2 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s.m3 == pytest.approx(0.0, abs=1e-15)
        assert s.m4 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s.sqrt_b1 == pytest.approx(0.0, abs=1e-15)
        assert s.b2 == pytest.approx(1.5, abs=1e-14)

    def test_zero_zero_one(self):
        s = central_moments(Sample([0.0, 0.0, 1.0]))
        assert s.mean == pytest.approx(1.0 / 3.0)
        assert s.m2 == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert s.m3 == pytest.approx(2.0 / 27.0, abs=1e-15)
        assert s.m4 == pytest.approx(2.0 / 27.0, abs=1e-15)
        assert s.sqrt_b1 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        assert s.b2 == pytest.approx(1.5, rel=1e-14)

    def test_skewed_five_points(self):
        # mean 4, deviations (-3, -2, -1, 0, 6)
        s = central_moments(Sample([1.0, 2.0, 3.0, 4.0, 10.0]))
        assert s.mean == pytest.approx(4.0)
        assert s.m2 == pytest.approx(10.0, rel=1e-14)
        assert s.m3 == pytest.approx(36.0, rel=1e-14)
        assert s.m4 == pytest.approx(278.8, rel=1e-14)
        assert s.sqrt_b1 == pytest.approx(36.0 / 10.0**1.5, rel=1e-14)
        assert s.b2 == pytest.approx(2.788, rel=1e-14)

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.gamma(2.0, size=257)
        from scipy import stats

        s = central_moments(Sample(x))
        assert s.sqrt_b1 == pytest.approx(stats.skew(x, bias=True), rel=1e-12)
        assert s.b2 == pytest.approx(
            stats.kurtosis(x, bias=True, fisher=False), rel=1e-12
        )
        assert s.m2 == pytest.approx(np.var(x), rel=1e-13)

    def test_batch_rows_match_scalar(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 40))
        m2, m3, m4, sqrt_b1, b2 = central_moment_arrays(x)
        for i in range(16):
            s = central_moments(Sample(x[i]))
            assert m2[i] == s.m2
            assert m3[i] == s.m3
            assert m4[i] == s.m4
            assert sqrt_b1[i] == s.sqrt_b1
            assert b2[i] == s.b2

    def test_zero_variance_row_yields_nan(self):
        x = np.vstack([np.ones(10), np.arange(10.0)])
        _, _, _, sqrt_b1, b2 = central_moment_arrays(x)
        assert np.isnan(sqrt_b1[0]) and np.isnan(b2[0])
        assert np.isfinite(sqrt_b1[1]) and np.isfinite(b2[1])


class TestRowMean:
    """Every row mean is np.add.reduce / n, which must keep the bits of
    ndarray.mean: numpy's mean is that sum and divide. A numpy whose mean
    stops being sum-then-divide fails here by name."""

    @pytest.mark.parametrize(
        "shape", [(8,), (5000,), (1, 8), (1, 5000), (1310, 100), (4000, 57)]
    )
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_bits_of_ndarray_mean(self, shape, scale):
        rng = np.random.default_rng(math.prod(shape))
        x = rng.gamma(2.0, 1.0, shape) * scale
        mean = _row_mean(x, keepdims=True)
        assert mean.tobytes() == x.mean(axis=-1, keepdims=True).tobytes()
        assert _row_mean(x).tobytes() == x.mean(axis=-1).tobytes()
        # the mean of all values, as a one-dimensional ndarray.mean takes it
        flat = x.reshape(1, -1)
        assert _row_mean(flat)[0].hex() == float(x.mean()).hex()


class TestShiftScale:
    def test_moment_transformation(self):
        base = Sample([1.0, 2.0, 3.0, 4.0, 10.0])
        s0 = central_moments(base)
        b = -2.5
        s1 = central_moments(Sample(7.0 + b * base.values))
        assert s1.mean == pytest.approx(7.0 + b * s0.mean, rel=1e-14)
        assert s1.m2 == pytest.approx(b**2 * s0.m2, rel=1e-13)
        assert s1.m3 == pytest.approx(b**3 * s0.m3, rel=1e-13)
        assert s1.m4 == pytest.approx(b**4 * s0.m4, rel=1e-13)
        assert s1.sqrt_b1 == pytest.approx(-s0.sqrt_b1, rel=1e-12)
        assert s1.b2 == pytest.approx(s0.b2, rel=1e-12)


finite_samples = arrays(
    np.float64,
    st.integers(min_value=3, max_value=60),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
).filter(lambda a: float(a.max() - a.min()) > 1e-6)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(finite_samples)
    def test_kurtosis_skewness_inequality(self, a):
        # b2 >= 1 + b1 holds for every distribution, sample ones included
        s = central_moments(Sample(a))
        assert s.b2 >= 1.0 + s.sqrt_b1**2 - 1e-9 * s.b2

    @settings(max_examples=100, deadline=None)
    @given(
        finite_samples,
        st.floats(-100.0, 100.0, allow_nan=False),
    )
    def test_location_invariance(self, a, shift):
        s0 = central_moments(Sample(a))
        s1 = central_moments(Sample(shift + a))
        scale = max(abs(s0.m2), 1.0)
        assert s1.m2 == pytest.approx(s0.m2, abs=1e-6 * scale)

    @settings(max_examples=100, deadline=None)
    @given(finite_samples)
    def test_m2_m4_nonnegative(self, a):
        s = central_moments(Sample(a))
        assert s.m2 > 0.0
        assert s.m4 >= 0.0
