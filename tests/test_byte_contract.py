"""Golden digests of `pmskew` output.

Each Monte Carlo invocation's CSV output is pinned by its SHA-256, at
threads 1 and 2. The first six digests were recorded with fixed
4096-replication chunks, the two test-subset power runs with the
value-budget rule; the reps are chosen so that most runs cross a chunk
boundary under both rules, so a change to how work is chunked, how rows
are drawn, or how a kernel reduces them shows up as a changed digest.
Two more power runs take simulated critical values at levels 0.01 and
0.2, from an odd and an even null pool, and a calibrate and a power run
at three sizes each pin the rows that a chunk drawn at the largest n
gives every smaller n.

The scalar tests are pinned the same way: the exact bits of every
TestResult over seeded samples from the null and the six power-study
alternatives, and the `pmskew test` CSV output for two data files, one
of them degenerate for the Lin-Mudholkar test. The sizes cover both
branches of the Shapiro-Wilk z approximation (n <= 11 and n >= 12) and
its upper limit, n = 5000. Two further digests pin the per-n constants
at every n: Shapiro-Wilk's W, z and p for n = 8..5000, and the S_U
constants of both series for n = 8..20000.
"""

import hashlib

import pytest

from pmskew import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Sample,
    SeededStream,
    central_moments,
    lin_mudholkar_test,
    montecarlo,
    sample,
    shapiro_wilk_test,
    spms_statistic,
    spms_test,
    sqrt_b1_test,
    su_params,
)
from pmskew.cli import main

GOLDEN = {
    "calibrate": (
        ["calibrate", "--n", "20,100", "--reps", "5000", "--seed", "7"],
        "9fd9a08668b005f4c3326e09878a76169435227ae1a005dc1133cb0b8d6f2721",
    ),
    "power_simulated": (
        ["power", "--alt", "gamma:2", "--n", "20,50", "--reps", "3000",
         "--null-reps", "5000", "--seed", "3"],
        "0678e67048f364e21641be15d4daef2eb47c9312179c1791c8419cba9da7eb0c",
    ),
    "power_asymptotic": (
        ["power", "--alt", "lognormal:0,0.5", "--n", "1000", "--reps", "300",
         "--critical-values", "asymptotic", "--seed", "5"],
        "3faf5168c6c423be17cbe2fa371a4a4af7b830d6a2c02fab8254c1e392e387ec",
    ),
    "hist_z": (
        ["hist", "--stat", "z", "--n", "30", "--reps", "5000", "--bins", "12",
         "--seed", "2"],
        "eac732fd7884c9b38e55e5a1db60176211e241741bf9f0ec60d4ac86e478f1f3",
    ),
    "hist_spms_range": (
        ["hist", "--stat", "spms", "--n", "50", "--reps", "3000", "--bins",
         "10", "--range=-0.8,0.8", "--seed", "4"],
        "7d43e17ff38a401dfc24c6f4e89dfd717262ed9093757e3936618a7957288954",
    ),
    "moments": (
        ["moments", "--n", "40", "--reps", "5000", "--seed", "6"],
        "deac2822ea5f483d3de19129cc5ac01b13cb68ab1a3544c1add218a4e080d856",
    ),
    # Shapiro-Wilk alone skips the centring; n=10 and n=30 take the two
    # branches of its z approximation
    "power_sw_asymptotic": (
        ["power", "--alt", "gamma:2", "--n", "10,30", "--reps", "5000",
         "--tests", "shapiro_wilk", "--critical-values", "asymptotic",
         "--seed", "8"],
        "9cc29d4d160ddf9e39dab0873cfdb77774793de2e3755b48fa24ed12119e9330",
    ),
    "power_sqrt_b1_lm_simulated": (
        ["power", "--alt", "beta:2,1", "--n", "25", "--reps", "3000",
         "--tests", "sqrt_b1,lin_mudholkar", "--null-reps", "6000",
         "--seed", "9"],
        "60796980bef04e80372cdc3366f42c55ddbac64fd6b43213daf327b1986fd761",
    ),
    # simulated criticals at the two extreme levels the kept critical
    # values serve; an odd null pool at 0.01, an even one at 0.2
    "power_simulated_level_0.01": (
        ["power", "--alt", "gamma:2", "--n", "20,50", "--reps", "3000",
         "--null-reps", "5001", "--level", "0.01", "--seed", "10"],
        "dd991d27ad9d114cfa9e3510d57c271f8bc117c22d436c33bb1df2058be07e75",
    ),
    "power_simulated_level_0.2": (
        ["power", "--alt", "lognormal:0,0.5", "--n", "15,40", "--reps", "3000",
         "--null-reps", "4096", "--level", "0.2", "--seed", "12"],
        "2585dc6b5df0d4baf084f9f29892ef20edbee2f8080193f06ed4a75583ec36a6",
    ),
    # three sizes drawn in one pass at the largest, each chunk running
    # every smaller n on its rows' first n values; Shapiro-Wilk and
    # Lin-Mudholkar together share the chunk's temporaries
    "calibrate_three_n": (
        ["calibrate", "--n", "8,21,100", "--reps", "3000", "--seed", "11"],
        "87936b6a9b18e2323208e9e8b2e9665ee9fd2e1db9fd7a049b28288215707850",
    ),
    "power_sw_lm_three_n": (
        ["power", "--alt", "beta:2,1", "--n", "8,20,33", "--reps", "5000",
         "--null-reps", "4001", "--tests", "shapiro_wilk,lin_mudholkar",
         "--seed", "12"],
        "c29dd54f6f055dd224bff7464d3f3932a5860f40f043f49f441365c8f515dff5",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, threads, capsys):
    # an empty memo, so the run simulates its null rather than reading
    # one an earlier test kept
    montecarlo._null_runs.cache_clear()
    argv, digest = GOLDEN[name]
    assert main(argv + ["--threads", threads]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


SCALAR_SPECS = (AlternativeSpec.parse("normal"),) + POWER_STUDY_ALTERNATIVES
SCALAR_SIZES = (8, 11, 12, 20, 100, 1000, 5000)
SCALAR_DIGEST = "138812e388a2ea3e9bacc910bdb1c2e0add367c2687054fafa79dd1137826d22"
CLI_TEST_DIGEST = "f817ea3ffd66ba459b1fea4c194f612220946e834bd8d5f62f9a016d77f7b9c9"
# [1, -1] * 4: the Lin-Mudholkar variance proxies are all equal
CLI_DEGENERATE_DIGEST = (
    "4b81274731621504b5a1d272da287cd3eae22e09e8d29d415d992fe15edcc04b"
)


def _result_line(result):
    fields = (result.raw_statistic, result.z_value, result.p_value)
    return " ".join(
        [str(result.test_name)] + [v.hex() for v in fields] + [str(result.defined)]
    )


def _scalar_samples():
    """(label, n, Sample) for every alternative and size, seeded."""
    for i, spec in enumerate(SCALAR_SPECS):
        for n in SCALAR_SIZES:
            yield spec.label, n, sample(spec, n, SeededStream(11, 1000 * i + n))


def test_scalar_results_digest():
    lines = []
    for label, n, s in _scalar_samples():
        for test in (spms_test, sqrt_b1_test, shapiro_wilk_test,
                     lin_mudholkar_test):
            lines.append(f"{label} {n} {_result_line(test(s))}")
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SCALAR_DIGEST


def test_spms_statistic_is_the_test_statistic():
    # one formula: the public statistic and the test's raw value share bits
    for label, n, s in _scalar_samples():
        value = spms_statistic(central_moments(s))
        assert value.hex() == spms_test(s).raw_statistic.hex(), (label, n)


def test_cli_test_stdout_digest(tmp_path, capsys):
    s = sample(AlternativeSpec.parse("gamma:2"), 60, SeededStream(12, 0))
    path = tmp_path / "gamma60.txt"
    path.write_text("".join(f"{v!r}\n" for v in s.values.tolist()))
    assert main(["test", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_TEST_DIGEST


def test_cli_test_degenerate_stdout_digest(tmp_path, capsys):
    path = tmp_path / "degenerate8.txt"
    path.write_text("".join(f"{v!r}\n" for v in [1.0, -1.0] * 4))
    assert main(["test", str(path)]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_DEGENERATE_DIGEST


# Every per-n constant through the public API: the Shapiro-Wilk weights
# at every n it accepts, and the S_U constants of both series, so a
# rewrite of a builder that runs at every n is pinned at every n, not
# only at SCALAR_SIZES.
SW_EVERY_N_DIGEST = (
    "0fd7bc6febb494ba50d45d1382dd5f0b320e84e70c947387fd1b042179142530"
)
SU_EVERY_N_DIGESTS = {
    "calibrated": "91199698d9b8754f3e64f84808e131e5b9e6a87e59d30480afce2fbab925b8a1",
    "full": "b84051ed179c488a0ea06f43d821bd6fc0dc4eb59a600136da2a26167dc988c8",
}


def test_shapiro_wilk_every_n_digest():
    # prefixes of one seeded normal sample, one per n in 8..5000
    base = sample(AlternativeSpec.parse("normal"), 5000, SeededStream(13, 0)).values
    h = hashlib.sha256()
    for n in range(8, 5001):
        r = shapiro_wilk_test(Sample(base[:n]))
        fields = (r.raw_statistic, r.z_value, r.p_value)
        h.update((f"{n} " + " ".join(v.hex() for v in fields) + "\n").encode())
    assert h.hexdigest() == SW_EVERY_N_DIGEST


@pytest.mark.parametrize("series", sorted(SU_EVERY_N_DIGESTS))
def test_su_params_every_n_digest(series):
    h = hashlib.sha256()
    for n in range(8, 20001):
        s = su_params(n, series)
        fields = (s.lambda2, s.beta2_spms, s.W2, s.delta, s.alpha)
        h.update((f"{n} " + " ".join(v.hex() for v in fields) + "\n").encode())
    assert h.hexdigest() == SU_EVERY_N_DIGESTS[series]
