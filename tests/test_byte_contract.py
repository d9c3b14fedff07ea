"""Golden digests of `pmskew` stdout.

Each invocation's CSV output is pinned by its SHA-256, at threads 1 and
2. The digests were recorded with fixed 4096-replication chunks; the
reps are chosen so that most runs cross a chunk boundary under both that
rule and the value-budget rule, so a change to how work is chunked, how
rows are drawn, or how a kernel reduces them shows up as a changed digest.
"""

import hashlib

import pytest

from pmskew import montecarlo
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
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, threads, capsys, monkeypatch):
    # a fresh null-pool cache, so threads=2 builds its own pools
    monkeypatch.setattr(montecarlo, "_null_cache", {})
    argv, digest = GOLDEN[name]
    assert main(argv + ["--threads", threads]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
