"""Smoke test of the benchmark itself, at the tiny (reference) sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_pmskew()

from tracing import PER_LAYER, Tracer  # noqa: E402


def _reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run(workload, seed=1, seconds=0.5, trace=0, size="tiny")
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.END_TO_END
    }
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
    env = result["environment"]
    for key in ("python", "numpy", "scipy", "nproc", "seed", "chunk_size"):
        assert env[key] is not None, key
    assert env["git_revision"] or env["source_sha256"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.run(workload, seed=1, seconds=0.5, trace=1, size="tiny")
    assert result["correct"], result["problems"]
    assert result["detail"]["unmeasured_layers"] == []
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in PER_LAYER
    }
    for name, m in result["metrics"].items():
        assert m["value"] >= 0, name


def test_known_profile_of_the_power_table():
    metrics = run.run("power_table", seed=2, seconds=0.5, trace=1, size="tiny")["metrics"]
    assert metrics["montecarlo.null_pool_builds"]["value"] == 12
    assert metrics["montecarlo.null_hit_ratio"]["value"] == 0
    assert metrics["cli.exit_nonzero"]["value"] == 3


def test_json_power_crash_counts_as_failed_operation():
    result = run.run("power_table", seed=1, seconds=0.5, trace=0, size="tiny")
    # three of the six alternatives are written as JSON, which crashes
    assert result["correct"]
    assert result["failed"] * 2 == result["attempted"]


def test_known_kind_failing_with_another_error_is_a_problem():
    reference = copy.deepcopy(_reference())
    reference["known_failures"]["power_table"]["power:json"] = "ValueError: other"
    result = run.run("power_table", seed=1, seconds=0.5, trace=0, size="tiny",
                     reference=reference)
    assert not result["correct"]
    assert any("power:json" not in p and "TypeError" in p for p in result["problems"])


def test_perturbed_digest_is_a_failure():
    reference = copy.deepcopy(_reference())
    digests = reference["digests"]["null_suite"]
    label = next(iter(digests))
    digests[label] = "0" * 64
    result = run.run("null_suite", seed=1, seconds=0.5, trace=0, size="tiny",
                     reference=reference)
    assert not result["correct"]
    assert result["failed"] == 2  # that operation at threads=1 and at 2
    assert any(label in p for p in result["problems"])


def test_missing_wrapped_name_marks_its_layer_unmeasured(monkeypatch):
    import pmskew.montecarlo

    monkeypatch.delattr(pmskew.montecarlo, "_batch_sw")
    monkeypatch.delattr(pmskew.montecarlo, "_null_reference")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.unmeasured == {"skewtests", "montecarlo"}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "null_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
