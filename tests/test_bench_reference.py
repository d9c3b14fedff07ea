"""The benchmark's correctness gate, run with the suite.

bench/run.py refuses a run whose reference job, at threads=1 and at
threads=2, does not reproduce the digests bench/reference.json pins for
each workload: the raw, z and p bits of every scalar test and every Monte
Carlo output. A change that moves an output byte fails this test, not
only the benchmark. bench/run.py and bench/workloads.py are loaded from
their files and not changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # run.py imports probe and workloads by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in ("probe", "workloads", "run")}
    try:
        yield tuple(_load(name) for name in ("probe", "workloads", "run"))[1:]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize(
    "workload", ["null_suite", "power_n1000", "power_table", "scalar_tests"]
)
def test_reference_digests_are_reproduced(bench, workload):
    workloads, run = bench
    assert workload in run.WORKLOAD_NAMES
    reference = json.loads(run.REFERENCE.read_text())
    tally = run.Tally(reference["known_failures"].get(workload, {}))
    run.check_reference(workloads.WORKLOADS[workload], reference, tally)
    assert tally.attempted > 0
    assert tally.problems == []
