"""The benchmark's tracer still finds every layer it times, and counts.

bench/tracing.py wraps named callables in pmskew.montecarlo,
pmskew.skewtests, pmskew.su_transform and pmskew.cli, and reports a layer
whose name is gone as unmeasured instead of failing. A refactor that
renames or drops one of those names would silently empty that layer's
per-layer metrics, so these tests fail first. bench/tracing.py and
bench/workloads.py are loaded from their files and not changed.
"""

import importlib.util
import sys
from pathlib import Path

from pmskew import montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"
# bench/run.py's REF_SEED; the counts below hold at any seed
REF_SEED = 20120223


def _load(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"pmskew_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_measured():
    tracer = _load("tracing").Tracer()
    patches = tracer._patches()
    modules = {m: importlib.import_module(m) for _, m, _, _ in patches}
    before = {(m, a): getattr(modules[m], a, None) for _, m, a, _ in patches}
    tracer.install()
    try:
        assert tracer.unmeasured == set()
    finally:
        tracer.uninstall()
    after = {(m, a): getattr(modules[m], a, None) for _, m, a, _ in patches}
    assert after == before


def test_power_table_reference_job_builds_one_null_run():
    """The tiny power_table job is six CLI power calls at n = 20, 50: the
    first draws both null runs in one pass, and the other eleven lookups
    find them kept."""
    workloads = _load("workloads")
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    montecarlo._null_runs.cache_clear()
    tracer.install()
    try:
        job = workloads.PowerTable(REF_SEED, "tiny").job("ref", 0, tracer)
        for op in job.ops:
            try:
                op.call(1)
            except workloads.CliExitError:
                pass  # counted as cli.exit_nonzero
    finally:
        tracer.uninstall()
    counts = tracing.job_counts(tracer.totals(), job.samples)
    assert counts["montecarlo.null_pool_builds"] == 1
    assert counts["montecarlo.null_pool_hits"] == 11
    assert counts["cli.exit_nonzero"] == 0
