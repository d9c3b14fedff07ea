"""The benchmark's tracer still finds every layer it times.

bench/tracing.py wraps named callables in pmskew.montecarlo,
pmskew.skewtests, pmskew.su_transform and pmskew.cli, and reports a layer
whose name is gone as unmeasured instead of failing. A refactor that
renames or drops one of those names would silently empty that layer's
per-layer metrics, so this test fails first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pmskew_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_measured():
    tracer = _load_tracing().Tracer()
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
