"""Spans and counts at pmskew's layer boundaries, for the traced run only.

`Tracer.install` replaces the callables that pmskew.montecarlo,
pmskew.skewtests, pmskew.su_transform and pmskew.cli look up at call time
with wrappers that record a span (name, start, end, parent) and a count,
and `Tracer.uninstall` puts the originals back. A layer whose wrapped name
no longer exists is reported as unmeasured; the run goes on.

Per-row spans (stream setup, variate draw) are far too many to keep, so
every span is folded into per-thread totals (calls, seconds, self
seconds) as it ends, and only the coarse spans named in RECORDED are kept in
memory individually, to be written out with the result.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter, thread_time

RECORDED = frozenset(
    {
        "cli.main",
        "montecarlo.map_chunks",
        "montecarlo.chunk",
        "montecarlo.null_reference",
    }
)


class _ThreadState:
    __slots__ = ("stack", "stats")

    def __init__(self):
        # frames: [span id of the nearest recorded span, child seconds]
        self.stack: list[list] = []
        # name -> [calls, seconds, self seconds]
        self.stats: dict[str, list] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []
        self.epoch = perf_counter()
        self.job = ""  # identifier shared by the spans of one job
        self.spans: list[tuple] = []
        self.unmeasured: set[str] = set()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def span(self, name, fn, args=(), kwargs=None, parent=None):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        st = self._state()
        stack = st.stack
        if parent is None:
            parent = stack[-1][0] if stack else 0
        sid = next(self._ids) if name in RECORDED else 0
        frame = [sid or parent, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            s = st.stats.get(name)
            if s is None:
                s = st.stats[name] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dur
            s[2] += dur - frame[1]
            if sid:
                self.spans.append(
                    (sid, name, t0 - self.epoch, t1 - self.epoch, parent, self.job)
                )

    def call(self, name, fn, *args):
        """span() for the benchmark's own calls into pmskew."""
        return self.span(name, fn, args)

    def count(self, name, k=1):
        s = self._state().stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += k

    def add_seconds(self, name, seconds):
        s = self._state().stats.setdefault(name, [0, 0.0, 0.0])
        s[1] += seconds

    def _local_calls(self, name) -> int:
        s = self._state().stats.get(name)
        return s[0] if s else 0

    def current(self) -> int:
        stack = self._state().stack
        return stack[-1][0] if stack else 0

    def totals(self) -> dict[str, list]:
        """Per-name [calls, seconds, self seconds] over all threads."""
        out: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, s in list(st.stats.items()):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += s[i]
        return out

    # -- wrappers -----------------------------------------------------------

    def _plain(self, name):
        def factory(orig):
            return lambda *a, **k: self.span(name, orig, a, k)

        return factory

    def _stream(self, orig):
        def stream(*a, **k):
            g = self.span(
                "distributions.stream_setup", lambda: orig(*a, **k).generator()
            )
            return _BuiltStream(g)

        return stream

    def _map_chunks(self, orig):
        def map_chunks(work, *a, **k):
            def inner():
                parent = self.current()

                def traced(span):
                    # CPU time, not wall time: a worker waiting for the
                    # interpreter lock is not busy
                    c0 = thread_time()
                    try:
                        return self.span("montecarlo.chunk", work, (span,), parent=parent)
                    finally:
                        self.add_seconds("montecarlo.chunk_cpu", thread_time() - c0)

                return orig(traced, *a, **k)

            return self.span("montecarlo.map_chunks", inner)

        return map_chunks

    def _draw_chunk(self, orig):
        def draw_chunk(*a, **k):
            x = self.span("montecarlo.draw_chunk", orig, a, k)
            self.count("montecarlo.rows_drawn", len(x))
            return x

        return draw_chunk

    def _null_reference(self, orig):
        def null_reference(*a, **k):
            before = self._local_calls("montecarlo.map_chunks")
            pools = self.span("montecarlo.null_reference", orig, a, k)
            built = self._local_calls("montecarlo.map_chunks") > before
            self.count("montecarlo.null_pool_build" if built else "montecarlo.null_pool_hit")
            return pools

        return null_reference

    def _su_params(self, orig):
        def su_params(*a, **k):
            return _TracedSu(self, self.span("su_transform.su_params", orig, a, k))

        return su_params

    def _patches(self):
        # (layer, module, attribute, wrapper factory)
        return (
            ("distributions", "pmskew.montecarlo", "SeededStream", self._stream),
            ("distributions", "pmskew.montecarlo", "draw_values",
             self._plain("distributions.draw")),
            ("montecarlo", "pmskew.montecarlo", "_map_chunks", self._map_chunks),
            ("montecarlo", "pmskew.montecarlo", "_draw_chunk", self._draw_chunk),
            ("montecarlo", "pmskew.montecarlo", "_null_reference", self._null_reference),
            ("skewtests", "pmskew.montecarlo", "_batch_spms", self._plain("skewtests.spms")),
            ("skewtests", "pmskew.montecarlo", "_batch_sqrt_b1_z",
             self._plain("skewtests.sqrt_b1")),
            ("skewtests", "pmskew.montecarlo", "_batch_sw", self._plain("skewtests.sw")),
            ("skewtests", "pmskew.montecarlo", "_batch_lm_z", self._plain("skewtests.lm")),
            ("moments", "pmskew.skewtests", "central_moment_arrays",
             self._plain("moments.central")),
            ("moments", "pmskew.skewtests", "central_moments", self._plain("moments.central")),
            ("su_transform", "pmskew.montecarlo", "su_params", self._su_params),
            ("su_transform", "pmskew.su_transform", "su_params", self._su_params),
            ("cli", "pmskew.cli", "_csv", self._plain("cli.format")),
            ("cli", "pmskew.cli", "_json_doc", self._plain("cli.format")),
            ("cli", "pmskew.cli", "_write_output", self._plain("cli.format")),
        )

    def install(self) -> None:
        for layer, modname, attr, factory in self._patches():
            module = importlib.import_module(modname)
            orig = getattr(module, attr, None)
            if orig is None:
                self.unmeasured.add(layer)
                continue
            self._saved.append((module, attr, orig))
            setattr(module, attr, factory(orig))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


class _BuiltStream:
    """Stands in for a SeededStream whose generator was built in a span."""

    __slots__ = ("_g",)

    def __init__(self, g):
        self._g = g

    def generator(self):
        return self._g


class _TracedSu:
    """An S_U transform whose z() is timed; other attributes pass through."""

    def __init__(self, tracer, su):
        self._tracer = tracer
        self._su = su

    def __getattr__(self, name):
        return getattr(self._su, name)

    def z(self, values):
        return self._tracer.span("su_transform.z", self._su.z, (values,))


def diff(after: dict, before: dict) -> dict:
    out = {}
    for name, s in after.items():
        b = before.get(name, [0, 0.0, 0.0])
        out[name] = [s[i] - b[i] for i in range(3)]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, layer); the layer decides whether the metric is measured
PER_LAYER = (
    ("distributions.stream_setup_us", "us", "distributions"),
    ("distributions.draw_us", "us", "distributions"),
    ("distributions.generators_per_sample", "count", "distributions"),
    ("distributions.chunk_share", "fraction", "distributions"),
    ("montecarlo.self_us", "us", "montecarlo"),
    ("montecarlo.chunk_share", "fraction", "montecarlo"),
    ("montecarlo.worker_busy_frac_t2", "fraction", "montecarlo"),
    ("montecarlo.null_pool_builds", "count", "montecarlo"),
    ("montecarlo.null_pool_hits", "count", "montecarlo"),
    ("montecarlo.null_hit_ratio", "fraction", "montecarlo"),
    ("montecarlo.null_pool_s", "s", "montecarlo"),
    ("moments.central_us", "us", "moments"),
    ("moments.passes_per_chunk", "count", "moments"),
    ("moments.sample_us", "us", "moments"),
    ("moments.chunk_share", "fraction", "moments"),
    ("skewtests.spms_us", "us", "skewtests"),
    ("skewtests.sqrt_b1_us", "us", "skewtests"),
    ("skewtests.sw_us", "us", "skewtests"),
    ("skewtests.lm_us", "us", "skewtests"),
    ("skewtests.sw_calls_per_chunk", "count", "skewtests"),
    ("skewtests.chunk_share", "fraction", "skewtests"),
    ("skewtests.spms_test_us", "us", "skewtests"),
    ("skewtests.sqrt_b1_test_us", "us", "skewtests"),
    ("skewtests.shapiro_wilk_test_us", "us", "skewtests"),
    ("skewtests.lin_mudholkar_test_us", "us", "skewtests"),
    ("su_transform.su_params_us", "us", "su_transform"),
    ("su_transform.su_params_calls_per_sample", "count", "su_transform"),
    ("su_transform.z_us", "us", "su_transform"),
    ("su_transform.chunk_share", "fraction", "su_transform"),
    ("cli.main_s", "s", "cli"),
    ("cli.format_ms", "ms", "cli"),
    ("cli.exit_nonzero", "count", "cli"),
    ("trace.throughput_ratio", "ratio", None),
)

# the layer each in-chunk span's self time belongs to
CHUNK_LAYERS = {
    "distributions": ("distributions.stream_setup", "distributions.draw"),
    "montecarlo": ("montecarlo.chunk", "montecarlo.draw_chunk"),
    "moments": ("moments.central",),
    "skewtests": ("skewtests.spms", "skewtests.sqrt_b1", "skewtests.sw", "skewtests.lm"),
    "su_transform": ("su_transform.z",),
}

# per-job counts that must repeat exactly from job to job
EXACT_COUNTS = (
    "distributions.generators_per_sample",
    "moments.passes_per_chunk",
    "skewtests.sw_calls_per_chunk",
    "montecarlo.null_pool_builds",
    "montecarlo.null_pool_hits",
    "su_transform.su_params_calls_per_sample",
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def job_counts(t: dict, samples: int) -> dict[str, float]:
    """The exact counts of one job, from its totals and its sample count."""

    def calls(name):
        return t.get(name, [0])[0]

    base = calls("montecarlo.rows_drawn") or samples
    chunks = calls("montecarlo.chunk")
    builds = calls("montecarlo.null_pool_build")
    hits = calls("montecarlo.null_pool_hit")
    return {
        "distributions.generators_per_sample": _ratio(
            calls("distributions.stream_setup"), calls("montecarlo.rows_drawn")
        ),
        "moments.passes_per_chunk": _ratio(calls("moments.central"), chunks),
        "skewtests.sw_calls_per_chunk": _ratio(calls("skewtests.sw"), chunks),
        "montecarlo.null_pool_builds": builds,
        "montecarlo.null_pool_hits": hits,
        "su_transform.su_params_calls_per_sample": _ratio(
            calls("su_transform.su_params"), base
        ),
        "cli.exit_nonzero": calls("cli.exit_nonzero"),
    }


def layer_metrics(t1: dict, samples1: int, jobs1: int, busy_frac_t2: float,
                  counts: dict, throughput_ratio: float) -> dict[str, float]:
    """Per-layer values from the traced threads=1 totals `t1`."""

    def calls(name):
        return t1.get(name, [0])[0]

    def seconds(name):
        return t1.get(name, [0, 0.0])[1]

    def self_s(*names):
        return sum(t1.get(n, [0, 0.0, 0.0])[2] for n in names)

    base = calls("montecarlo.rows_drawn") or samples1
    chunk_s = seconds("montecarlo.chunk")

    def per_sample_us(name):
        return 1e6 * _ratio(seconds(name), base)

    def per_call_us(name):
        return 1e6 * _ratio(seconds(name), calls(name))

    lookups = counts["montecarlo.null_pool_builds"] + counts["montecarlo.null_pool_hits"]
    values = {
        "distributions.stream_setup_us": per_sample_us("distributions.stream_setup"),
        "distributions.draw_us": per_sample_us("distributions.draw"),
        "montecarlo.self_us": 1e6 * _ratio(self_s(*CHUNK_LAYERS["montecarlo"]), base),
        "montecarlo.worker_busy_frac_t2": busy_frac_t2,
        "montecarlo.null_hit_ratio": _ratio(counts["montecarlo.null_pool_hits"], lookups),
        "montecarlo.null_pool_s": _ratio(seconds("montecarlo.null_reference"), jobs1),
        "moments.central_us": per_sample_us("moments.central"),
        "moments.sample_us": per_call_us("moments.sample"),
        "skewtests.spms_us": per_sample_us("skewtests.spms"),
        "skewtests.sqrt_b1_us": per_sample_us("skewtests.sqrt_b1"),
        "skewtests.sw_us": per_sample_us("skewtests.sw"),
        "skewtests.lm_us": per_sample_us("skewtests.lm"),
        "skewtests.spms_test_us": per_call_us("skewtests.spms_test"),
        "skewtests.sqrt_b1_test_us": per_call_us("skewtests.sqrt_b1_test"),
        "skewtests.shapiro_wilk_test_us": per_call_us("skewtests.shapiro_wilk_test"),
        "skewtests.lin_mudholkar_test_us": per_call_us("skewtests.lin_mudholkar_test"),
        "su_transform.su_params_us": per_call_us("su_transform.su_params"),
        "su_transform.z_us": per_sample_us("su_transform.z"),
        "cli.main_s": _ratio(seconds("cli.main"), calls("cli.main")),
        "cli.format_ms": 1e3 * _ratio(seconds("cli.format"), calls("cli.main")),
        "trace.throughput_ratio": throughput_ratio,
    }
    for layer, names in CHUNK_LAYERS.items():
        values[f"{layer}.chunk_share"] = _ratio(self_s(*names), chunk_s)
    values.update(counts)
    return values
