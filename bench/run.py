"""pmskew benchmark: one workload per run, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload null_suite --seed 1 --seconds 20 --trace 0

The benchmark imports pmskew from src/ of the same checkout and drives it
from outside, through its public functions and `pmskew.cli.main`, one job
at a time (a closed loop). An untraced run (--trace 0) measures the
end-to-end metrics: set-up time in fresh processes, then 40% of --seconds
at threads=1 and 60% at threads=2. A traced run (--trace 1) measures the
per-layer metrics. Both check every output: a reference job with fixed
inputs must reproduce the digests in reference.json at threads=1 and
threads=2, and the first timed job is run again at threads=2 and must give
the same bytes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric by
name with its unit. A fuller record, with the environment, is written to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("null_suite", "power_n1000", "power_table", "scalar_tests")
REF_SEED = 20120223
SETUP_RUNS = 7

END_TO_END = (
    ("samples_per_s_t1", "1/s"),
    ("samples_per_s_t2", "1/s"),
    ("sample_us_p50", "us"),
    ("sample_us_p99", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Runs in a fresh interpreter: the import and the first use of the per-n
# constants, timed from inside so that interpreter start-up is left out.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pmskew, pmskew.cli
for n in sys.argv[2].split(","):
    pmskew.su_params(int(n))
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run, or a check it must make does not hold."""


def import_pmskew(root: Path = ROOT):
    """Import pmskew from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "pmskew" / "__init__.py").is_file():
        raise BenchError(f"no pmskew sources under {src}")
    sys.path.insert(0, str(src))
    import pmskew

    if Path(pmskew.__file__).resolve().parent != (src / "pmskew").resolve():
        raise BenchError(f"imported pmskew from {pmskew.__file__}, not from {src}")
    return pmskew


# ---------------------------------------------------------------------------
# running jobs


@dataclass
class OpRecord:
    label: str
    kind: str
    samples: int
    wall: float
    speed: float  # probe time over its reference time around the operation
    digest: str | None  # None when the operation failed
    error: str | None


@dataclass
class JobRecord:
    wall: float  # the job's time, without the probes between its operations
    speed: float  # the probe speed over that time
    samples: int
    ops: list[OpRecord]
    counts: dict = field(default_factory=dict)  # traced phases only


def caller_pool(workload, threads: int):
    if workload.caller_threads and threads > 1:
        return ThreadPoolExecutor(max_workers=threads)
    return nullcontext()


def execute(workload, job, threads: int, pool, probed: bool = False) -> JobRecord:
    """Run one job; results are digested after its timer stops.

    With `probed`, the workload's speed probe runs just before and just
    after each operation of a Monte Carlo job, or around a scalar job as
    a whole (its operations are too short to probe one by one).
    """
    from workloads import digest

    def speed():
        return probe.speed(workload.probe_kind)

    n = len(job.ops)
    results: list = [None] * n
    walls = [0.0] * n
    errors: list = [None] * n
    speeds = [1.0] * n
    lib_threads = 1 if workload.caller_threads else threads
    per_op = probed and not workload.caller_threads

    def run_ops(indices):
        for i in indices:
            before = speed() if per_op else 0.0
            t0 = perf_counter()
            try:
                results[i] = job.ops[i].call(lib_threads)
            except Exception as exc:  # an operation failure is data here
                errors[i] = f"{type(exc).__name__}: {exc}"
            walls[i] = perf_counter() - t0
            if per_op:
                speeds[i] = (before + speed()) / 2

    per_job = probed and workload.caller_threads
    before = speed() if per_job else 0.0
    t0 = perf_counter()
    if pool is None:
        run_ops(range(n))
    else:
        futures = [pool.submit(run_ops, range(j, n, threads)) for j in range(threads)]
        for f in futures:
            f.result()
    wall = perf_counter() - t0
    if per_job:
        speeds = [(before + speed()) / 2] * n
    job_speed = speeds[0] if n else 1.0
    if per_op:
        # the sum of the operations' times, each at its own probe speed
        wall = sum(walls)
        job_speed = wall / sum(w / v for w, v in zip(walls, speeds))

    ops = []
    for i, op in enumerate(job.ops):
        d, err = None, errors[i]
        if err is None:
            try:
                d = digest(op.canon(results[i]))
            except Exception as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        ops.append(OpRecord(op.label, op.kind, op.samples, walls[i], speeds[i], d, err))
    return JobRecord(wall, job_speed, job.samples, ops)


def run_phase(workload, tag: str, seconds: float, threads: int, tracer=None):
    """Run jobs tag:0, tag:1, ... until `seconds` have passed (at least one)."""
    from tracing import diff

    records = []
    end = perf_counter() + seconds
    with caller_pool(workload, threads) as pool:
        k = 0
        while k == 0 or perf_counter() < end:
            job = workload.job(tag, k, tracer)
            if tracer is None:
                records.append(execute(workload, job, threads, pool, probed=True))
            else:
                tracer.job = f"{tag}:{k}"
                before = tracer.totals()
                rec = execute(workload, job, threads, pool, probed=True)
                rec.counts = diff(tracer.totals(), before)
                records.append(rec)
            k += 1
    return records


class Tally:
    """Attempted and failed operations. A failure is an exception, a
    nonzero CLI exit or a wrong digest. A failure is known only if
    reference.json lists its operation kind with exactly its error text;
    wrong digests and all other failures make the run incorrect."""

    def __init__(self, known_failures: dict[str, str]):
        self.known = known_failures
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op: OpRecord, expected: str | None = None, where: str = ""):
        self.attempted += 1
        if op.error is not None:
            self.failed += 1
            if self.known.get(op.kind) != op.error:
                self.problems.append(f"{where}: {op.label}: {op.error}")
        elif expected is not None and op.digest != expected:
            self.failed += 1
            self.problems.append(
                f"{where}: {op.label}: digest {op.digest[:12]} != {expected[:12]}"
            )

    def add_phase(self, records, where: str):
        for rec in records:
            for op in rec.ops:
                self.add(op, where=where)


def check_reference(workload_cls, reference: dict, tally: Tally) -> None:
    """The fixed reference job must reproduce the recorded digests at
    threads=1 and threads=2."""
    wl = workload_cls(REF_SEED, "tiny")
    expected = reference["digests"][workload_cls.name]
    job = wl.job("ref", 0)
    for threads in (1, 2):
        with caller_pool(wl, threads) as pool:
            rec = execute(wl, job, threads, pool)
        for op in rec.ops:
            want = expected.get(op.label)
            if want is None:
                raise BenchError(f"reference.json has no digest for {op.label}")
            tally.add(op, want, f"reference t{threads}")


def cross_check(wl, tag: str, first: JobRecord, threads: int, tally: Tally):
    """Run job tag:0 again, untraced, at `threads` and compare its bytes."""
    with caller_pool(wl, threads) as pool:
        again = execute(wl, wl.job(tag, 0), threads, pool)
    for old, new in zip(first.ops, again.ops):
        where = f"{tag}:0 again at t{threads}"
        if old.error is not None:
            tally.add(new, where=where)
            if new.error is None:
                tally.problems.append(f"{where}: {new.label}: failed only once")
        else:
            tally.add(new, old.digest, where)


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_setup(ns) -> list[tuple[float, float]]:
    """(seconds, probe speed around them) of SETUP_RUNS fresh set-up
    processes."""
    times = []
    for _ in range(SETUP_RUNS):
        before = probe.speed("interp")
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), ",".join(map(str, ns))],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr[-2000:]}")
        speed = (before + probe.speed("interp")) / 2
        times.append((float(proc.stdout.split()[-1]), speed))
    return times


def tail_percentile(values) -> tuple[float, float]:
    """The 99th percentile, or, with fewer than 1000 values, the highest
    percentile that has at least ten values beyond it (the median with
    fewer than 20). Returns (percentile, value)."""
    import numpy as np

    q = max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / len(values))))
    return q, float(np.percentile(values, q))


def timed_units(records) -> list[tuple[int, float, float]]:
    """(samples, wall, speed) of each job, the timed unit of throughput:
    all of a job's calls count, so a call that serves the others (a null
    pool build) is not left out of the rate."""
    return [(r.samples, r.wall, r.speed) for r in records]


def rates(records, adjusted: bool = True) -> list[float]:
    """Samples per second of each job, scaled by its probe speed unless
    `adjusted` is False."""
    return [
        n / wall * (speed if adjusted else 1.0)
        for n, wall, speed in timed_units(records)
    ]


def sample_times_us(wl, records) -> list[float]:
    """Microseconds per sample, probe-scaled: of each distinct scalar
    sample (met several times in a run, its median time counts, which
    hides passing stalls), or of each Monte Carlo job as a whole."""
    if not wl.caller_threads:
        return [1e6 / r for r in rates(records)]
    by_input: dict[str, list[float]] = {}
    for rec in records:
        for op in rec.ops:
            us = 1e6 * op.wall / op.samples / op.speed
            by_input.setdefault(op.label, []).append(us)
    return [statistics.median(v) for v in by_input.values()]


def untraced_run(wl, seconds: float, tally: Tally, setup_times):
    # threads=2 gets more of the time because its rates spread more
    t1 = run_phase(wl, "t1", 0.4 * seconds, 1)
    t2 = run_phase(wl, "t2", 0.6 * seconds, 2)
    tally.add_phase(t1, "t1")
    tally.add_phase(t2, "t2")
    cross_check(wl, "t1", t1[0], 2, tally)
    sample_us = sample_times_us(wl, t1)
    tail_q, tail_us = tail_percentile(sample_us)
    metrics = {
        "samples_per_s_t1": statistics.median(rates(t1)),
        "samples_per_s_t2": statistics.median(rates(t2)),
        "sample_us_p50": statistics.median(sample_us),
        "sample_us_p99": tail_us,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(t / v for t, v in setup_times),
    }
    detail = {
        "jobs_t1": len(t1),
        "jobs_t2": len(t2),
        "sample_times_t1": len(sample_us),
        "sample_us_p99_is_percentile": tail_q,
        "setup_runs_s": [t / v for t, v in setup_times],
        "unadjusted_setup_runs_s": [t for t, _ in setup_times],
        "unadjusted_samples_per_s_t1": statistics.median(rates(t1, False)),
        "unadjusted_samples_per_s_t2": statistics.median(rates(t2, False)),
        "units_t1": timed_units(t1),
        "units_t2": timed_units(t2),
        "fail_frac": tally.failed / tally.attempted,
    }
    return metrics, detail


def traced_run(wl, seconds: float, tally: Tally):
    from tracing import EXACT_COUNTS, PER_LAYER, Tracer, diff, job_counts, layer_metrics

    u1 = run_phase(wl, "u1", 0.3 * seconds, 1)
    tracer = Tracer()
    tracer.install()
    try:
        x1 = run_phase(wl, "x1", 0.4 * seconds, 1, tracer)
        after_x1 = tracer.totals()
        x2 = run_phase(wl, "x2", 0.3 * seconds, 2, tracer)
        t2_totals = diff(tracer.totals(), after_x1)
    finally:
        tracer.uninstall()
    for records, where in ((u1, "u1"), (x1, "x1"), (x2, "x2")):
        tally.add_phase(records, where)
    cross_check(wl, "x1", x1[0], 2, tally)

    per_job = [job_counts(rec.counts, rec.samples) for rec in x1 + x2]
    for i, counts in enumerate(per_job):
        changed = [k for k in EXACT_COUNTS if counts[k] != per_job[0][k]]
        if changed:
            raise BenchError(
                f"traced job {i} counts differ from job 0 in {changed}: "
                f"{[counts[k] for k in changed]} vs {[per_job[0][k] for k in changed]}"
            )
    busy = busy_frac_t2(t2_totals, x2)
    ratio = statistics.median(rates(x1)) / statistics.median(rates(u1))
    values = layer_metrics(
        after_x1, sum(r.samples for r in x1), len(x1), busy, per_job[0], ratio
    )
    metrics = {
        name: (None if layer in tracer.unmeasured else values[name])
        for name, _, layer in PER_LAYER
    }
    detail = {
        "jobs_u1": len(u1),
        "jobs_x1": len(x1),
        "jobs_x2": len(x2),
        "unmeasured_layers": sorted(tracer.unmeasured),
        "fail_frac": tally.failed / tally.attempted,
        "totals_t1": after_x1,
        "totals_t2": t2_totals,
        "spans": [
            dict(zip(("id", "name", "start", "end", "parent", "job"), s))
            for s in tracer.spans
        ],
    }
    return metrics, detail


def busy_frac_t2(t2_totals: dict, x2) -> float:
    """CPU time the workers spent in chunks over 2 x the jobs' wall time."""
    busy = t2_totals.get("montecarlo.chunk_cpu", [0, 0.0])[1]
    return busy / (2 * sum(r.wall for r in x2))


# ---------------------------------------------------------------------------
# environment, entry point


def environment(pmskew, seed: int) -> dict:
    import hashlib

    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pmskew").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "chunk_size": getattr(pmskew.montecarlo, "CHUNK_SIZE", None),
    }


def git_revision() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def run(name: str, seed: int, seconds: float, trace: int, size: str = "full",
        reference: dict | None = None) -> dict:
    """One benchmark run; returns the result record."""
    from workloads import WORKLOADS

    import pmskew

    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    cls = WORKLOADS[name]
    tally = Tally(reference["known_failures"].get(name, {}))
    setup_times = None if trace else measure_setup(cls.setup_ns)
    check_reference(cls, reference, tally)
    wl = cls(seed, size)
    if trace:
        from tracing import PER_LAYER

        metrics, detail = traced_run(wl, seconds, tally)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, detail = untraced_run(wl, seconds, tally, setup_times)
        units = dict(END_TO_END)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": tally.problems,
        "workload": name,
        "why": cls.why,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "environment": environment(pmskew, seed),
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_pmskew()
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    env = result["environment"]
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} nproc={env['nproc']} chunk_size={env['chunk_size']} "
        f"revision={env['git_revision'] or env['source_sha256'][:12]}"
    )
    for name, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}")
    print(
        f"  {'fail_frac':40s} {result['detail']['fail_frac']:>14.6g} "
        f"({result['failed']} of {result['attempted']} operations failed)"
    )
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    if len(result["problems"]) > 20:
        print(f"  ... {len(result['problems']) - 20} more problems in the record")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
