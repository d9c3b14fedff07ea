"""The four benchmark workloads: inputs made from a seed, operations, digests.

A workload is a sequence of jobs; job k of a phase is fixed by
(workload seed, phase tag, k), so the same seed always gives the same
inputs. A job is a list of operations. Each operation calls pmskew through
its public functions or `pmskew.cli.main` and returns the raw result; the
result is turned into canonical bytes and digested only after the job's
timer stops.

Monte Carlo operations pass `threads` to pmskew. The scalar operations have
no thread parameter, so at threads=2 a scalar job is split over two caller
threads instead.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import pmskew
import pmskew.cli

# The paper's six power-study alternatives, as CLI spec strings.
ALTERNATIVES = (
    "beta:2,1",
    "beta:3,2",
    "weibull:2",
    "gamma:3",
    "gamma:2",
    "lognormal:0,0.5",
)
LEVELS = (0.01, 0.05, 0.10, 0.20)
SCALAR_FAMILIES = ("normal",) + ALTERNATIVES
SCALAR_N_RANGE = (8, 5000)


@dataclass
class Op:
    label: str  # names the result; equal labels must give equal digests
    kind: str  # the operation type, e.g. "calibrate" or "power:json"
    samples: int  # samples the user asked to have tested
    call: Callable[[int], Any]  # threads -> raw result, or raises
    canon: Callable[[Any], bytes]  # raw result -> canonical bytes


@dataclass
class Job:
    ops: list[Op]

    @property
    def samples(self) -> int:
        return sum(op.samples for op in self.ops)


def derive_seed(*parts) -> int:
    """A 32-bit pmskew seed fixed by the workload seed, phase and job index."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# canonical forms of results


def _canon_calibration(row) -> bytes:
    return _dump(
        {
            "levels": _hexes(row.levels),
            "rates": _hexes(row.rejection_rates),
            "undefined": int(row.undefined_count),
        }
    )


def _canon_histogram(h) -> bytes:
    return _dump(
        {
            "edges": _hexes(h.bin_edges),
            "counts": [int(c) for c in h.counts],
            "out_of_range": int(h.out_of_range),
        }
    )


def _canon_moments(mv) -> bytes:
    return _dump(
        {
            "rows": [
                [r.quantity] + _hexes((r.empirical, r.series, r.se))
                for r in mv.rows
            ],
            "undefined": int(mv.undefined_count),
        }
    )


def _canon_power(cell) -> bytes:
    return _dump(
        {
            str(t): [float(p).hex(), int(cell.undefined_counts[t])]
            for t, p in cell.powers.items()
        }
    )


def _canon_tests(results) -> bytes:
    return _dump(
        [
            [str(r.test_name), bool(r.defined)]
            + _hexes((r.raw_statistic, r.z_value, r.p_value))
            for r in results
        ]
    )


def _csv_cell(value) -> str:
    # the CLI's CSV cell rule: ints verbatim, floats at 6 significant digits
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def _json_as_csv(text: str) -> str:
    """The CSV bytes `pmskew power` prints for the same rows as a JSON
    document, so that both formats are checked against one digest."""
    doc = json.loads(text)
    rows = doc["rows"]
    header = list(rows[0]) if rows else []
    lines = [f"# seed={doc['seed']}", ",".join(header)]
    lines += [",".join(_csv_cell(r[h]) for h in header) for r in rows]
    return "\n".join(lines) + "\n"


def _canon_cli(fmt: str):
    def canon(result) -> bytes:
        _, text = result
        return (_json_as_csv(text) if fmt == "json" else text).encode()

    return canon


# ---------------------------------------------------------------------------
# operations


def _cli_call(argv: list[str]):
    def call(threads: int):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = pmskew.cli.main(argv + ["--threads", str(threads)])
        if code != 0:
            raise CliExitError(f"exit code {code}")
        return code, out.getvalue()

    return call


class CliExitError(Exception):
    """`pmskew.cli.main` returned a nonzero exit code."""


def run_scalar_tests(x, tracer=None):
    """Sample() and the four scalar tests on one data vector, each call
    into pmskew in its own span when a tracer is given."""
    if tracer is None:
        s = pmskew.Sample(x)
        return [
            pmskew.spms_test(s),
            pmskew.sqrt_b1_test(s),
            pmskew.shapiro_wilk_test(s),
            pmskew.lin_mudholkar_test(s),
        ]
    span = tracer.call
    s = span("moments.sample", pmskew.Sample, x)
    return [
        span("skewtests.spms_test", pmskew.spms_test, s),
        span("skewtests.sqrt_b1_test", pmskew.sqrt_b1_test, s),
        span("skewtests.shapiro_wilk_test", pmskew.shapiro_wilk_test, s),
        span("skewtests.lin_mudholkar_test", pmskew.lin_mudholkar_test, s),
    ]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base class. `caller_threads` is True when threads=2 means two
    threads calling pmskew rather than pmskew's own threads parameter;
    `probe_kind` names the speed probe (see probe.py)."""

    name = ""
    why = ""
    caller_threads = False
    probe_kind = "interp"
    setup_ns: tuple[int, ...] = ()
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.sizes[size]

    def job(self, tag: str, k: int, tracer=None) -> Job:
        raise NotImplementedError


class NullSuite(Workload):
    name = "null_suite"
    why = (
        "calibrate, z histogram and moment validation at n=100: stream setup "
        "and the per-row draw loop dominate, the kernels are cheap"
    )
    setup_ns = (100,)
    sizes = {"full": {"n": 100, "reps": 16384}, "tiny": {"n": 100, "reps": 4160}}

    def job(self, tag, k, tracer=None):
        n, reps = self.size["n"], self.size["reps"]
        s = derive_seed(self.name, self.seed, tag, k)
        where = f"n={n} reps={reps} seed={s}"
        return Job(
            [
                Op(
                    f"calibrate {where}",
                    "calibrate",
                    reps,
                    lambda t: pmskew.calibrate(n, reps, LEVELS, s, threads=t),
                    _canon_calibration,
                ),
                Op(
                    f"hist z {where}",
                    "hist",
                    reps,
                    lambda t: pmskew.null_histogram("z", n, reps, 60, s, threads=t),
                    _canon_histogram,
                ),
                Op(
                    f"moments {where}",
                    "moments",
                    reps,
                    lambda t: pmskew.moment_validation(n, reps, s, threads=t),
                    _canon_moments,
                ),
            ]
        )


class PowerN1000(Workload):
    name = "power_n1000"
    why = (
        "one lognormal power cell at n=1000 with asymptotic criticals: the "
        "moment and test kernels dominate and the null pool is bypassed"
    )
    setup_ns = (1000,)
    probe_kind = "array"
    sizes = {"full": {"n": 1000, "reps": 8192}, "tiny": {"n": 1000, "reps": 4160}}

    def job(self, tag, k, tracer=None):
        n, reps = self.size["n"], self.size["reps"]
        s = derive_seed(self.name, self.seed, tag, k)
        alt = pmskew.AlternativeSpec.parse("lognormal:0,0.5")
        return Job(
            [
                Op(
                    f"power lognormal:0,0.5 n={n} reps={reps} seed={s}",
                    "power",
                    reps,
                    lambda t: pmskew.power_study(
                        alt,
                        n,
                        reps,
                        0.05,
                        seed=s,
                        threads=t,
                        critical_values="asymptotic",
                    ),
                    _canon_power,
                )
            ]
        )


class PowerTable(Workload):
    name = "power_table"
    why = (
        "the paper's power table through the CLI, six alternatives at n=20,50 "
        "with simulated criticals: 12 cells share 2 null pools"
    )
    setup_ns = (20, 50)
    sizes = {
        "full": {"ns": "20,50", "reps": 1024, "null_reps": 8192},
        "tiny": {"ns": "20,50", "reps": 64, "null_reps": 4160},
    }
    # CSV for even alternatives, JSON for odd ones
    formats = ("csv", "json")

    def job(self, tag, k, tracer=None):
        size = self.size
        s = derive_seed(self.name, self.seed, tag, k)
        ops = []
        for i, alt in enumerate(ALTERNATIVES):
            fmt = self.formats[i % len(self.formats)]
            argv = [
                "power",
                "--alt",
                alt,
                "--n",
                size["ns"],
                "--reps",
                str(size["reps"]),
                "--null-reps",
                str(size["null_reps"]),
                "--seed",
                str(s),
                "--format",
                fmt,
            ]
            call = _cli_call(argv)
            if tracer is not None:
                call = _traced_cli(call, tracer)
            ops.append(
                Op(
                    f"power {alt} n={size['ns']} reps={size['reps']} "
                    f"null_reps={size['null_reps']} seed={s}",
                    f"power:{fmt}",
                    size["reps"] * len(size["ns"].split(",")),
                    call,
                    _canon_cli(fmt),
                )
            )
        return Job(ops)


def _traced_cli(call, tracer):
    def traced(threads):
        try:
            return tracer.call("cli.main", call, threads)
        except Exception:
            # a traceback out of the real entry point exits nonzero too
            tracer.count("cli.exit_nonzero")
            raise

    return traced


class ScalarTests(Workload):
    name = "scalar_tests"
    why = (
        "distinct samples, n log-spread over 8..5000, from normal and the six "
        "alternatives, each through Sample() and the four scalar tests"
    )
    caller_threads = True
    setup_ns = SCALAR_N_RANGE
    sizes = {"full": {"pool": 4096, "batch": 256}, "tiny": {"pool": 64, "batch": 64}}

    def __init__(self, seed, size):
        super().__init__(seed, size)
        rng = np.random.Generator(np.random.PCG64(derive_seed(self.name, seed)))
        lo, hi = (math.log(v) for v in SCALAR_N_RANGE)
        self.pool = []
        for i in range(self.size["pool"]):
            family = SCALAR_FAMILIES[i % len(SCALAR_FAMILIES)]
            n = min(int(math.exp(rng.uniform(lo, hi))), SCALAR_N_RANGE[1])
            self.pool.append((family, _draw(rng, family, max(n, 8))))

    def job(self, tag, k, tracer=None):
        # the pool is fixed by the seed; jobs walk it cyclically
        batch, pool = self.size["batch"], self.pool
        ops = []
        for j in range(k * batch, (k + 1) * batch):
            i = j % len(pool)
            family, x = pool[i]
            ops.append(
                Op(
                    f"sample {i} {family} n={x.size}",
                    "scalar",
                    1,
                    lambda t, x=x: run_scalar_tests(x, tracer),
                    _canon_tests,
                )
            )
        return Job(ops)


def _draw(rng, family: str, n: int) -> np.ndarray:
    name, _, params = family.partition(":")
    p = [float(v) for v in params.split(",")] if params else []
    if name == "normal":
        return rng.standard_normal(n)
    if name == "beta":
        return rng.beta(p[0], p[1], n)
    if name == "gamma":
        return rng.gamma(p[0], 1.0, n)
    if name == "weibull":
        return rng.weibull(p[0], n)
    return rng.lognormal(p[0], p[1], n)


WORKLOADS = {w.name: w for w in (NullSuite, PowerN1000, PowerTable, ScalarTests)}
