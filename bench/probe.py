"""Machine-speed probes.

The 2-vCPU VM the benchmark was built on changes speed by up to 1.6x from
one second to the next, with CPU time equal to wall time, so it is not
descheduling. A probe is a fixed piece of work, written without pmskew,
that is timed right before and right after each operation of a Monte
Carlo job (each scalar job as a whole). A job's time is the sum of its
operations' times, each divided by the mean probe time over the probe's
reference time. Slowdowns hit interpreter-bound and array-bound code
differently, so each workload uses the probe that resembles the work that
dominates it.

On that VM, the spread (IQR/median) of ten runs' throughput reached 30%
unscaled, more than any bound; scaled, it stayed at 10% or less.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_INTERP_DATA = np.random.default_rng(0).standard_normal((256, 200))
_ARRAY_DATA = np.random.default_rng(1).standard_normal((128, 1000))


def _interp():
    # like stream setup and the per-row draw loop, plus small array calls
    for i in range(100):
        key = np.array([7, i], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(100)
    x = np.sort(_INTERP_DATA, axis=1)
    (x * x).mean(axis=1)


def _array():
    # like the batch statistic kernels on large samples
    x = np.sort(_ARRAY_DATA, axis=1)
    d = x - x.mean(axis=1, keepdims=True)
    np.einsum("ij,ij->i", d, d)
    np.cbrt(d)
    np.arcsinh(d)


# kind -> (work, its median seconds on an idle core of the reference VM)
KINDS = {"interp": (_interp, 0.0018), "array": (_array, 0.0016)}


def speed(kind: str) -> float:
    """Current probe time over its reference time (above 1: slower).

    The median of three repeats, so that neither one preempted repeat nor
    the first, cold-cache repeat after a pmskew call counts."""
    work, reference = KINDS[kind]
    times = []
    for _ in range(3):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return sorted(times)[1] / reference
