"""The exported names: every `__all__` entry resolves, once, and each is
declared in one module's `__all__` only. Also the package's functools
caches, each kept for a measured gain."""

import importlib
import inspect
import pkgutil

import pytest

import pmskew
from pmskew import (
    distributions,
    errors,
    moments,
    montecarlo,
    skewtests,
    su_transform,
)

MODULES = sorted(m.name for m in pkgutil.iter_modules(pmskew.__path__))


def test_package_exports_resolve_without_duplicates():
    missing = [name for name in pmskew.__all__ if not hasattr(pmskew, name)]
    assert missing == []
    assert len(set(pmskew.__all__)) == len(pmskew.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"pmskew.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []


def test_package_exports_are_its_modules_exports():
    assert pmskew.__all__ == [
        "__version__",
        *moments.__all__,
        *skewtests.__all__,
        *su_transform.__all__,
        *distributions.__all__,
        *montecarlo.__all__,
        *errors.__all__,
    ]


def test_errors_exports_every_exception_it_defines():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj)
        and issubclass(obj, BaseException)
        and obj.__module__ == errors.__name__
    }
    assert sorted(errors.__all__) == sorted(defined)


def test_functools_caches_are_the_ones_that_pay():
    """A pmskew module defines exactly these functools caches, each kept
    for a measured gain:
    - montecarlo._null_runs: acceptance criterion 3 went from 5.3 to
      0.03 s with it, and the power table builds one null pool per job;
    - cli.build_parser: an uncached parser build takes 1.43 ms, against
      about 5.5 ms for a warm `pmskew power --n 20,50 --reps 1024` call
      (best of 41 in-process runs, 2-vCPU x86-64 VM).
    The per-n constants are not a functools cache: skewtests keeps one
    record per n in its own store (_store: the S_U transform, sqrt(b1)'s
    constants, the Shapiro-Wilk lower-half weights and z constants,
    Lin-Mudholkar's scale), under a 16 MiB budget and with no eviction,
    because scalar_tests' n log-spread over 8..5000 missed a 64-entry LRU
    on 84% of calls. Keeping the weights alone took that workload from
    7,944 to 9,245 samples/s at threads=1 (peak RSS 107.4 to 117.2 MB,
    medians of 10 alternating 20 s bench pairs, better in 10/10); keeping
    the whole record, with numpy's error state entered once per kernel
    call, took it from 9,197 to 10,878 samples/s (medians of 11
    alternating 20 s pairs, better in 11/11; 2-vCPU x86-64 VM)."""
    cached = {
        f"{module}.{name}"
        for module in MODULES
        for name, obj in vars(importlib.import_module(f"pmskew.{module}")).items()
        if hasattr(obj, "cache_info") and obj.__module__ == f"pmskew.{module}"
    }
    assert cached == {
        "montecarlo._null_runs",
        "cli.build_parser",
    }
