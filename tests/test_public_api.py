"""The exported names: every `__all__` entry resolves, once, and each is
declared in one module's `__all__` only; every public function's parameter
names are pinned. Also the package's functools caches, each kept for a
measured gain, and its imports, each used, exported or wrapped by the
benchmark's tracer, none of them scipy's."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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


# the parameter names of every public function, in order: adding, dropping
# or renaming one is a change of the public API, declared with this table
SIGNATURES = {
    "central_moments": ("sample",),
    "spms_statistic": ("summary",),
    "spms_series": ("state",),
    "spms_test": ("sample",),
    "population_pms": ("sqrt_beta1", "beta2"),
    "sqrt_b1_test": ("sample",),
    "shapiro_wilk_test": ("sample",),
    "lin_mudholkar_test": ("sample",),
    "lambda2": ("n",),
    "lambda4": ("n",),
    "beta2_spms": ("n",),
    "su_params": ("n", "series"),
    "sample": ("spec", "n", "stream"),
    "draw_values": ("spec", "n", "rng"),
    "population_moments": ("spec",),
    "calibrate": ("n", "reps", "levels", "seed", "threads"),
    "calibrate_curve": ("ns", "reps", "levels", "seed", "threads"),
    "power_curve": (
        "alternative", "ns", "reps", "level", "tests", "seed", "threads",
        "critical_values", "null_reps",
    ),
    "power_study": (
        "alternative", "n", "reps", "level", "tests", "seed", "threads",
        "critical_values", "null_reps",
    ),
    "null_histogram": (
        "statistic", "n", "reps", "bins", "seed", "threads", "value_range",
    ),
    "moment_validation": ("n", "reps", "seed", "threads"),
}


def test_public_signatures():
    got = {
        name: tuple(inspect.signature(obj).parameters)
        for name in pmskew.__all__
        for obj in [getattr(pmskew, name)]
        if inspect.isfunction(obj)
    }
    assert got == SIGNATURES


def test_parse_error_is_a_plain_pmskew_error():
    # the message carries the line ("line k: ..."); no line attribute
    assert "__init__" not in vars(errors.ParseError)
    assert not hasattr(errors.ParseError("line 3: not a number: 'x'"), "line")
    with pytest.raises(TypeError):
        errors.ParseError("line 3: not a number: 'x'", line=3)


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
    record per n in its own store (_store: su and b1, the S_U transforms
    of spms and sqrt(b1); sw, the Shapiro-Wilk lower-half weights and z
    constants; lm_scale, Lin-Mudholkar's scale): every n up to 5000 is
    kept, never evicted (51.9 MiB if all 4,993 are met), and the latest
    larger n in one slot, because scalar_tests' n log-spread over 8..5000
    missed a 64-entry LRU on 84% of calls. Keeping the weights alone took that workload from
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


def _traced_names() -> set[tuple[str, str]]:
    """(module, name) of every pmskew name bench/tracing.py's Tracer wraps."""
    spec = importlib.util.spec_from_file_location("pmskew_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {
        (modname.rpartition(".")[2], attr)
        for _, modname, attr, _ in tracing.Tracer()._patches()
    }


def _parse(module):
    """pmskew.<module> and the AST of its source."""
    mod = importlib.import_module(f"pmskew.{module}")
    return mod, ast.parse(Path(mod.__file__).read_text(), mod.__file__)


def _unused_imports(module) -> list[str]:
    """The names pmskew.<module> imports but neither uses nor lists in
    its __all__."""
    mod, tree = _parse(module)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*"
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(getattr(mod, "__all__", ())))


@pytest.mark.parametrize("module", MODULES)
def test_every_unused_import_is_a_tracer_shim(module):
    """A module imports only names it uses or exports, and the names the
    benchmark's tracer wraps there (today montecarlo's draw_values and
    su_params, and skewtests' central_moment_arrays). When the tracer
    stops wrapping one, this names the import to delete."""
    shims = _traced_names()
    assert [n for n in _unused_imports(module) if (module, n) not in shims] == []


def _imports(module) -> list[str]:
    """The dotted names pmskew.<module> imports, read from its AST: each
    module it imports and each name it imports from one; a relative
    import is one from pmskew."""
    _, tree = _parse(module)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = ["pmskew"] * bool(node.level) + [node.module] * bool(node.module)
            names += [".".join([*parts, alias.name]) for alias in node.names]
    return names


def _pmskew_imports(module) -> set[str]:
    """The pmskew modules that pmskew.<module> imports from."""
    names = _imports(module)
    return {name.split(".")[1] for name in names if name.startswith("pmskew.")}


@pytest.mark.parametrize("module", ["moments", "su_transform", "skewtests"])
def test_statistics_core_does_not_import_the_sampler(module):
    # the argument rules live in errors, so the statistic and its S_U
    # transform need nothing from the variate sampler
    assert "distributions" not in _pmskew_imports(module)


@pytest.mark.parametrize("module", ["errors", "normal"])
def test_leaf_module_imports_no_pmskew_module(module):
    # errors owns the argument rules every other module uses; normal's
    # bits depend on nothing but math, numpy and its own arithmetic
    assert _pmskew_imports(module) == set()


def test_a_bad_argument_raises_one_exception_family():
    assert issubclass(errors.InvalidLevelError, errors.InvalidParamsError)
    assert "InvalidConfigError" not in errors.__all__


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: scipy serves the tests alone
    src = str(Path(pmskew.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, pmskew, pmskew.cli\n"
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    assert [name for name in _imports(module) if name.split(".")[0] == "scipy"] == []
