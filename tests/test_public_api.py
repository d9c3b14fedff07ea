"""The exported names: every `__all__` entry resolves, once, and each is
declared in one module's `__all__` only."""

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
