"""The exported names: every `__all__` entry resolves, once."""

import importlib
import pkgutil

import pytest

import pmskew

MODULES = sorted(m.name for m in pkgutil.iter_modules(pmskew.__path__))


def test_package_exports_resolve_without_duplicates():
    missing = [name for name in pmskew.__all__ if not hasattr(pmskew, name)]
    assert missing == []
    assert len(set(pmskew.__all__)) == len(pmskew.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"pmskew.{module}")
    names = getattr(mod, "__all__", ())  # errors has none; pmskew's covers it
    assert [name for name in names if not hasattr(mod, name)] == []
