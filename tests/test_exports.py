"""Every name a module exports through __all__ resolves."""

import importlib
import pkgutil

import pytest

import obmstop

MODULES = ["obmstop"] + [
    f"obmstop.{info.name}" for info in pkgutil.iter_modules(obmstop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
