"""Every name in an `__all__` of betakotz resolves, so `import *` works."""

import importlib
import pkgutil

import pytest

import betakotz

MODULES = ["betakotz"] + [
    f"betakotz.{m.name}" for m in pkgutil.iter_modules(betakotz.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
