"""Every exported name resolves.

``from dropshock.<module> import *`` fails on a name in ``__all__`` that the
module no longer defines, and each public name of the package must be the
object that one of the modules exports under that name.
"""

import importlib
import pkgutil
import types

import pytest

import dropshock as ds

MODULES = [m.name for m in pkgutil.iter_modules(ds.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    namespace = {}
    exec(f"from dropshock.{name} import *", namespace)
    module = importlib.import_module(f"dropshock.{name}")
    assert [n for n in module.__all__ if n not in namespace] == []


def test_package_names_are_exported():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"dropshock.{name}")
        exported.update((n, getattr(module, n)) for n in module.__all__)
    public = [n for n in dir(ds) if not n.startswith("_") and not isinstance(getattr(ds, n), types.ModuleType)]
    assert public
    for n in public:
        assert n in exported and exported[n] is getattr(ds, n), n
