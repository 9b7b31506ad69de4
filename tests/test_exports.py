"""Every module's ``__all__`` names exactly what it defines publicly."""

import importlib
import inspect
import pkgutil

import pytest

import mspde

MODULES = sorted(info.name for info in pkgutil.iter_modules(mspde.__path__, "mspde."))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(name)
    exported = set(module.__all__)
    assert sorted(n for n in exported if not hasattr(module, n)) == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name}
    assert sorted(defined - exported) == []
