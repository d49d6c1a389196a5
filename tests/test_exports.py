import importlib
import pkgutil

import pytest

import pathhjb

MODULES = ["pathhjb"] + sorted(f"pathhjb.{m.name}" for m in pkgutil.iter_modules(pathhjb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a stale entry would break `from <name> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
