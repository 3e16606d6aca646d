import importlib
import pkgutil

import pytest

import fwflow

MODULES = ["fwflow"] + [f"fwflow.{m.name}" for m in pkgutil.iter_modules(fwflow.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # a deletion must not leave a dead name behind in __all__
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"
