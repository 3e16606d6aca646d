import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fwflow

MODULES = ["fwflow"] + [f"fwflow.{m.name}" for m in pkgutil.iter_modules(fwflow.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    # a deletion must not leave a dead name behind in __all__
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("path", sorted(Path(fwflow.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_rebinds_an_outer_name(path):
    # a routine bound at run time lives on the object that calls it, not in a global that a
    # function rebinds, so what a module holds is what its source says at import
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert not lines, f"{path.name} has a global or nonlocal statement at lines {lines}"
