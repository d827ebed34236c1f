"""Every public name resolves: each ``prunepose`` module's ``__all__`` and
each name the package root re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import prunepose

MODULES = sorted(f"prunepose.{m.name}" for m in pkgutil.iter_modules(prunepose.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(prunepose.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"prunepose.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(prunepose, name) is getattr(source, alias.name), name
