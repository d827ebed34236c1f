"""Every public name resolves: each ``prunepose`` module's ``__all__`` and
each name the package root re-exports. Every module uses what it imports,
and every private module-level name is used somewhere in the package."""

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


def _unused_imports(path: Path) -> list:
    """Names a module binds by ``import`` that it never reads; ``__all__``
    entries count as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# MODULES leaves out the package root, whose imports are its re-exports
@pytest.mark.parametrize("module_name", MODULES)
def test_every_import_is_used(module_name):
    unused = _unused_imports(Path(importlib.import_module(module_name).__file__))
    assert not unused, f"{module_name} imports names it never uses: {unused}"


def _private_definitions(tree) -> list:
    """Module-level ``_name`` functions, classes and constants, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(prunepose.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]
    assert not dead, f"private names defined but never used: {dead}"


def _called_name(node) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_bias_added_after_matmul():
    """An affine layer passes its bias to ``matmul``: ``add(matmul(...), ...)``
    would spend a second node and a second tape array on it."""
    found = []
    for path in sorted(Path(prunepose.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and _called_name(node) == "add" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and _called_name(node.args[0]) == "matmul"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"add(matmul(...), ...) instead of matmul(..., bias): {found}"
