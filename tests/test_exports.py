"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import compoplab


def test_every_module_all_resolves():
    modules = [info.name for info in pkgutil.iter_modules(compoplab.__path__)]
    assert modules
    for name in modules:
        module = importlib.import_module(f"compoplab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"compoplab.{name}.__all__ names missing attributes: {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(Path(compoplab.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"compoplab.{module}"), name), (module, name)
        assert hasattr(compoplab, name), name
