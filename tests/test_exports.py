"""Every exported name resolves, so a deletion cannot leave a stale export,
every exported name or public class member has a caller, and every
dataclass field is read, so nothing is exported, defined or stored that
nothing runs."""

import ast
import importlib
import pkgutil
from pathlib import Path

import compoplab

PACKAGE = Path(compoplab.__file__).parent
ROOT = PACKAGE.parent.parent


def _package_imports():
    tree = ast.parse(Path(compoplab.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _used_names(path: Path) -> set:
    """Every name read or attribute taken in a file (not its definitions or imports)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_module_all_resolves():
    modules = [info.name for info in pkgutil.iter_modules(compoplab.__path__)]
    assert modules
    for name in modules:
        module = importlib.import_module(f"compoplab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"compoplab.{name}.__all__ names missing attributes: {missing}"


def test_every_package_import_resolves():
    imported = _package_imports()
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"compoplab.{module}"), name), (module, name)
        assert hasattr(compoplab, name), name


def _caller_sources():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return sources + [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]


def _public_members(path: Path) -> set:
    """(class, name) of every public method or property a file's classes define."""
    return {
        (cls.name, node.name)
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def test_every_package_export_has_a_caller():
    used = set().union(*(_used_names(p) for p in _caller_sources()))
    uncalled = sorted({name for _, name in _package_imports()} - used)
    assert not uncalled, f"exported but never called in src/, acceptance or perfbench/: {uncalled}"


def test_every_public_class_member_has_a_caller():
    members = set().union(*(_public_members(p) for p in PACKAGE.glob("*.py")))
    assert members
    used = set().union(*(_used_names(p) for p in _caller_sources()))
    uncalled = sorted(f"{cls}.{name}" for cls, name in members if name not in used)
    assert not uncalled, f"defined but never used in src/, acceptance or perfbench/: {uncalled}"


def _dataclass_fields(path: Path) -> set:
    """(class, field) of every annotated field of a file's dataclasses, except
    in a module that calls `asdict`: those are written out whole (the run
    manifest), so every field is read."""
    tree = ast.parse(path.read_text())
    if any(isinstance(node, ast.Name) and node.id == "asdict" for node in ast.walk(tree)):
        return set()
    return {
        (cls.name, node.target.id)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in cls.decorator_list
        )
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }


def _attribute_loads(path: Path) -> set:
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    fields = set().union(*(_dataclass_fields(p) for p in PACKAGE.glob("*.py")))
    assert fields
    read = set().union(*(_attribute_loads(p) for p in _caller_sources()))
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert not unread, f"dataclass fields never read in src/, acceptance or perfbench/: {unread}"
