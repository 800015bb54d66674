"""Every exported name resolves, so a deletion cannot leave a stale export,
every exported name or public class member has a caller, every dataclass
field is read, and every defaulted field is set by some caller, so nothing
is exported, defined, stored or made optional that nothing runs."""

import ast
import importlib
import pkgutil
from collections import Counter
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


def _public_members(tree: ast.AST) -> set:
    """(class, name) of every public method or property a module's classes define."""
    return {
        (cls.name, node.name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def test_every_package_export_has_a_caller():
    used = set().union(*(_used_names(p) for p in _caller_sources()))
    uncalled = sorted({name for _, name in _package_imports()} - used)
    assert not uncalled, f"exported but never called in src/, acceptance or perfbench/: {uncalled}"


# Methods or properties whose name another class shares that are read only
# through an object whose class the AST cannot see (the region or symbol
# protocols): the function that reads each.
SHARED_MEMBER_READS = {
    **{
        (cls, "far_scores"): "wos_harmonic_measures"
        for cls in ("DiskRegion", "HalfPlaneRegion", "GraphChannel")
    },
    **{
        (cls, name): "_absorb_and_compact"
        for cls in ("DiskRegion", "HalfPlaneRegion", "GraphChannel")
        for name in ("far_mask", "distance_vector")
    },
    **{(cls, "strip_image"): "kernel_lower_bound" for cls in ("Symbol", "Lens", "ShapiroTaylor")},
    **{
        (cls, "real_coefficients"): "_grid_power_columns"
        for cls in ("Symbol", "Compose", "ExplicitSeries")
    },
}


def test_every_public_class_member_has_a_caller():
    uncalled = _unread(
        set().union(*(_public_members(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py"))),
        [ast.parse(p.read_text()) for p in _caller_sources()],
        SHARED_MEMBER_READS,
    )
    assert not uncalled, f"defined but never used in src/, acceptance or perfbench/: {uncalled}"


def test_a_shared_member_name_needs_a_read_through_its_own_class():
    # B.area shares its name with A.area; A's `self.area` read, and one of
    # `.area` on an object of no known class, do not count for B's
    tree = ast.parse(
        "class A:\n"
        "    def area(self):\n"
        "        return 1\n"
        "    def _twice(self):\n"
        "        return 2 * self.area()\n"
        "class B:\n"
        "    def area(self):\n"
        "        return 2\n"
        "def total(shapes):\n"
        "    return sum(shape.area() for shape in shapes)\n"
    )
    assert _unread(_public_members(tree), [tree], {}) == ["B.area"]
    assert _unread(_public_members(tree), [tree], {("B", "area"): "total"}) == []


def _dataclasses(tree: ast.AST) -> list:
    return [
        cls
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in cls.decorator_list
        )
    ]


def _annotated_fields(cls: ast.ClassDef) -> list:
    return [
        node
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _dataclass_fields(tree: ast.AST) -> set:
    """(class, field) of every annotated field of a module's dataclasses,
    except in a module that calls `asdict`: those are written out whole
    (the run manifest), so every field is read."""
    if any(isinstance(node, ast.Name) and node.id == "asdict" for node in ast.walk(tree)):
        return set()
    return {
        (cls.name, node.target.id)
        for cls in _dataclasses(tree)
        for node in _annotated_fields(cls)
    }


def _attribute_loads(tree: ast.AST) -> set:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _scoped_loads(tree: ast.AST) -> set:
    """(class, attribute) of every `self.<attribute>` read in a class body,
    and (function, attribute) of every attribute read in a function."""
    loads = set()
    for scope in ast.walk(tree):
        if isinstance(scope, ast.ClassDef):
            loads |= {
                (scope.name, node.attr)
                for node in ast.walk(scope)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) == "self"
            }
        elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            loads |= {(scope.name, attr) for attr in _attribute_loads(scope)}
    return loads


def _unread(attributes: set, caller_trees, shared_reads) -> list:
    """The (class, name) attributes nothing reads.  One with a name of its own
    is read by any `.name` load; one whose name another class in `attributes`
    shares needs a `self.name` read in its own class, or one in the function
    that `shared_reads` names for it."""
    assert attributes
    by_name = Counter(name for _, name in attributes)
    shared = {a for a in attributes if by_name[a[1]] > 1}
    stale = sorted(set(shared_reads) - shared)
    assert not stale, f"shared reads listed for attributes whose name is not shared: {stale}"
    read = set().union(*(_attribute_loads(t) for t in caller_trees))
    scoped = set().union(*(_scoped_loads(t) for t in caller_trees))

    def is_read(cls, name):
        if (cls, name) not in shared:
            return name in read
        return (cls, name) in scoped or (shared_reads.get((cls, name)), name) in scoped

    return sorted(f"{cls}.{name}" for cls, name in attributes if not is_read(cls, name))


def test_every_dataclass_field_is_read():
    unread = _unread(
        set().union(*(_dataclass_fields(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py"))),
        [ast.parse(p.read_text()) for p in _caller_sources()],
        {},
    )
    assert not unread, f"dataclass fields never read in src/, acceptance or perfbench/: {unread}"


def test_a_shared_field_name_needs_a_read_through_its_own_class():
    # B.size shares its name with A.size; reads of A's field, and of a
    # `.size` on an object of no known class, do not count for B's
    tree = ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    size: int\n"
        "    def area(self):\n"
        "        return self.size ** 2\n"
        "@dataclass\n"
        "class B:\n"
        "    size: int\n"
        "def total(items):\n"
        "    return sum(item.size for item in items)\n"
    )
    assert _unread(_dataclass_fields(tree), [tree], {}) == ["B.size"]
    assert _unread(_dataclass_fields(tree), [tree], {("B", "size"): "total"}) == []


def _unset_defaulted_fields(field_trees, caller_trees) -> list:
    """Defaulted dataclass fields that no call of their class name passes,
    by position or by keyword: options nothing sets to a second value."""
    defaulted = {}
    for tree in field_trees:
        for cls in _dataclasses(tree):
            defaulted[cls.name] = [
                (i, node.target.id)
                for i, node in enumerate(_annotated_fields(cls))
                if node.value is not None
            ]
    passed = set()
    for tree in caller_trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaulted:
                continue
            positional = len(call.args)
            keywords = {kw.arg for kw in call.keywords}
            passed |= {
                (name, field)
                for i, field in defaulted[name]
                if i < positional or field in keywords or None in keywords
            }
    return sorted(
        f"{cls}.{field}"
        for cls, fields in defaulted.items()
        for _, field in fields
        if (cls, field) not in passed
    )


def test_every_defaulted_field_is_set_by_some_caller():
    unset = _unset_defaulted_fields(
        [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")],
        [ast.parse(p.read_text()) for p in _caller_sources()],
    )
    assert not unset, (
        f"defaulted dataclass fields no caller in src/, acceptance or perfbench/ sets "
        f"(make them constants): {unset}"
    )


def test_a_defaulted_field_counts_as_set_by_position_or_keyword():
    tree = ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n"
        "    w: int = 0\n"
        "A(1, 2)\n"
        "mod.A(1, z=3)\n"
    )
    assert _unset_defaulted_fields([tree], [tree]) == ["A.w"]
