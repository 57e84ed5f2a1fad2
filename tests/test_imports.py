"""Tooling: every module of the package and every test module uses each
name it imports, so a refactor that moves or deletes a collaborator cannot
leave its import behind. An import line marked ``# noqa: F401`` is a
deliberate re-export and is exempt; the package's ``__init__.py`` is all
re-exports and is skipped.

Every module-level function, class and assignment of the package is read
somewhere in the package or exported in ``sparqlsim.__all__``, so a helper
whose last caller is deleted cannot stay behind for the tests alone.

Every annotated field of a package class is read as an attribute somewhere
in ``src/``, ``tests/`` or ``perfbench/``, so a field that is only ever set
cannot stay behind. NamedTuples are exempt: they are unpacked, not read by
field name.

Every method and property of a package class, dunders excepted, is read as
an attribute somewhere in ``src/`` or ``perfbench/``, so a method that only
the tests call cannot stay in the package."""

import ast
from typing import Callable

import pytest

import sparqlsim

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "sparqlsim"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted((REPO_ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, each with its line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_name():
    source = ("import os\nfrom typing import Callable, Sequence\n"
              "from x import y  # noqa: F401\n"
              "def f(s: Sequence) -> None:\n    os.getcwd()\n")
    assert unused_imports(source) == ["Callable (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: (
    p.name if p.parent == PACKAGE else f"tests/{p.name}"))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_definitions(source: str) -> list[tuple[str, int]]:
    """The names ``source`` defines at module level, each with its line:
    functions, classes and assignment targets, dunder names excepted."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend((name.id, node.lineno) for target in targets
                           for name in ast.walk(target) if isinstance(name, ast.Name))
    return [(name, line) for name, line in defined
            if not (name.startswith("__") and name.endswith("__"))]


def names_read(source: str) -> set[str]:
    """Every name ``source`` loads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The module-level definitions in ``sources`` (module name to text)
    that no source reads and ``exported`` does not list."""
    read = set().union(*map(names_read, sources.values()))
    return [f"{module}: {name} (line {line})" for module, source in sources.items()
            for name, line in module_definitions(source)
            if name not in read and name not in exported]


def test_the_check_sees_an_unread_definition():
    sources = {"a": "X = 1\nY, Z = 2, 3\ndef f():\n    return X\n"
                    "class C:\n    pass\n__all__ = ['C']\n",
               "b": "import a\na.Y\n"}
    assert unread_definitions(sources, {"C"}) == ["a: Z (line 2)", "a: f (line 3)"]


def test_every_package_definition_is_read_or_exported():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_definitions(sources, set(sparqlsim.__all__)) == []


def annotated_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) of each annotated field of a class in
    ``source``, NamedTuples excepted."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or any(
                isinstance(base, ast.Name) and base.id == "NamedTuple"
                for base in node.bases):
            continue
        fields.extend((node.name, stmt.target.id, stmt.lineno) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name))
    return fields


def attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def class_methods(source: str) -> list[tuple[str, str, int]]:
    """(class, method, line) of each method and property of a class in
    ``source``, dunders excepted."""
    methods = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            methods.extend((node.name, stmt.name, stmt.lineno) for stmt in node.body
                           if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (stmt.name.startswith("__")
                                    and stmt.name.endswith("__")))
    return methods


def unread_members(sources: dict[str, str], readers: list[str],
                   members: Callable[[str], list[tuple[str, str, int]]]) -> list[str]:
    """The class members of ``sources`` (module name to text) that
    ``members`` lists, :func:`annotated_fields` or :func:`class_methods`,
    and that no text in ``readers`` reads as an attribute."""
    read = set().union(*map(attributes_read, readers))
    return [f"{module}: {cls}.{name} (line {line})"
            for module, source in sources.items()
            for cls, name, line in members(source) if name not in read]


def test_the_check_sees_an_unread_field():
    source = ("from typing import NamedTuple\n"
              "class C:\n    a: int\n    b: int\n    def f(self):\n"
              "        self.b = 1\n"
              "class T(NamedTuple):\n    c: int\n")
    assert unread_members({"m": source}, [source, "x.a\n"], annotated_fields) \
        == ["m: C.b (line 4)"]


def test_every_package_field_is_read():
    readers = [path.read_text(encoding="utf-8")
               for tree in ("src", "tests", "perfbench")
               for path in sorted((REPO_ROOT / tree).rglob("*.py"))]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_members(sources, readers, annotated_fields) == []


def test_the_check_sees_an_unread_method():
    source = ("class C:\n    def __init__(self):\n        self.f()\n"
              "    def f(self):\n        pass\n"
              "    @property\n    def g(self):\n        return 1\n"
              "    @classmethod\n    def h(cls):\n        pass\n")
    assert unread_members({"m": source}, [source, "x.g\n"], class_methods) \
        == ["m: C.h (line 10)"]


def test_every_package_method_is_read():
    readers = [path.read_text(encoding="utf-8")
               for tree in ("src", "perfbench")
               for path in sorted((REPO_ROOT / tree).rglob("*.py"))]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_members(sources, readers, class_methods) == []
