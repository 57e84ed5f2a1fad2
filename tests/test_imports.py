"""Tooling: every module of the package and every test module uses each
name it imports, so a refactor that moves or deletes a collaborator cannot
leave its import behind. An import line marked ``# noqa: F401`` is a
deliberate re-export and is exempt; the package's ``__init__.py`` is all
re-exports and is skipped."""

import ast

import pytest

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
