"""The package's public names: every name ``sparqlsim.__all__`` lists is
defined, so a stale export fails here rather than at a user's
``from sparqlsim import *``.

The list is exactly what the harness under ``perfbench/`` and the README
use from the package root: every name perfbench imports from ``sparqlsim``
is exported, so trimming one fails here and not as a failed benchmark run,
and every exported name is imported by perfbench or named in the README's
"Library" section, so the list cannot grow back. perfbench's sources are
parsed, not executed. The README's "Generate a small dataset" snippet, the
other README code that imports from the package root, runs as written."""

import ast
import re

import sparqlsim
from sparqlsim import WorkloadSpec, generate, parse_ntriples

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_resolves():
    missing = [name for name in sparqlsim.__all__ if not hasattr(sparqlsim, name)]
    assert missing == []


def root_imports(source: str) -> set[str]:
    """The names ``source`` imports ``from sparqlsim``, at any depth."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "sparqlsim"
            for alias in node.names}


def test_the_check_sees_a_root_import():
    source = ("from sparqlsim import a, b\nfrom sparqlsim.ops import c\n"
              "def f():\n    from sparqlsim import d\n")
    assert root_imports(source) == {"a", "b", "d"}


def _perfbench_imports() -> set[str]:
    return set().union(*(root_imports(path.read_text(encoding="utf-8"))
                         for path in sorted((REPO_ROOT / "perfbench").glob("*.py"))))


def _library_section() -> str:
    return README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_perfbench_imports_only_exported_names():
    imported = _perfbench_imports()
    assert imported
    assert sorted(imported - set(sparqlsim.__all__)) == []


def test_every_exported_name_is_used_by_perfbench_or_the_readme():
    used = _perfbench_imports() | set(re.findall(r"\w+", _library_section()))
    assert sorted(set(sparqlsim.__all__) - used) == []


def test_readme_dataset_snippet_runs_as_written(tmp_path, monkeypatch):
    block = README.split("Generate a small dataset", 1)[1]
    code = re.search(r"python3 - <<'EOF'\n(.*?)\nEOF\n", block, re.S).group(1)
    assert "from sparqlsim import" in code
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    written = (tmp_path / "university.nt").read_text(encoding="utf-8")
    expected = generate(WorkloadSpec(name="uni", shape="snowflake",
                                     pattern_count=5, subject_count=600))
    assert parse_ntriples(written) == expected.triples
    assert len(expected.triples) == 2458    # the `load` example's count
