"""The perf harness's spans wrap names the program still defines: every
(module, name) pair in ``perfbench/tracer.py``'s ``TARGETS`` resolves to a
callable, so a refactor that drops a wrapped name fails here and not only
in ``perfbench/run.py --trace 1``. The tracer's source is parsed, not
executed, so nothing under ``perfbench/`` is written."""

import ast
import importlib

import pytest

from conftest import REPO_ROOT


def _traced_names() -> list[tuple[str, str]]:
    source = (REPO_ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return [(module, name) for module, names in ast.literal_eval(node.value)
                    for name in names]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module_name, name", _traced_names(),
                         ids=lambda part: part)
def test_traced_name_resolves_to_a_callable(module_name, name):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, name, None)), f"{module_name}.{name}"
