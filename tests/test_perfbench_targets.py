"""The perf harness's spans wrap names the program still defines and
still calls: every (module, name) pair in ``perfbench/tracer.py``'s
``TARGETS`` resolves to a callable, and a small bench run calls it through
that module's name, so a refactor that drops a wrapped name, or routes the
execution path around it, fails here and not only as a per-layer figure of
``perfbench/run.py --trace 1`` reading 0. The tracer's source is parsed,
not executed, so nothing under ``perfbench/`` is written."""

import ast
import importlib
from collections import Counter

import pytest

from sparqlsim import BenchCase, STRATEGIES, WorkloadSpec, generate, run_bench

from conftest import REPO_ROOT

# Kept importable for the tracer but off the execution path: the adaptive
# planner runs its joins and projection through the executor.
NOT_CALLED = {("sparqlsim.hybrid", "pjoin"), ("sparqlsim.hybrid", "brjoin"),
              ("sparqlsim.hybrid", "project")}


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


def test_traced_names_are_called_by_a_bench_run(monkeypatch):
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, name in _traced_names():
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, name,
                            counted((module_name, name), getattr(module, name)))
    q8 = generate(WorkloadSpec(name="q8", shape="snowflake", pattern_count=5,
                               subject_count=60))
    report = run_bench([BenchCase("q8", "q8", q8.triples, q8.query)],
                       strategies=STRATEGIES, include_wall=False, validate=True)
    assert {cell["status"] for cell in report.cells} == {"verified"}
    uncalled = {key for key in _traced_names() if not calls[key]}
    assert uncalled == NOT_CALLED
