"""A query compiles once: its selection specs, connected components and
grouping tree are derived on its first run and shared by every later run,
with results identical to a cold compile of a freshly parsed copy. Whether
a cross product may run is still decided by each run."""

from collections import Counter

import pytest

from sparqlsim import (
    STRATEGIES, BenchCase, CartesianProductError, WorkloadSpec, generate,
    parse_query, render_plan, run_bench, run_strategy, serialize_query,
)
from sparqlsim import bench, logical
from sparqlsim.ops import SelectionSpec
from sparqlsim.physical import plan_leaves

from conftest import D0, make_dataset

# Two connected components: runs only with allow_cross=True.
CROSS_TEXT = ("PREFIX e: <http://example.org/> SELECT ?x ?y ?a WHERE { "
              "?x e:name ?n . ?a e:age ?g . ?x e:knows ?y . }")


def _counted(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _cold(query):
    """A freshly parsed copy of ``query``, which has compiled nothing."""
    copy = parse_query(serialize_query(query))
    assert copy == query and copy is not query
    return copy


def _same_run(run, cold):
    assert run.plan == cold.plan
    assert run.trace.entries == cold.trace.entries
    assert run.ledger.totals() == cold.ledger.totals()
    assert run.evaluations == cold.evaluations
    assert run.relation.columns == cold.relation.columns
    assert Counter(run.relation.tuples()) == Counter(cold.relation.tuples())


def test_a_bench_run_compiles_each_query_once(monkeypatch):
    q8 = generate(WorkloadSpec(name="q8", shape="snowflake", pattern_count=5,
                               subject_count=60))
    query = q8.query
    runs = []

    def recording(strategy, query, dataset, cluster, **kwargs):
        run = run_strategy(strategy, query, dataset, cluster, **kwargs)
        runs.append((strategy, query, dataset, cluster, kwargs, run))
        return run

    calls = Counter()
    _counted(monkeypatch, logical, "_build_component", calls)
    _counted(monkeypatch, SelectionSpec, "__post_init__", calls)
    monkeypatch.setattr(bench, "run_strategy", recording)
    report = run_bench([BenchCase("q8", "q8", q8.triples, query)], ms=(1, 2, 4, 8),
                       strategies=STRATEGIES, include_wall=False, validate=True)
    monkeypatch.undo()

    assert len(runs) == len(report.cells) == 4 * len(STRATEGIES)
    assert {cell["status"] for cell in report.cells} == {"verified"}
    # one grouping tree (q8 is connected) and one spec per pattern, for all
    # sixteen runs
    assert calls == {"_build_component": 1, "__post_init__": len(query.patterns)}
    specs = query.compiled.specs
    for strategy, shared, dataset, cluster, kwargs, run in runs:
        assert shared is query
        assert all(leaf is specs[leaf.index] for leaf in plan_leaves(run.plan.root))
        cold = run_strategy(strategy, _cold(query), dataset, cluster, **kwargs)
        _same_run(run, cold)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_run_decides_whether_a_cross_product_may_run(strategy):
    query = parse_query(CROSS_TEXT)
    dataset, cluster = make_dataset(D0, m=3)
    with pytest.raises(CartesianProductError):
        run_strategy(strategy, query, dataset, cluster)
    run = run_strategy(strategy, query, dataset, cluster, allow_cross=True)
    cold = run_strategy(strategy, _cold(query), dataset, cluster, allow_cross=True)
    assert render_plan(run.plan.root) == render_plan(cold.plan.root)
    _same_run(run, cold)
    with pytest.raises(CartesianProductError):
        run_strategy(strategy, query, dataset, cluster)


def test_compiled_facts_belong_to_one_query_object():
    first, second = parse_query(CROSS_TEXT), parse_query(CROSS_TEXT)
    assert first == second
    assert first.compiled is first.compiled
    assert first.compiled is not second.compiled
    assert first.compiled.components == ((0, 2), (1,))
    assert [spec.pattern for spec in first.compiled.specs] == list(first.patterns)
