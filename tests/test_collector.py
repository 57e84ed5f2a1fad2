"""A strategy run pauses Python's cyclic garbage collector and gives the
caller's setting back on every exit. The pause holds no memory back
because a run allocates no reference cycles: with the collector off,
``gc.collect()`` finds nothing after any run, a raising one included.

With the collector off, every object allocated since the last collection
stays in the youngest generation, so ``gc.collect(0)`` after a run sees
exactly what the run left behind, without walking the whole heap (the
store and term tables of every earlier test) after each run. A full
collection opens and closes each test, to catch the rest."""

import gc

import pytest

from sparqlsim import (
    BasePartition, WorkloadSpec, generate, parse_query, run_strategy,
)
from sparqlsim import engine
from sparqlsim.engine import STRATEGIES
from sparqlsim.errors import CartesianProductError

from conftest import D0, make_dataset

# Two connected components: runs only with allow_cross=True.
CROSS = parse_query(
    "PREFIX e: <http://example.org/> SELECT ?x ?y ?a WHERE { "
    "?x e:name ?n . ?a e:age ?g . ?x e:knows ?y . }")


def _workloads():
    for spec in (WorkloadSpec(name="q8", shape="snowflake", pattern_count=5,
                              subject_count=60),
                 WorkloadSpec(name="chain", shape="chain", pattern_count=4,
                              subject_count=60),
                 WorkloadSpec(name="star", shape="star", pattern_count=5,
                              subject_count=60)):
        workload = generate(spec)
        yield spec.name, workload.query, workload.triples, False
    yield "cross", CROSS, D0, True


WORKLOADS = list(_workloads())


@pytest.fixture
def collector():
    """Give the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_runs_leave_no_cyclic_garbage(collector):
    gc.disable()
    gc.collect()
    for name, query, triples, allow_cross in WORKLOADS:
        for base in BasePartition:
            for m in (1, 3):
                dataset, cluster = make_dataset(triples, m, base)
                gc.collect(0)
                for strategy in STRATEGIES:
                    for validate in (False, True):
                        result = run_strategy(strategy, query, dataset, cluster,
                                              allow_cross=allow_cross,
                                              validate=validate)
                        del result
                        assert gc.collect(0) == 0, (name, base, m, strategy, validate)
    assert gc.collect() == 0


def test_a_refused_cross_product_leaves_no_cyclic_garbage(collector):
    gc.disable()
    dataset, cluster = make_dataset(D0, m=3)
    gc.collect()
    for strategy in STRATEGIES:
        try:
            run_strategy(strategy, CROSS, dataset, cluster)
        except CartesianProductError:
            pass
        else:
            pytest.fail(f"{strategy} ran a cross product it was not allowed")
        assert gc.collect(0) == 0, strategy
    assert gc.collect() == 0


def test_run_strategy_restores_the_collector_setting(collector, monkeypatch):
    dataset, cluster = make_dataset(D0, m=3)
    seen = []

    def recording(run):
        def wrapped(*args, **kwargs):
            seen.append(gc.isenabled())
            return run(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "plan_static", recording(engine.plan_static))
    monkeypatch.setattr(engine, "plan_and_execute_hybrid",
                        recording(engine.plan_and_execute_hybrid))
    for strategy in STRATEGIES:
        gc.enable()
        run_strategy(strategy, CROSS, dataset, cluster, allow_cross=True)
        assert gc.isenabled(), strategy

        gc.disable()
        run_strategy(strategy, CROSS, dataset, cluster, allow_cross=True)
        assert not gc.isenabled(), strategy

        gc.enable()
        with pytest.raises(CartesianProductError):
            run_strategy(strategy, CROSS, dataset, cluster)
        assert gc.isenabled(), strategy
    # every run, the raising ones included, ran with the collector paused
    assert seen == [False] * 3 * len(STRATEGIES)
