"""Same-key partitioned runs of the adaptive strategy: a run of zero-move
partitioned joins is decided up front and folded once per node, while the
plan, ``evaluations`` and the trace still list one binary step per
decision, as the per-pair reference (``tests/hybrid_reference.py``) takes
them. A run stops at its first empty step and planning goes on stepwise."""

import pytest

from sparqlsim import (
    BasePartition, Executor, Query, WorkloadSpec, generate, render_plan,
)
from sparqlsim import executor as executor_module, ops
from sparqlsim.hybrid import plan_and_execute_hybrid
from sparqlsim.terms import Triple, TriplePattern, iri, var

from conftest import EX, make_dataset
from hybrid_reference import ReferencePlanner


def _empty_opening_star():
    """A star on ?s whose opening pair, t1 and t2, is two non-empty
    selections on disjoint subjects, so their join is empty. t3 is keyed on
    ?s and would extend the run; t4 (``?x <p4> ?s``) is keyed on ?x under
    subject partitioning and is smaller than t3."""
    s, a, b, c, x = (var(n) for n in ("s", "a", "b", "c", "x"))
    p1, p2, p3, p4 = (iri(f"{EX}p{i}") for i in range(1, 5))
    query = Query((s,), (TriplePattern(s, p1, a), TriplePattern(s, p2, b),
                         TriplePattern(s, p3, c), TriplePattern(x, p4, s)))

    def node(name, i):
        return iri(f"{EX}{name}{i}")

    triples = [Triple(node("s", i), p1, node("a", i)) for i in range(2)]
    triples += [Triple(node("s", i), p2, node("b", i)) for i in range(2, 4)]
    triples += [Triple(node("s", i), p3, node("c", i)) for i in range(5)]
    triples += [Triple(node("x", i), p4, node("s", i)) for i in range(3)]
    return query, triples


def _matches_reference(query, triples, m, base, validate=False):
    """Run the planner and the per-pair reference on one store; assert
    equal plans, ``evaluations``, trace entries and rows, and return the
    planner's run."""
    dataset, _ = make_dataset(triples, m=m, base=base)
    executor = Executor(dataset, validate=validate)
    run = plan_and_execute_hybrid(query.compiled, executor)
    reference_executor = Executor(dataset, validate=validate)
    reference = ReferencePlanner(query.compiled, reference_executor)
    plan, relation = reference.run()
    assert run.plan == plan
    assert run.evaluations == reference.evaluations
    assert executor.trace.entries == reference_executor.trace.entries
    assert run.relation == relation
    return run


def _count_folds(monkeypatch) -> list[int]:
    """Record the number of fold steps of every local join call."""
    steps: list[int] = []
    original = ops.local_nary_join

    def counted(rows, fold, j, *args):
        steps.append(len(fold))
        return original(rows, fold, j, *args)

    monkeypatch.setattr(ops, "local_nary_join", counted)
    return steps


@pytest.mark.parametrize("m", [4, 1])
def test_a_run_falls_back_to_stepwise_planning_at_an_empty_step(m, monkeypatch):
    """On 4 nodes the run t1,t2,t3 stops at its empty first step; from
    there t4's free broadcast ties t3's free partitioned join and wins by
    count. On one node every broadcast is free, so t4 wins at any count."""
    query, triples = _empty_opening_star()
    steps = _count_folds(monkeypatch)
    run = _matches_reference(query, triples, m, BasePartition.SUBJECT)
    assert render_plan(run.plan.root) == "Pjoin_s(Brjoin_s(Pjoin_s(t1,t2),t4),t3)"
    assert run.relation.count == 0
    # the first fold: t3 planned behind t1,t2 on 4 nodes, t1,t2 alone on one
    assert steps[:m] == [2 if m == 4 else 1] * m


def _generated(shape, patterns, subjects):
    return generate(WorkloadSpec(name=shape, shape=shape, pattern_count=patterns,
                                 subject_count=subjects))


def _joins(executor):
    return [e.kind for e in executor.trace.entries if e.kind in ("pjoin", "brjoin")]


def test_a_star_folds_once_per_node(monkeypatch):
    wl = _generated("star", 15, 60)
    dataset, _ = make_dataset(wl.triples, m=4)
    executor = Executor(dataset)
    steps = _count_folds(monkeypatch)
    run = plan_and_execute_hybrid(wl.query.compiled, executor)
    assert steps == [14] * 4
    assert _joins(executor) == ["pjoin"] * 14
    assert run.relation.count == 60


def test_the_trailing_snowflake_run_folds_once_per_node(q8_workload, monkeypatch):
    dataset, _ = make_dataset(q8_workload.triples, m=4)
    executor = Executor(dataset)
    steps = _count_folds(monkeypatch)
    run = plan_and_execute_hybrid(q8_workload.query.compiled, executor)
    assert render_plan(run.plan.root) == "Pjoin_x(Brjoin_y(Pjoin_y(t4,t2),t3),t1,t5)"
    # Pjoin_y, Brjoin_y, then t1 and t5 in one fold
    assert steps == [1] * 4 + [1] * 4 + [2] * 4
    assert _joins(executor) == ["pjoin", "brjoin", "pjoin", "pjoin"]


def test_a_chain_stays_stepwise(monkeypatch):
    wl = _generated("chain", 4, 200)
    dataset, _ = make_dataset(wl.triples, m=4)
    executor = Executor(dataset)
    steps = _count_folds(monkeypatch)
    plan_and_execute_hybrid(wl.query.compiled, executor)
    assert steps == [1] * 12
    assert _joins(executor) == ["pjoin"] * 3


@pytest.mark.parametrize("base", [BasePartition.SUBJECT, BasePartition.OBJECT])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_validation_checks_every_step_of_a_fused_run(m, base, monkeypatch):
    """Under validation a fused run checks the placement of each step's
    output, the same relations the stepwise reference checks."""
    checked: list = []
    original = executor_module.check_placement

    def check(rel):
        checked.append(rel)
        original(rel)

    monkeypatch.setattr(executor_module, "check_placement", check)
    wl = _generated("star", 15, 60)
    _matches_reference(wl.query, wl.triples, m, base, validate=True)
    half = len(checked) // 2
    fused, stepwise = checked[:half], checked[half:]
    assert fused == stepwise
    joined = fused[15:]   # after the 15 selections
    assert [len(rel.columns) for rel in joined] == list(range(3, 17))
    if base is BasePartition.SUBJECT:
        # one run on the star's subject: every step is keyed on it
        assert all(rel.key == {var("x")} for rel in joined)
