"""The adaptive planner, whose search loops price pairs inline, against its
per-pair reference (``tests/hybrid_reference.py``): equal plans, equal
``evaluations`` and equal trace entries, on the three generated shapes, on
one node (where a broadcast is free), with empty selections and with a
cross product of two components."""

import pytest
from hypothesis import given, settings, strategies as st

from sparqlsim import BasePartition, Executor, Query, WorkloadSpec, generate
from sparqlsim.hybrid import plan_and_execute_hybrid
from sparqlsim.terms import TriplePattern, var

from conftest import make_dataset
from hybrid_reference import ReferencePlanner


def _renamed(query: Query, suffix: str) -> Query:
    """``query`` with every variable renamed, so it shares none with the
    original."""
    def rename(term):
        return var(term.lexical + suffix) if term.is_variable else term
    return Query(tuple(map(rename, query.select)),
                 tuple(TriplePattern(*map(rename, p)) for p in query.patterns))


def _case(shape: str, patterns: int, subjects: int, *, empty: int | None = None,
          cross: tuple[str, int] | None = None):
    """A generated workload's query and triples. ``empty`` drops every
    triple of that pattern's predicate, so its selection (and any other of
    that predicate) is empty; ``cross`` appends a second generated query of
    that shape and pattern count, with its own variables, as a second
    component."""
    def workload(shape, patterns, subjects):
        return generate(WorkloadSpec(name=shape, shape=shape, pattern_count=patterns,
                                     subject_count=subjects))

    wl = workload(shape, patterns, subjects)
    query, triples = wl.query, list(wl.triples)
    if cross is not None:
        other = workload(cross[0], cross[1], max(2, subjects // 3))
        renamed = _renamed(other.query, "_b")
        query = Query(query.select + renamed.select, query.patterns + renamed.patterns)
        triples += other.triples
    if empty is not None:
        predicate = query.patterns[empty % len(query.patterns)].p
        triples = [t for t in triples if t.p != predicate]
    return query, triples


def assert_matches_reference(query, triples, m, base):
    allow_cross = len(query.compiled.components) > 1
    dataset, _ = make_dataset(triples, m=m, base=base)
    executor = Executor(dataset)
    run = plan_and_execute_hybrid(query.compiled, executor, allow_cross=allow_cross)
    reference_executor = Executor(dataset)
    reference = ReferencePlanner(query.compiled, reference_executor, allow_cross)
    plan, relation = reference.run()
    assert run.plan == plan
    assert run.evaluations == reference.evaluations
    assert executor.trace.entries == reference_executor.trace.entries
    assert run.relation.chunks == relation.chunks


SHAPES = {"star": (2, 7), "chain": (2, 7), "snowflake": (5, 5)}


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    patterns = draw(st.integers(*SHAPES[shape]))
    subjects = draw(st.integers(1, 200 if shape == "snowflake" else 60))
    empty = draw(st.none() | st.integers(0, 6))
    cross = None
    if draw(st.booleans()):
        other = draw(st.sampled_from(sorted(SHAPES)))
        cross = (other, draw(st.integers(*SHAPES[other])))
    query, triples = _case(shape, patterns, subjects, empty=empty, cross=cross)
    return (query, triples, draw(st.sampled_from((1, 2, 3, 4, 8))),
            draw(st.sampled_from(list(BasePartition))))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_planner_equals_the_per_pair_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("shape, patterns, subjects, extra", [
    ("star", 15, 60, {}),
    ("chain", 4, 200, {}),
    ("snowflake", 5, 300, {}),
    ("star", 5, 40, {"empty": 2}),
    ("snowflake", 5, 300, {"empty": 3}),
    ("chain", 3, 30, {"cross": ("star", 3)}),
    # the second star's patterns name the first's predicates: a union pass
    ("star", 3, 30, {"cross": ("star", 2)}),
    ("snowflake", 5, 100, {"cross": ("chain", 2), "empty": 6}),
])
@pytest.mark.parametrize("m", [1, 4])
def test_named_cases_equal_the_per_pair_reference(shape, patterns, subjects, extra, m):
    query, triples = _case(shape, patterns, subjects, **extra)
    if extra.get("cross", (None,))[0] == shape:
        assert query.compiled.overlapping
    for base in BasePartition:
        assert_matches_reference(query, triples, m, base)
