"""The row kernels against their per-row references
(``tests/kernel_reference.py``): ``pjoin`` and ``brjoin`` give exactly the
reference local join's chunks, row for row and in order, and ``shuffle``
places every row by ``node_of`` on its decoded row, keeps source
node-then-row order in every bucket and counts exactly the rows that change
node."""

import pytest
from hypothesis import given, settings, strategies as st

from sparqlsim import TransferLedger, iri, var
from sparqlsim.cluster import Relation, node_of, shuffle
from sparqlsim.ops import _FoldStep, brjoin, pjoin
from sparqlsim.terms import TERMS, BindingRow

from conftest import EX
from kernel_reference import (
    reference_brjoin, reference_pjoin, reference_shuffle,
)

X, Y, Z, W = var("x"), var("y"), var("z"), var("w")
VARS = (X, Y, Z, W)
POOL = tuple(iri(EX + f"k{i}").id for i in range(12))
NODE_COUNTS = (1, 3, 8)


def relation(columns, rows, nodes, m, key=()) -> Relation:
    """``rows`` over ``columns``, row i on node ``nodes[i]``; keyed on
    ``key`` by the reference shuffle when a key is given."""
    chunks = tuple(tuple(row for row, j in zip(rows, nodes) if j == node)
                   for node in range(m))
    rel = Relation(tuple(columns), chunks, frozenset())
    if key:
        rel = Relation(rel.columns, reference_shuffle(rel, frozenset(key))[0],
                       frozenset(key))
    return rel


@st.composite
def relations(draw, m: int, schema: frozenset):
    """A relation over ``schema`` in a drawn column order, with up to ten
    rows dealt to drawn nodes (so chunks are often empty) and a drawn key.
    Ids come from a pool of two (keys repeat) or of twelve (keys are
    mostly unique)."""
    columns = draw(st.permutations(sorted(schema)))
    pool = POOL[:draw(st.sampled_from((2, 12)))]
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool) for _ in columns]),
                         max_size=10))
    nodes = draw(st.lists(st.integers(0, m - 1), min_size=len(rows),
                          max_size=len(rows)))
    key = ()
    if columns and draw(st.booleans()):
        key = draw(st.sets(st.sampled_from(columns), min_size=1, max_size=2))
    return relation(columns, rows, nodes, m, key)


variable_sets = st.frozensets(st.sampled_from(VARS), max_size=3)


@st.composite
def pjoin_cases(draw):
    m = draw(st.sampled_from(NODE_COUNTS))
    on = draw(st.frozensets(st.sampled_from(VARS), min_size=1, max_size=2))
    inputs = [draw(relations(m, on | draw(variable_sets)))
              for _ in range(draw(st.integers(2, 4)))]
    return on, inputs


@st.composite
def brjoin_cases(draw):
    m = draw(st.sampled_from(NODE_COUNTS))
    return [draw(relations(m, draw(variable_sets)))
            for _ in range(draw(st.integers(2, 4)))]


def assert_pjoin_matches(on, inputs):
    out = pjoin(on, inputs, TransferLedger())
    assert (out.columns, out.chunks) == reference_pjoin(on, inputs)


def assert_brjoin_matches(inputs):
    for target in range(len(inputs)):
        out = brjoin(inputs, target, TransferLedger())
        assert (out.columns, out.chunks) == reference_brjoin(inputs, target)


@settings(max_examples=150, deadline=None)
@given(pjoin_cases())
def test_pjoin_chunks_equal_the_reference_row_for_row(case):
    assert_pjoin_matches(*case)


@settings(max_examples=150, deadline=None)
@given(brjoin_cases())
def test_brjoin_chunks_equal_the_reference_row_for_row(inputs):
    assert_brjoin_matches(inputs)


def _ids(*indices):
    return tuple(POOL[i] for i in indices)


# Named shapes, each a list of (columns, rows, nodes) on m nodes.
NAMED = {
    # one row per key on the build side: the unique table
    "unique keys": (8, [((X, Y), [_ids(0, 1), _ids(1, 2), _ids(2, 3)], [0, 5, 7]),
                        ((Y, Z), [_ids(1, 4), _ids(2, 5), _ids(3, 6)], [5, 0, 7])]),
    # a repeated key: bucket lists, kept in build order
    "duplicate keys": (3, [((X, Y), [_ids(0, 1), _ids(1, 1), _ids(2, 1)], [0, 1, 2]),
                           ((Y, Z), [_ids(1, 4), _ids(1, 5), _ids(1, 6), _ids(2, 7)],
                            [0, 0, 1, 2])]),
    "two-variable key": (3, [((X, Y, Z), [_ids(0, 1, 2), _ids(0, 1, 3)], [0, 2]),
                             ((Y, W, X), [_ids(1, 4, 0), _ids(1, 5, 0), _ids(2, 6, 0)],
                              [1, 1, 2])]),
    # the second step finds nothing: an empty intermediate, and empty chunks
    "empty intermediate": (8, [((X, Y), [_ids(0, 1), _ids(1, 2)], [3, 3]),
                               ((Y, Z), [_ids(1, 4)], [6]),
                               ((Z, W), [_ids(9, 9)], [6])]),
    "empty input": (3, [((X, Y), [_ids(0, 1)], [1]), ((Y, Z), [], [])]),
    # the second input's variables are all bound already
    "adds no variable": (3, [((X, Y), [_ids(0, 1), _ids(1, 1)], [0, 2]),
                             ((Y,), [_ids(1), _ids(1), _ids(2)], [0, 1, 2])]),
    # disjoint schemas: a cross product (broadcast join only)
    "shares no variable": (3, [((X,), [_ids(0), _ids(1)], [0, 2]),
                               ((Y,), [_ids(2), _ids(3), _ids(3)], [1, 1, 2])]),
    # a ground pattern's selection: rows with no column
    "zero-column driver": (3, [((), [(), ()], [0, 2]),
                               ((X, Y), [_ids(0, 1), _ids(1, 2)], [1, 2])]),
    # every node probes the same broadcast copy's table
    "copy reused across nodes": (8, [((X, Y), [_ids(i, i % 2) for i in range(12)],
                                      [i % 8 for i in range(12)]),
                                     ((Y, Z), [_ids(0, 3), _ids(1, 4), _ids(0, 5)],
                                      [0, 4, 7])]),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_join_shapes_equal_the_reference_row_for_row(name):
    m, specs = NAMED[name]
    inputs = [relation(columns, rows, nodes, m) for columns, rows, nodes in specs]
    assert_brjoin_matches(inputs)
    shared = frozenset.intersection(*(rel.schema for rel in inputs))
    if shared:
        assert_pjoin_matches(shared, inputs)
        keyed = [relation(columns, rows, nodes, m, shared)
                 for columns, rows, nodes in specs]
        assert_pjoin_matches(shared, keyed)


def test_a_step_hashes_unique_keys_in_one_table_and_repeats_in_buckets():
    # Node 0's keys are unique and node 1's repeat; once a repeat is seen,
    # the step builds node 2's table as buckets too. Both forms probe alike.
    rel = relation((Y, Z), [_ids(1, 4), _ids(2, 5), _ids(1, 6), _ids(1, 7), _ids(2, 8)],
                   [0, 0, 1, 1, 2], 3)
    step = _FoldStep(rel, (X, Y))
    assert step.columns == (X, Y, Z)
    assert step.table(0) == ({POOL[1]: _ids(4), POOL[2]: _ids(5)}, True)
    assert step.table(1) == ({POOL[1]: [_ids(6), _ids(7)]}, False)
    assert step.table(2) == ({POOL[2]: [_ids(8)]}, False)
    probe = [_ids(0, 1), _ids(0, 3), _ids(1, 1)]
    assert step.probe(probe, step.table(0)) == [_ids(0, 1, 4), _ids(1, 1, 4)]
    assert step.probe(probe, step.table(1)) == [
        _ids(0, 1, 6), _ids(0, 1, 7), _ids(1, 1, 6), _ids(1, 1, 7)]
    # a broadcast copy's table is built once and read on every node
    step = _FoldStep(rel, (X, Y), copy=tuple(rel.tuples()))
    assert step.table(0) is step.table(2)


def _decoded(columns, row) -> BindingRow:
    return BindingRow(tuple(sorted((v, TERMS[i]) for v, i in zip(columns, row))))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(NODE_COUNTS), st.sampled_from((1, 2)))
def test_shuffle_places_by_node_of_in_source_order(data, m, key_size):
    rel = data.draw(relations(m, frozenset((X, Y, Z))))
    key = frozenset(data.draw(st.sets(st.sampled_from(rel.columns),
                                      min_size=key_size, max_size=key_size)))
    ledger = TransferLedger()
    out = shuffle(rel, key, ledger)
    assert out.columns == rel.columns and out.key == key
    dests = [[node_of(_decoded(rel.columns, row), key, m) for row in chunk]
             for chunk in rel.chunks]
    # each bucket holds the rows placed there, in source node-then-row order
    assert out.chunks == tuple(
        tuple(row for chunk, to in zip(rel.chunks, dests)
              for row, dest in zip(chunk, to) if dest == j)
        for j in range(m))
    assert out.chunks == reference_shuffle(rel, key)[0]
    moved = sum(dest != j for j, to in enumerate(dests) for dest in to)
    assert ledger.totals() == {"scanned": 0, "shuffled_modeled": rel.count,
                               "shuffled_actual": moved, "broadcast": 0}
