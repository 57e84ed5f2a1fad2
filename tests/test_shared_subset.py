"""|S|, the stored triples matching any of a query's patterns, is counted
from the selections a run reads: a pattern disjoint from every other adds
its row count, and only the patterns that can share a triple take a union
pass. Checked against a brute-force count, and by counting the store reads
of adaptive runs."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from sparqlsim import BasePartition, Executor, WorkloadSpec, generate
from sparqlsim import executor as executor_module
from sparqlsim.cluster import Dataset
from sparqlsim.hybrid import plan_and_execute_hybrid
from sparqlsim.logical import build_logical
from sparqlsim.ops import (
    SelectionSpec, overlapping_patterns, read_selection, shared_subset_size,
)
from sparqlsim.terms import Triple, TriplePattern, iri, var

from conftest import EX, make_dataset
from kernel_reference import reference_match, reference_subset_size

X, Y, P = var("x"), var("y"), var("p")
PREDICATES = tuple(iri(EX + f"sp{i}") for i in range(2))
ENTITIES = tuple(iri(EX + f"se{i}") for i in range(3)) + PREDICATES[:1]
NODE_COUNTS = (1, 3, 8)


@st.composite
def stores(draw) -> list[Triple]:
    """Up to 40 triples over two predicates; an entity is also a
    predicate, so ``?x ?x ?y`` can match."""
    return [Triple(*t) for t in draw(st.lists(
        st.tuples(st.sampled_from(ENTITIES), st.sampled_from(PREDICATES),
                  st.sampled_from(ENTITIES)), max_size=40))]


# Patterns over the store's two predicates: whole groups, a ground subject
# or object (equal or different across patterns of one predicate), the
# repeated variables ?x <p> ?x and ?x ?x ?y, and variable predicates.
PATTERN = st.one_of(
    st.builds(TriplePattern, st.just(X), st.sampled_from(PREDICATES), st.just(Y)),
    st.builds(TriplePattern, st.sampled_from(ENTITIES[:2]),
              st.sampled_from(PREDICATES), st.just(Y)),
    st.builds(TriplePattern, st.just(X), st.sampled_from(PREDICATES),
              st.sampled_from(ENTITIES[1:3])),
    st.builds(TriplePattern, st.just(X), st.sampled_from(PREDICATES), st.just(X)),
    st.just(TriplePattern(X, X, Y)),
    st.builds(TriplePattern, st.sampled_from((X, ENTITIES[0])), st.just(P),
              st.sampled_from((Y, ENTITIES[1]))),
)


@st.composite
def pattern_lists(draw) -> list[SelectionSpec]:
    patterns = draw(st.lists(PATTERN, min_size=1, max_size=6))
    if draw(st.booleans()):
        patterns.append(draw(st.sampled_from(patterns)))    # a duplicate pattern
    return [SelectionSpec(i, p) for i, p in enumerate(patterns)]


@settings(max_examples=120, deadline=None)
@given(stores(), pattern_lists())
def test_subset_size_counted_from_the_selections_equals_brute_force(triples, specs):
    overlapping = overlapping_patterns(specs)
    for m in NODE_COUNTS:
        for base in BasePartition:
            dataset, _ = make_dataset(triples, m=m, base=base)
            rels = [read_selection(spec, dataset) for spec in specs]
            assert (shared_subset_size(specs, rels, dataset, overlapping)
                    == reference_subset_size(specs, dataset)), (m, base)
    # a pattern left out of the union pass shares no triple with another
    for i in set(range(len(specs))) - set(overlapping):
        for triple in (tuple(term.id for term in t) for t in triples):
            if reference_match(specs[i], triple) is not None:
                assert not any(reference_match(other, triple) is not None
                               for j, other in enumerate(specs) if j != i)


def test_disjoint_patterns_differ_in_a_ground_position():
    p0, p1 = PREDICATES
    e0, e1 = ENTITIES[:2]
    specs = [SelectionSpec(i, p) for i, p in enumerate([
        TriplePattern(X, p0, Y),        # 0: shares p0 with 2, 3 and 6
        TriplePattern(X, p1, e0),       # 1: disjoint from 4 by its object
        TriplePattern(e0, p0, Y),       # 2
        TriplePattern(X, p0, X),        # 3
        TriplePattern(X, p1, e1),       # 4
        TriplePattern(e1, p1, Y),       # 5: can share <e1 p1 e1> with 4
        TriplePattern(X, P, Y),         # 6: a variable predicate meets them all
    ])]
    assert overlapping_patterns(specs) == tuple(range(7))
    assert overlapping_patterns(specs[1:2] + specs[4:5]) == ()
    assert overlapping_patterns(specs[:2]) == ()
    # a repeated pattern shares every triple with its copy
    assert overlapping_patterns(specs[:1] * 2) == (0, 1)


class _CountingGroups(tuple):
    """A store's per-node group tables that count their reads: one per
    node lookup, and one pass per walk over all nodes."""

    def __new__(cls, groups):
        counting = super().__new__(cls, groups)
        counting.lookups = Counter()
        counting.passes = 0
        return counting

    def __getitem__(self, j):
        self.lookups[j] += 1
        return super().__getitem__(j)

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_hybrid_run_over_disjoint_patterns_reads_each_pattern_once(monkeypatch):
    """On q8 and on the 15-branch star, whose patterns are pairwise
    disjoint, the adaptive run reads each pattern's groups once on every
    node and makes no other store pass: |S| comes from those reads."""
    reads = Counter()

    def counted_read(spec, store):
        reads[spec.index] += 1
        return read_selection(spec, store)

    monkeypatch.setattr(executor_module, "read_selection", counted_read)
    for shape, count in (("snowflake", 5), ("star", 15)):
        wl = generate(WorkloadSpec(name=shape, shape=shape, pattern_count=count,
                                   subject_count=60))
        assert wl.query.compiled.overlapping == ()
        loaded, _ = make_dataset(wl.triples, m=4)
        groups = _CountingGroups(loaded.groups)
        store = Dataset(groups, loaded.base)
        store.size                       # counted once, before the run
        groups.lookups.clear()
        groups.passes = 0
        reads.clear()
        run = plan_and_execute_hybrid(wl.query.compiled, Executor(store),
                                      select=wl.query.select)
        assert run.relation.count > 0
        assert reads == Counter(range(count)), shape
        assert groups.lookups == Counter({j: count for j in range(4)}), shape
        assert groups.passes == 0, shape


def test_only_patterns_that_can_share_a_triple_take_a_union_pass():
    """Two patterns of one predicate can share a triple and are counted in
    one union pass; a third, of another predicate, adds its row count."""
    p0, p1 = PREDICATES
    triples = [Triple(e, p0, o) for e in ENTITIES[:2] for o in ENTITIES[1:]]
    triples += [Triple(ENTITIES[2], p1, ENTITIES[0])]
    compiled = build_logical([TriplePattern(X, p0, Y),
                              TriplePattern(ENTITIES[0], p0, Y),
                              TriplePattern(Y, p1, var("z"))])
    assert compiled.overlapping == (0, 1)
    loaded, _ = make_dataset(triples, m=3)
    groups = _CountingGroups(loaded.groups)
    store = Dataset(groups, loaded.base)
    store.size
    groups.passes = 0
    executor = Executor(store)
    rels, subset_size = executor.read_selections(compiled.specs, compiled.overlapping)
    assert groups.passes == 1
    assert subset_size == reference_subset_size(compiled.specs, loaded) == 7
    assert [rel.count for rel in rels] == [6, 3, 1]
