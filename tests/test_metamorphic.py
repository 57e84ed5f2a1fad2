"""Metamorphic properties of whole runs on random connected BGPs, over every
strategy x base partitioning x m in 1..5: the pattern order does not change
the result multiset, the ledger equals the cost recomputed from the trace,
no shuffle moves more than it is charged, every operator's placement check
passes, and the adaptive strategy shares a store pass exactly when the
merged-scan rule says it reads fewer tuples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sparqlsim import (
    BasePartition, Query, STRATEGIES, as_multiset, iri, lit, run_strategy,
    trace_cost, var,
)
from sparqlsim.terms import Triple, TriplePattern, pattern_vars

from conftest import make_dataset, match_binding

NS = "http://meta.example/"
_ENTITIES = tuple(iri(f"{NS}e{i}") for i in range(6))
_PREDICATES = tuple(iri(f"{NS}p{i}") for i in range(4))
_OBJECTS = _ENTITIES + (lit("a"), lit("7"))
_VARS = tuple(var(f"v{i}") for i in range(6))
_FILLER = iri(NS + "filler")


@st.composite
def connected_bgps(draw) -> Query:
    """1-5 patterns; each binds a variable, and each after the first shares
    one with an earlier pattern. Predicates are mostly ground."""
    patterns: list[TriplePattern] = []
    seen: list = []
    for k in range(draw(st.integers(1, 5))):
        pool = _VARS[:k + 2]
        s = draw(st.sampled_from(pool + _ENTITIES[:2]))
        p = draw(st.sampled_from(_PREDICATES + pool[:1]))
        o = draw(st.sampled_from(pool + _OBJECTS[:2]))
        positions = [s, p, o]
        var_slots = [i for i, t in enumerate(positions) if t.is_variable]
        if not var_slots:
            positions[0] = pool[0]
            var_slots = [0]
        if seen:
            positions[draw(st.sampled_from(var_slots))] = draw(st.sampled_from(seen))
        pattern = TriplePattern(*positions)
        patterns.append(pattern)
        seen.extend(v for v in pattern_vars(pattern) if v not in seen)
    select = tuple(sorted({v for p in patterns for v in pattern_vars(p)}))
    return Query(select, tuple(patterns))


@st.composite
def workloads(draw) -> tuple[Query, list[Triple]]:
    """A query, a store of random triples over its vocabulary with a couple
    of planted solutions, and 0-120 filler triples that no ground-predicate
    pattern matches, so the shared subset ranges from all of the store to a
    small part of it."""
    query = draw(connected_bgps())
    triples = []
    all_vars = sorted({v for p in query.patterns for v in pattern_vars(p)})
    for _ in range(draw(st.integers(0, 2))):
        assignment = {v: draw(st.sampled_from(_ENTITIES)) for v in all_vars}
        triples.extend(Triple(*(assignment.get(t, t) for t in p))
                       for p in query.patterns)
    triples.extend(draw(st.lists(st.builds(
        Triple, st.sampled_from(_ENTITIES), st.sampled_from(_PREDICATES),
        st.sampled_from(_OBJECTS)), min_size=1, max_size=60)))
    triples.extend(Triple(_ENTITIES[i % 6], _FILLER, lit(str(i)))
                   for i in range(draw(st.integers(0, 120))))
    return query, triples


@settings(max_examples=250, deadline=None)
@given(workload=workloads(), strategy=st.sampled_from(STRATEGIES),
       base=st.sampled_from(list(BasePartition)), m=st.integers(1, 5),
       order=st.randoms(use_true_random=False))
def test_run_invariants(workload, strategy, base, m, order):
    query, triples = workload
    dataset, cluster = make_dataset(triples, m=m, base=base)
    # validate=True checks every operator's placement and raises on a miss
    result = run_strategy(strategy, query, dataset, cluster, validate=True)

    patterns = list(query.patterns)
    order.shuffle(patterns)
    permuted = run_strategy(strategy, Query(query.select, tuple(patterns)),
                            dataset, cluster, validate=True)
    assert as_multiset(permuted.relation.rows()) == as_multiset(result.relation.rows())

    for run in (result, permuted):
        totals = run.ledger.totals()
        cost = trace_cost(run.trace, m)
        assert cost.access == totals["scanned"]
        assert cost.transfer == totals["shuffled_modeled"] + totals["broadcast"]
        assert totals["shuffled_actual"] <= totals["shuffled_modeled"]

    if strategy == "hybrid":
        d, n = dataset.size, len(query.patterns)
        subset = sum(any(match_binding(p, t) is not None for p in query.patterns)
                     for t in triples)
        shared = d + n * subset < n * d    # a tie goes to independent scans
        assert result.ledger.totals()["scanned"] == min(d + n * subset, n * d)
        kinds = [e.kind for e in result.trace.entries[:1 if shared else n]]
        assert kinds == (["merged-selection"] if shared else ["selection"] * n)
        assert result.plan.shared_scan == shared
