"""Adaptive strategy: greedy planning from measured sizes, the merged-scan
rule, replayability of the produced plan, and the chain fixtures where
greediness wins and loses."""

import pytest
from hypothesis import given, settings, strategies as st

from sparqlsim import (
    STRATEGIES, BasePartition, Executor, Triple, TriplePattern,
    WorkloadSpec, as_multiset,
    execute_plan, generate, iri, lit, merged_scan_beneficial, oracle_eval,
    parse_query, plan_and_execute_hybrid, render_plan, run_strategy, var,
)
from sparqlsim.cost import brjoin_broadcast_size, pjoin_shuffle_size
from sparqlsim.hybrid import HybridPlanner
from sparqlsim.logical import CompiledQuery
from sparqlsim.ops import SelectionSpec
from sparqlsim.workloads import CHAIN_PROFILES, HEAD_NOISE, NOISE_FACTOR, PARALLEL

from conftest import EX, binding_row, make_dataset, make_relation


def _hybrid(workload, m=4, base=BasePartition.SUBJECT, **kwargs):
    """The adaptive run, its execution trace and the store it ran on."""
    dataset, _ = make_dataset(workload.triples, m=m, base=base)
    executor = Executor(dataset)
    run = plan_and_execute_hybrid(workload.query.compiled, executor,
                                  select=workload.query.select, **kwargs)
    return run, executor.trace, dataset


_STAR_15 = "Pjoin_x(" + ",".join(f"t{i}" for i in range(1, 16)) + ")"


@pytest.mark.parametrize("shape, patterns, subjects, m, evaluations, plan", [
    *[("star", 3, 60, m, 12, "Pjoin_x(t1,t2,t3)") for m in (2, 4, 8)],
    *[("star", 15, 60, m, 588, _STAR_15) for m in (2, 4, 8)],
    ("chain", 4, 2500, 8, 15, "Pjoin_x3(Pjoin_x2(Pjoin_x1(t1,t2),t3),t4)"),
    ("snowflake", 5, 1500, 4, 30, "Pjoin_x(Brjoin_y(Pjoin_y(t4,t2),t3),t1,t5)"),
])
def test_planner_decisions_are_pinned(shape, patterns, subjects, m, evaluations, plan):
    wl = generate(WorkloadSpec(name=shape, shape=shape, pattern_count=patterns,
                               subject_count=subjects))
    run, _, _ = _hybrid(wl, m=m)
    assert run.evaluations == evaluations
    assert render_plan(run.plan.root) == plan


def test_opening_ties_prefer_the_partitioned_join_over_a_smaller_pair():
    """On m=3 both pairs cost 20: (a, b) by a partitioned join that
    shuffles only b, (c, d) by broadcasting c. The partitioned join wins
    the tie although (c, d) is the smaller pair."""
    x, w = var("x"), var("w")

    def slot(index, v, size, key=None):
        rows = [binding_row({v: iri(f"http://example.org/e{i}")})
                for i in range(size)]
        rel = make_relation([v], rows, 3, key=key)
        return rel, SelectionSpec(index, TriplePattern(v, iri(EX + "p"), v))

    dataset, _ = make_dataset([], m=3)
    a, b = slot(0, x, 10, key=[x]), slot(1, x, 20)
    c, d = slot(2, w, 10), slot(3, w, 11)
    # a planner for a one-pattern query, asked to open over hand-made leaves
    planner = HybridPlanner(CompiledQuery(a[1]), Executor(dataset))
    first, second, choice = planner.opening([a, b, c, d])
    assert first is a and second is b
    assert (choice.target, choice.cost) == (None, 20)
    assert planner.evaluations == 2 * 3
    # alone, (c, d) opens with the broadcast of its smaller side c
    assert planner.opening([c, d])[2] == (20, 1, 1, frozenset({w}))


def _cheapest_candidate(inputs, on, m) -> tuple[int, str, int | None]:
    """Enumerate every candidate for one pairwise step and keep the least
    by (cost, rank, seq): rank 0 for the partitioned join, offered when the
    pair shares variables, 1 for broadcasting the side that is no larger, 2
    otherwise; seq in listing order, with broadcasting the first input
    (target 1) before broadcasting the second (target 0)."""
    (size_first, _), (size_second, _) = inputs
    candidates = []
    if on:
        candidates.append((pjoin_shuffle_size(inputs, on), 0, len(candidates),
                           "pjoin", None))
    for moving, other, target in ((size_first, size_second, 1),
                                  (size_second, size_first, 0)):
        rank = 1 if moving <= other else 2
        candidates.append((brjoin_broadcast_size(inputs, target, m), rank,
                           len(candidates), "brjoin", target))
    cost, _, _, kind, target = min(candidates)
    return cost, kind, target


@st.composite
def _workloads(draw):
    shape = draw(st.sampled_from(("star", "chain", "snowflake")))
    profile = None
    if shape == "snowflake":
        patterns, subjects = 5, draw(st.integers(20, 400))
    else:
        patterns = draw(st.integers(2, 7))
        subjects = draw(st.integers(1, 60))
        if shape == "chain":
            profile = draw(st.sampled_from((None, *CHAIN_PROFILES)))
            if profile == "front-loaded-large":
                patterns = max(patterns, 4)
    spec = WorkloadSpec(name=shape, shape=shape, pattern_count=patterns,
                        subject_count=subjects, profile=profile)
    return spec, draw(st.integers(2, 8)), draw(st.sampled_from(BasePartition))


@settings(max_examples=40, deadline=None)
@given(_workloads())
def test_each_hybrid_join_moves_the_cheapest_candidate(case):
    """Every step the planner takes moves exactly the least transfer of its
    pair's candidates, priced by the cost model, and is the candidate the
    tie-breaks pick."""
    spec, m, base = case
    _, trace, _ = _hybrid(generate(spec), m=m, base=base)
    joins = [e for e in trace.entries if e.kind in ("pjoin", "brjoin")]
    assert len(joins) == spec.pattern_count - 1
    for entry in joins:
        cost, kind, target = _cheapest_candidate(entry.inputs, entry.on, m)
        assert entry.charges.total_transfer == cost
        assert (entry.kind, entry.target) == (kind, target)


def _plan_joins(node) -> list[tuple[str, frozenset, int | None]]:
    """The plan's join nodes in post-order, as (kind, on, target)."""
    if isinstance(node, SelectionSpec):
        return []
    kind = "pjoin" if node.target is None else "brjoin"
    return [*(j for child in node.children for j in _plan_joins(child)),
            (kind, node.on, node.target)]


@settings(max_examples=40, deadline=None)
@given(_workloads())
def test_join_entries_follow_the_plan_in_post_order(case):
    """Every strategy's trace holds one join entry per plan join node, in
    the plan's post-order, with the node's algorithm, key and target."""
    spec, m, base = case
    wl = generate(spec)
    dataset, cluster = make_dataset(wl.triples, m=m, base=base)
    for strategy in STRATEGIES:
        run = run_strategy(strategy, wl.query, dataset, cluster)
        joins = [(e.kind, e.on, e.target) for e in run.trace.entries
                 if e.kind in ("pjoin", "brjoin")]
        assert joins == _plan_joins(run.plan.root), strategy


def test_opening_step_joins_the_cheap_department_pair(q8_workload):
    run, trace, _ = _hybrid(q8_workload)
    assert render_plan(run.plan.root) == "Pjoin_x(Brjoin_y(Pjoin_y(t4,t2),t3),t1,t5)"
    assert trace.ledger().total_transfer == 15
    assert run.relation.count == 151


def test_candidate_evaluation_count_is_frozen(q8_workload):
    # 6 connected start pairs x 3 options, then 1-, 2-, and 1-candidate
    # extension rounds x 3 options each: 18 + 3 + 6 + 3
    run, _, _ = _hybrid(q8_workload)
    assert run.evaluations == 30


# Every triple of this star matches one of its five patterns, so the shared
# subset S is the whole store and a shared pass cannot pay off.
_FULL_STAR = WorkloadSpec(name="star", shape="star", pattern_count=5,
                          subject_count=40)


def test_merge_scan_modes(q8_workload):
    """The cost rule picks the scan mode: one shared pass for q8, one scan
    per pattern where the shared subset is the whole store."""
    _, trace, _ = _hybrid(q8_workload)
    store, subset = 2458, 600 + 20 + 606 + 5 + 612
    assert merged_scan_beneficial(store, 5, subset)
    assert trace.ledger().totals()["scanned"] == store + 5 * subset
    # the one shared pass comes first and is charged every scanned tuple
    shared = trace.entries[0]
    assert (shared.kind, shared.pattern_count) == ("merged-selection", 5)
    assert shared.charges.scanned_tuples == store + 5 * subset

    _, star_trace, dataset = _hybrid(generate(_FULL_STAR))
    assert dataset.size == 5 * 40
    assert not merged_scan_beneficial(dataset.size, 5, dataset.size)
    assert star_trace.ledger().totals()["scanned"] == 5 * dataset.size
    scans = [e for e in star_trace.entries if e.kind.endswith("selection")]
    assert [(e.kind, e.charges.scanned_tuples) for e in scans] == [
        ("selection", dataset.size)] * 5


def test_merged_scan_tie_goes_to_independent_scans():
    """20 of 40 triples match one of two patterns: a shared pass would read
    40 + 2 x 20 = 80 tuples, as many as two scans, and the rule's strict
    inequality keeps one scan per pattern."""
    ex = "http://example.org/"
    query = parse_query(f"SELECT ?x ?a ?b WHERE {{ ?x <{ex}p> ?a . ?x <{ex}q> ?b . }}")
    triples = [Triple(iri(f"{ex}s{i % 10}"), iri(ex + pred), lit(str(i)))
               for pred in ("p", "q", "f1", "f2") for i in range(10)]
    dataset, cluster = make_dataset(triples, m=2)
    run = run_strategy("hybrid", query, dataset, cluster)
    assert run.ledger.totals()["scanned"] == 80
    assert [e.kind for e in run.trace.entries[:2]] == ["selection", "selection"]
    assert not run.plan.shared_scan
    assert run.result_count == 10


def test_shared_scan_recorded_in_the_plan(q8_workload):
    run, _, _ = _hybrid(q8_workload)
    assert run.plan.shared_scan
    run_star, _, _ = _hybrid(generate(_FULL_STAR))
    assert not run_star.plan.shared_scan


def _three_components():
    """A query of three disconnected components (a two-pattern star, one
    pattern, a two-pattern chain) over data where each has solutions."""
    ex = "http://example.org/"
    query = parse_query(
        f"SELECT ?x ?n ?t ?v ?k WHERE {{ ?x <{ex}p> ?o . ?x <{ex}q> ?n . "
        f"?t <{ex}r> ?u . ?v <{ex}a> ?w . ?w <{ex}b> ?k . }}")
    triples = [t for i in range(4) for t in (
        Triple(iri(f"{ex}s{i}"), iri(ex + "p"), iri(f"{ex}o{i}")),
        Triple(iri(f"{ex}s{i}"), iri(ex + "q"), lit(str(i))))]
    triples += [t for j in range(3) for t in (
        Triple(iri(f"{ex}t{j}"), iri(ex + "r"), iri(f"{ex}u{j}")),
        Triple(iri(f"{ex}v{j}"), iri(ex + "a"), iri(f"{ex}w{j}")),
        Triple(iri(f"{ex}w{j}"), iri(ex + "b"), lit(str(j))))]
    return query, triples


def test_hybrid_plan_replays_identically(q8_workload):
    """Re-executing a run's plan on a fresh executor reproduces the run: the
    plan is a complete record of the scan and movement decisions, and every
    strategy's replay, the adaptive one with and without a shared scan and
    a cross product of three components included, records the run's trace
    entry for entry."""
    chain = generate(WorkloadSpec(name="chain", shape="chain", pattern_count=4,
                                  subject_count=100))
    cases = [(wl.query, wl.triples, False)
             for wl in (q8_workload, chain, generate(_FULL_STAR))]
    cases.append((*_three_components(), True))
    for query, triples, allow_cross in cases:
        for base in BasePartition:
            dataset, cluster = make_dataset(triples, m=4, base=base)
            for strategy in STRATEGIES:
                run = run_strategy(strategy, query, dataset, cluster,
                                   allow_cross=allow_cross)
                replay = Executor(dataset)
                relation = execute_plan(run.plan, replay, query.select)
                assert as_multiset(relation.rows()) == as_multiset(run.relation.rows())
                assert replay.trace.entries == run.trace.entries, (
                    render_plan(run.plan.root), base, strategy)


def test_trace_records_every_operator(q8_workload):
    dataset, _ = make_dataset(q8_workload.triples, m=4)
    executor = Executor(dataset)
    plan_and_execute_hybrid(q8_workload.query.compiled, executor)
    kinds = [e.kind for e in executor.trace.entries]
    assert kinds.count("merged-selection") == 1  # one shared pass, five outputs
    # the plan joins pairwise, and prints the two same-key partitioned
    # joins as one n-ary Pjoin_x
    assert kinds == ["merged-selection", "pjoin", "brjoin", "pjoin", "pjoin"]


def test_alternating_chain_hybrid_beats_static():
    """Dead-end-heavy odd patterns: measured sizes let the adaptive planner
    start mid-chain and keep every step at matched-path size b."""
    k, b = 4, 40
    wl = generate(WorkloadSpec(name="afr", shape="chain", pattern_count=k,
                               subject_count=b,
                               profile="alternating-frequent-rare"))
    dataset, cluster = make_dataset(wl.triples, m=4)
    runs = {s: run_strategy(s, wl.query, dataset, cluster) for s in STRATEGIES}
    frequent = NOISE_FACTOR * b
    assert runs["hybrid"].ledger.total_transfer == (k + 1) * b          # 200
    assert runs["pjoin"].ledger.total_transfer == frequent + (k - 1) * b  # 4120
    assert runs["hybrid"].ledger.total_transfer < runs["pjoin"].ledger.total_transfer
    assert runs["pjoin"].ledger.total_transfer < runs["mono-br"].ledger.total_transfer
    expected = as_multiset(oracle_eval(wl.query.patterns, wl.triples,
                                       select=wl.query.select))
    for name, result in runs.items():
        assert as_multiset(result.relation.rows()) == expected, name


def test_front_loaded_chain_defeats_greedy():
    """Mid-chain part-chains make the cheap-looking opening pair a trap: the
    adaptive plan drags a block of parallel rows up the chain while the
    static left-to-right plan only pays for the head once."""
    k, b = 15, 2
    wl = generate(WorkloadSpec(name="fll", shape="chain", pattern_count=k,
                               subject_count=b, profile="front-loaded-large"))
    dataset, cluster = make_dataset(wl.triples, m=4)
    hybrid = run_strategy("hybrid", wl.query, dataset, cluster)
    pjoin = run_strategy("pjoin", wl.query, dataset, cluster)
    assert hybrid.ledger.total_transfer == k * (PARALLEL + b) + 3 * b   # 786
    assert pjoin.ledger.total_transfer == (HEAD_NOISE + b) + (k - 2) * b  # 328
    assert hybrid.ledger.total_transfer > pjoin.ledger.total_transfer
    expected = as_multiset(oracle_eval(wl.query.patterns, wl.triples,
                                       select=wl.query.select))
    assert as_multiset(hybrid.relation.rows()) == expected
    assert as_multiset(pjoin.relation.rows()) == expected


def test_single_pattern_query_needs_no_joins(q8_workload):
    from sparqlsim import parse_query
    query = parse_query(
        "PREFIX u: <http://example.org/univ#> SELECT ?y WHERE { "
        "?y u:subOrganizationOf <http://example.org/univ/university0> . }")
    dataset, cluster = make_dataset(q8_workload.triples, m=4)
    result = run_strategy("hybrid", query, dataset, cluster)
    assert result.result_count == 5
    assert result.ledger.total_transfer == 0
    assert render_plan(result.plan.root) == "t1"
