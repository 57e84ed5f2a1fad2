"""Adaptive strategy: greedy planning from measured sizes, the merged-scan
rule, replayability of the produced plan, and the chain fixtures where
greediness wins and loses."""

from sparqlsim import (
    STRATEGIES, ExecutionTrace, Executor, TransferLedger, Triple, WorkloadSpec,
    as_multiset, execute_plan, generate, iri, lit, merged_scan_beneficial,
    oracle_eval, parse_query, plan_and_execute_hybrid, render_plan, run_strategy,
)
from sparqlsim.workloads import HEAD_NOISE, NOISE_FACTOR, PARALLEL

from conftest import make_dataset


def _hybrid(workload, m=4, **kwargs):
    dataset, _ = make_dataset(workload.triples, m=m)
    ledger = TransferLedger()
    run = plan_and_execute_hybrid(workload.query.patterns,
                                  Executor(dataset, ledger, ExecutionTrace()),
                                  select=workload.query.select, **kwargs)
    return run, ledger, dataset


def test_opening_step_joins_the_cheap_department_pair(q8_workload):
    run, ledger, _ = _hybrid(q8_workload)
    assert render_plan(run.plan.root) == "Pjoin_x(Brjoin_y(Pjoin_y(t4,t2),t3),t1,t5)"
    assert ledger.total_transfer == 15
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
    _, ledger, _ = _hybrid(q8_workload)
    store, subset = 2458, 600 + 20 + 606 + 5 + 612
    assert merged_scan_beneficial(store, 5, subset)
    assert ledger.totals()["scanned"] == store + 5 * subset
    assert list(ledger.per_operator)[:1] == ["merged-sel[t1,t2,t3,t4,t5]"]

    _, star_ledger, dataset = _hybrid(generate(_FULL_STAR))
    assert dataset.size == 5 * 40
    assert not merged_scan_beneficial(dataset.size, 5, dataset.size)
    assert star_ledger.totals()["scanned"] == 5 * dataset.size
    assert [op for op in star_ledger.per_operator if op.startswith("sel[")] == [
        f"sel[t{i}]" for i in range(1, 6)]


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


def test_hybrid_plan_replays_identically(q8_workload):
    """Re-executing the adaptive plan statically must reproduce the exact
    ledger, with and without a shared scan: the plan is a complete record
    of the scan and movement decisions."""
    for workload in (q8_workload, generate(_FULL_STAR)):
        run, ledger, dataset = _hybrid(workload)
        replay_ledger = TransferLedger()
        relation = execute_plan(run.plan, Executor(dataset, replay_ledger, ExecutionTrace()),
                                workload.query.select)
        assert replay_ledger.totals() == ledger.totals()
        assert as_multiset(relation.rows()) == as_multiset(run.relation.rows())


def test_trace_records_every_operator(q8_workload):
    dataset, _ = make_dataset(q8_workload.triples, m=4)
    trace = ExecutionTrace()
    plan_and_execute_hybrid(q8_workload.query.patterns,
                            Executor(dataset, TransferLedger(), trace))
    kinds = [e.kind for e in trace.entries]
    assert kinds.count("merged-selection") == 1  # one shared pass, five outputs
    # the adaptive run itself joins pairwise; fusion of the two same-key
    # partitioned joins only shows in the recorded plan
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
