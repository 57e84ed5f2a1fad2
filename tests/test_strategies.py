"""Static physical strategies on the five-pattern university fixture: frozen
plan shapes, exact ledger accounting, and replay of traces through the
analytic cost model."""

from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from sparqlsim import (
    BasePartition, CostParams, Executor, STRATEGIES, TransferLedger,
    WorkloadSpec, as_multiset, generate, oracle_eval, render_plan, run_query,
    run_strategy, sorted_result_rows, trace_cost, var,
)
from sparqlsim.cost import brjoin_broadcast_size, pjoin_shuffle_size
from sparqlsim.ops import SelectionSpec
from sparqlsim.physical import JoinNode, plan_pjoin_strategy
from sparqlsim import build_logical, parse_query

from conftest import make_dataset, run_all_strategies

# Exact per-strategy ledger expectations for the fixture at subject_count
# 600, m=4: selection sizes are 600/20/606/5/612 and the department-side
# join of t4 and t2 has 5 rows, the three-pattern department join 151.
SEL = {1: 600, 2: 20, 3: 606, 4: 5, 5: 612}
STORE = 2458
DEPT_JOIN = 5
DEPT_TRIPLE_JOIN = 151

EXPECTED_PLANS = {
    "pjoin": "Pjoin_x(Pjoin_y(t2,t3,t4),t1,t5)",
    "mono-br": "Brjoin_x,y(t1,t2,t3,t4,t5)",
    "multi-br": "Brjoin_x(Brjoin_x(Brjoin_y(Brjoin_y(t4,t2),t3),t1),t5)",
    "hybrid": "Pjoin_x(Brjoin_y(Pjoin_y(t4,t2),t3),t1,t5)",
}

EXPECTED_TRANSFER = {
    "pjoin": SEL[3] + DEPT_TRIPLE_JOIN,                      # 757
    "mono-br": 3 * (SEL[1] + SEL[2] + SEL[3] + SEL[4]),      # 3693
    "hybrid": 3 * DEPT_JOIN,                                 # 15
}


@pytest.fixture(scope="module")
def q8_runs(q8_workload):
    dataset, cluster = make_dataset(q8_workload.triples, m=4)
    return {name: run_strategy(name, q8_workload.query, dataset, cluster,
                               validate=True)
            for name in STRATEGIES}


def test_all_strategies_agree_with_the_oracle(q8_workload, q8_runs):
    expected = as_multiset(oracle_eval(q8_workload.query.patterns,
                                       q8_workload.triples,
                                       select=q8_workload.query.select))
    assert sum(expected.values()) == DEPT_TRIPLE_JOIN
    for name, result in q8_runs.items():
        assert as_multiset(result.relation.rows()) == expected, name


def test_plan_renders_are_frozen(q8_runs):
    for name, expected in EXPECTED_PLANS.items():
        assert render_plan(q8_runs[name].plan.root) == expected


def test_exact_transfer_ledgers(q8_runs):
    for name, expected in EXPECTED_TRANSFER.items():
        assert q8_runs[name].ledger.total_transfer == expected, name
    # the multiway-broadcast plan moves strictly less than one big broadcast
    # but more than the adaptive plan
    multi = q8_runs["multi-br"].ledger.total_transfer
    assert EXPECTED_TRANSFER["hybrid"] < multi < EXPECTED_TRANSFER["mono-br"]


def test_hybrid_moves_strictly_least(q8_runs):
    hybrid = q8_runs["hybrid"].ledger.total_transfer
    for name in ("pjoin", "mono-br", "multi-br"):
        assert hybrid < q8_runs[name].ledger.total_transfer


def test_static_strategies_scan_once_per_pattern(q8_runs):
    for name in ("pjoin", "mono-br", "multi-br"):
        assert q8_runs[name].ledger.totals()["scanned"] == 5 * STORE, name
    # the adaptive strategy shares one pass: store + 5 * union subset
    subset = sum(SEL.values())
    assert q8_runs["hybrid"].ledger.totals()["scanned"] == STORE + 5 * subset


def test_trace_cost_replays_the_ledger_exactly(q8_runs):
    for name, result in q8_runs.items():
        est = trace_cost(result.trace, m=4)
        totals = result.ledger.totals()
        assert est.access == totals["scanned"], name
        assert est.transfer == totals["shuffled_modeled"] + totals["broadcast"], name
        # weighted params scale the components linearly
        weighted = trace_cost(result.trace, m=4,
                              params=CostParams(theta_acc=2.0, theta_comm=0.25))
        assert weighted.access == 2.0 * est.access
        assert weighted.transfer == 0.25 * est.transfer


def _priced(entry, m: int) -> tuple[int, int, int]:
    """The (scanned, modeled shuffle, broadcast) tuples the cost formulas
    give one trace entry from its recorded sizes and layouts."""
    if entry.kind == "selection":
        return entry.dataset_size, 0, 0
    if entry.kind == "merged-selection":
        return entry.dataset_size + entry.pattern_count * entry.subset_size, 0, 0
    if entry.kind == "pjoin":
        return 0, pjoin_shuffle_size(entry.inputs, entry.on), 0
    assert entry.kind == "brjoin", entry.kind
    return 0, 0, brjoin_broadcast_size(entry.inputs, entry.target, m)


@st.composite
def _runs(draw):
    shape = draw(st.sampled_from(("star", "chain", "snowflake")))
    patterns = 5 if shape == "snowflake" else draw(st.integers(1, 6))
    # filler triples match no pattern, so a shared scan can pay off
    spec = WorkloadSpec(name=shape, shape=shape, pattern_count=patterns,
                        subject_count=draw(st.integers(1, 40)),
                        filler=draw(st.sampled_from((0, 300))))
    return (spec, draw(st.sampled_from(STRATEGIES)),
            draw(st.sampled_from(BasePartition)), draw(st.integers(1, 8)))


@settings(max_examples=80, deadline=None)
@given(_runs())
def test_each_trace_entry_carries_the_charges_its_formula_prices(case):
    """Entry by entry, what the operator staged equals what the cost model
    prices from the entry's sizes and layouts, no shuffle moves more rows
    than it is charged for, and the run's ledger is the entries' sum."""
    spec, strategy, base, m = case
    workload = generate(spec)
    dataset, cluster = make_dataset(workload.triples, m=m, base=base)
    result = run_strategy(strategy, workload.query, dataset, cluster)
    entries = result.trace.entries
    for entry in entries:
        charges = entry.charges
        assert (charges.scanned_tuples, charges.shuffled_tuples_modeled,
                charges.broadcast_tuples) == _priced(entry, m), entry.kind
        assert charges.shuffled_tuples_actual <= charges.shuffled_tuples_modeled
    summed = TransferLedger(*map(sum, zip(*(astuple(e.charges) for e in entries))))
    assert result.ledger == summed


def test_a_refused_join_appends_no_trace_entry():
    """A join over inputs on different node counts raises before it stages
    anything, so it leaves no entry and no charge in the trace."""
    star = generate(WorkloadSpec(name="star", shape="star", pattern_count=2,
                                 subject_count=50))
    specs = [SelectionSpec(i, p) for i, p in enumerate(star.query.patterns)]
    rels = []
    for m, spec in zip((2, 4), specs):
        # Random placement: every selection needs a shuffle to join on x.
        dataset, _ = make_dataset(star.triples, m=m, base=BasePartition.RANDOM)
        rels += Executor(dataset).run_selections([spec])
    executor = Executor(dataset)
    on = frozenset({var("x")})
    leaves = tuple(specs)
    for node in (JoinNode(on, leaves), JoinNode(on, leaves, 0),
                 JoinNode(on, leaves, 1)):
        with pytest.raises(ValueError, match="different node counts"):
            executor.run_join(node, rels)
    assert executor.trace.entries == []
    assert executor.trace.ledger() == TransferLedger()


def test_pjoin_plan_flattens_same_key_joins():
    star = parse_query(
        "SELECT ?c WHERE { ?c <http://e/p1> ?a . ?c <http://e/p2> ?b . "
        "?c <http://e/p3> ?d . }")
    plan = plan_pjoin_strategy(build_logical(star.patterns))
    root = plan.root
    assert isinstance(root, JoinNode) and root.target is None
    assert len(root.children) == 3
    assert all(isinstance(c, SelectionSpec) for c in root.children)
    assert render_plan(root) == "Pjoin_c(t1,t2,t3)"


def test_join_node_validation():
    t1, t2, t3 = parse_query(
        "SELECT ?c WHERE { ?c <http://e/p1> ?a . ?c <http://e/p2> ?b . "
        "?d <http://e/p3> ?c . }").patterns
    leaves = tuple(SelectionSpec(i, p) for i, p in enumerate((t1, t2, t3)))
    on = frozenset({var("c")})
    with pytest.raises(ValueError, match="at least two children"):
        JoinNode(on, leaves[:1])
    with pytest.raises(ValueError, match="at least two children"):
        JoinNode(on, leaves[:1], 0)
    with pytest.raises(ValueError, match="partitioned join needs join variables"):
        JoinNode(frozenset(), leaves)
    for target in (-1, 3):
        with pytest.raises(ValueError, match=f"target {target} out of range"):
            JoinNode(on, leaves, target)
    # a broadcast join may have an empty key: the plan's cross product
    assert render_plan(JoinNode(frozenset(), leaves, 2)) == "Brjoin_cross(t1,t2,t3)"


def test_render_plan_inlines_only_same_key_partitioned_children():
    t1, t2, t3 = (SelectionSpec(i, p) for i, p in enumerate(parse_query(
        "SELECT ?c WHERE { ?c <http://e/p1> ?a . ?c <http://e/p2> ?a . "
        "?c <http://e/p3> ?b . }").patterns))
    c, ca = frozenset({var("c")}), frozenset({var("c"), var("a")})
    assert render_plan(JoinNode(c, (JoinNode(c, (t1, t2)), t3))) == "Pjoin_c(t1,t2,t3)"
    assert render_plan(JoinNode(c, (JoinNode(ca, (t1, t2)), t3))) == \
        "Pjoin_c(Pjoin_a,c(t1,t2),t3)"
    assert render_plan(JoinNode(c, (JoinNode(c, (t1, t2), 0), t3))) == \
        "Pjoin_c(Brjoin_c(t1,t2),t3)"
    assert render_plan(JoinNode(c, (JoinNode(c, (t1, t2)), t3), 1)) == \
        "Brjoin_c(Pjoin_c(t1,t2),t3)"


def test_mono_brjoin_broadcasts_all_but_the_largest(q8_runs):
    root = q8_runs["mono-br"].plan.root
    # target (placed last) is t5, the largest selection
    assert root.children[root.target].label == "t5"
    assert root.target == len(root.children) - 1


def test_cross_product_execution_matches_oracle(q8_workload):
    query = parse_query(
        "PREFIX u: <http://example.org/univ#> SELECT ?y ?x WHERE { "
        "?y u:subOrganizationOf <http://example.org/univ/university0> . "
        "?x <http://example.org/gen/none> ?w . }")
    from sparqlsim import CartesianProductError
    dataset, cluster = make_dataset(q8_workload.triples, m=4)
    with pytest.raises(CartesianProductError):
        run_strategy("pjoin", query, dataset, cluster)
    # with no matches for t2 the product is empty but must still execute
    for name in STRATEGIES:
        result = run_strategy(name, query, dataset, cluster, allow_cross=True)
        assert result.result_count == 0, name


def test_cross_product_with_rows(d0_triples):
    query = parse_query(
        "PREFIX e: <http://example.org/> SELECT ?x ?y ?a WHERE { "
        "?x e:name ?n . ?a e:age ?g . ?x e:knows ?y . }")
    expected = as_multiset(oracle_eval(query.patterns, d0_triples,
                                       select=query.select))
    assert sum(expected.values()) == 3      # 3 knows-with-name rows x 1 age row
    results = run_all_strategies(query, d0_triples, m=2, allow_cross=True)
    for name, result in results.items():
        assert as_multiset(result.relation.rows()) == expected, name


def test_run_query_all_returns_every_strategy(q8_workload):
    dataset, cluster = make_dataset(q8_workload.triples, m=2)
    results = run_query(q8_workload.query, dataset, cluster, "all")
    assert [r.strategy for r in results] == list(STRATEGIES)
    with pytest.raises(ValueError):
        run_strategy("nonsense", q8_workload.query, dataset, cluster)


def test_sorted_result_rows_is_canonical(d0_triples):
    query = parse_query(
        "PREFIX e: <http://example.org/> SELECT ?y ?x WHERE { ?x e:knows ?y . }")
    dataset, cluster = make_dataset(d0_triples, m=3)
    result = run_strategy("pjoin", query, dataset, cluster)
    rows = sorted_result_rows(result.relation, query.select)
    rendered = [tuple(t.nt() for t in row) for row in rows]
    assert rendered == sorted(rendered)
    assert len(rows) == 3
    # columns follow the select order (?y first)
    assert rows[0][0].lexical.endswith("/b") or rows[0][0].lexical.endswith("/c")


def test_partitioning_variants_all_agree(q8_workload):
    expected = as_multiset(oracle_eval(q8_workload.query.patterns,
                                       q8_workload.triples,
                                       select=q8_workload.query.select))
    for base in (BasePartition.PREDICATE, BasePartition.OBJECT,
                 BasePartition.RANDOM):
        results = run_all_strategies(q8_workload.query, q8_workload.triples,
                                     m=4, base=base)
        for name, result in results.items():
            assert as_multiset(result.relation.rows()) == expected, (base, name)
