"""Plan explanations: exact text for the static strategies (sizes known
after selections) and the partial text for the adaptive one (only the
opening step is decidable before execution)."""

import re

import pytest

from sparqlsim import (
    BasePartition, Cluster, explain_text, generate, load_partitioned,
    parse_query, run_strategy, WorkloadSpec,
)

from conftest import make_dataset


@pytest.fixture(scope="module")
def university():
    wl = generate(WorkloadSpec(name="uni", shape="snowflake", pattern_count=5,
                               subject_count=600))
    dataset, cluster = make_dataset(wl.triples, m=4)
    return wl.query, dataset, cluster


def test_pjoin_explanation(university):
    query, dataset, cluster = university
    text = explain_text(query, dataset, cluster, "pjoin")
    lines = text.splitlines()
    assert lines[0] == "strategy: pjoin"
    assert lines[1] == "store: 2458 triples, m=4, subject-partitioned"
    assert lines[2] == "query shape: snowflake"
    assert lines[3] == "plan: Pjoin_x(Pjoin_y(t2,t3,t4),t1,t5)"
    assert "  t4: ?y <http://example.org/univ#subOrganizationOf> " \
           "<http://example.org/univ/university0> | rows=5 | keyed{y}" in lines
    # t2 and t4 are already keyed on y, so only t3 reships in step 1; the
    # size of step 1's output is unknown before running, hence symbolic
    assert "  #1 Pjoin on {y} (t2, t3, t4) -> keyed{y} | repartition: 606 tuples" in lines
    assert "  #2 Pjoin on {x} (#1, t1, t5) -> keyed{x} | repartition: |#1| tuples" in lines


def test_mono_broadcast_explanation(university):
    query, dataset, cluster = university
    text = explain_text(query, dataset, cluster, "mono-br")
    assert "plan: Brjoin_x,y(t1,t2,t3,t4,t5)" in text
    assert ("  #1 Brjoin on {x,y} (t1, t2, t3, t4, t5) -> keyed{x} "
            "| broadcast: 3 x (600 + 20 + 606 + 5), target t5") in text


def test_multi_broadcast_explanation(university):
    query, dataset, cluster = university
    text = explain_text(query, dataset, cluster, "multi-br")
    lines = text.splitlines()
    joins = [l for l in lines if l.lstrip().startswith("#")]
    assert joins == [
        "  #1 Brjoin on {y} (t4, t2) -> keyed{y} | broadcast: 3 x (5), target t2",
        "  #2 Brjoin on {y} (#1, t3) -> keyed{x} | broadcast: 3 x (|#1|), target t3",
        "  #3 Brjoin on {x} (#2, t1) -> keyed{x} | broadcast: 3 x (|#2|), target t1",
        "  #4 Brjoin on {x} (#3, t5) -> keyed{x} | broadcast: 3 x (|#3|), target t5",
    ]


def test_hybrid_explanation_shows_only_the_opening_step(university):
    query, dataset, cluster = university
    text = explain_text(query, dataset, cluster, "hybrid")
    assert ("selections (one shared store pass over t1, t2, t3, t4, t5: "
            "2458 + 5 x 1843 = 11673 < 5 x 2458 tuples):") in text
    # t4 and t2 are both keyed on y already: joining them in place is free
    assert "opening step: Pjoin on {y} (t4, t2) | repartition: 0 tuples" in text
    assert text.rstrip().endswith("remaining steps are chosen at run time "
                                  "from measured intermediate sizes.")
    assert "plan:" not in text


def test_hybrid_explanation_without_merged_scan():
    # every triple matches a pattern, so the shared subset is the whole store
    wl = generate(_FULL_STAR)
    dataset, cluster = make_dataset(wl.triples, m=4)
    text = explain_text(wl.query, dataset, cluster, "hybrid")
    assert ("selections (one store scan each: a shared pass would read "
            "150 + 5 x 150 = 900 >= 5 x 150 tuples):") in text


def test_co_located_join_renders_no_movement():
    query = parse_query(
        "PREFIX ex: <http://example.org/> SELECT ?s ?a ?b WHERE { "
        "?s ex:p ?a . ?s ex:q ?b . }")
    from sparqlsim import generate_for_query
    triples = generate_for_query(query, solutions=8, seed=1)
    dataset, cluster = make_dataset(triples, m=4)
    text = explain_text(query, dataset, cluster, "pjoin")
    assert "repartition: none (inputs co-located)" in text


def test_unknown_strategy_rejected(university):
    query, dataset, cluster = university
    with pytest.raises(ValueError, match="unknown strategy"):
        explain_text(query, dataset, cluster, "zigzag")


_OPENING = re.compile(
    r"opening step: (Pjoin|Brjoin) on \{([^}]*)\} \((t\d+), (t\d+)\) "
    r"\| (?:repartition|broadcast): (\d+) tuples(?:, target (t\d+))?$")
_FULL_STAR = WorkloadSpec(name="star", shape="star", pattern_count=5,
                          subject_count=30)
_ALTERNATING_CHAIN = WorkloadSpec(
    name="afr", shape="chain", pattern_count=4, subject_count=40,
    profile="alternating-frequent-rare", noise_factor=100)


@pytest.mark.parametrize("workload, base", [
    ("q8", BasePartition.SUBJECT),         # shares one store pass
    ("star", BasePartition.OBJECT),        # scans once per pattern
    ("chain", BasePartition.SUBJECT),      # opens with a Pjoin
    ("chain", BasePartition.PREDICATE)])   # opens with a Brjoin
def test_hybrid_opening_step_is_the_first_executed_join(q8_workload, workload, base):
    """The opening step explain prints is the first join a hybrid run executes:
    same algorithm, key, inputs, target and transfer."""
    wl = {"q8": q8_workload, "star": generate(_FULL_STAR),
          "chain": generate(_ALTERNATING_CHAIN)}[workload]
    dataset, cluster = make_dataset(wl.triples, m=4, base=base)
    text = explain_text(wl.query, dataset, cluster, "hybrid")
    [step] = [m for m in map(_OPENING.match, text.splitlines()) if m]
    kind, on, first, second, transfer, target = step.groups()
    rows = {f"t{i + 1}": int(n) for i, n in
            enumerate(re.findall(r"^  t\d+: .* \| rows=(\d+) \|", text, re.M))}

    run = run_strategy("hybrid", wl.query, dataset, cluster)
    entry = next(e for e in run.trace.entries if e.kind in ("pjoin", "brjoin"))
    # an operator that moved nothing has no ledger line
    counters = run.ledger.per_operator.get(entry.operator)
    moved = counters.shuffled_modeled + counters.broadcast if counters else 0
    assert entry.kind == kind.lower()
    assert ",".join(v.lexical for v in sorted(entry.on)) == on
    assert [size for size, _ in entry.inputs] == [rows[first], rows[second]]
    assert entry.target == (None if target is None else (first, second).index(target))
    assert moved == int(transfer)
    assert ("one shared store pass" in text) == run.plan.shared_scan
