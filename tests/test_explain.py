"""Plan explanations: exact text for the static strategies (sizes known
after selections) and the partial text for the adaptive one (only the
opening step is decidable before execution)."""

import re

import pytest

from sparqlsim import (
    BasePartition, Cluster, WorkloadSpec, generate, parse_query, run_strategy,
    serialize_ntriples,
)
from sparqlsim.cli import main
from sparqlsim.engine import STRATEGIES
from sparqlsim.errors import CartesianProductError
from sparqlsim.executor import Executor
from sparqlsim.explain import explain_text

from conftest import QUERY_DIR, REPO_ROOT, make_dataset


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
    profile="alternating-frequent-rare")


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
    assert entry.kind == kind.lower()
    assert ",".join(v.lexical for v in sorted(entry.on)) == on
    assert [size for size, _ in entry.inputs] == [rows[first], rows[second]]
    assert entry.target == (None if target is None else (first, second).index(target))
    assert entry.charges.total_transfer == int(transfer)
    assert ("one shared store pass" in text) == run.plan.shared_scan


def test_cross_product_is_rejected_before_any_scan(university, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("selections ran before the cross-product check")

    monkeypatch.setattr(Executor, "run_selections", no_scan)
    _, dataset, cluster = university
    query = parse_query("SELECT ?a ?b WHERE { ?a <http://p> ?x . ?b <http://q> ?y . }")
    for strategy in STRATEGIES:
        with pytest.raises(CartesianProductError):
            explain_text(query, dataset, cluster, strategy)
        with pytest.raises(CartesianProductError):
            run_strategy(strategy, query, dataset, cluster)


def test_cluster_must_match_the_store_before_planning(university, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("selections ran before the node-count check")

    monkeypatch.setattr(Executor, "run_selections", no_scan)
    query, dataset, _ = university
    message = "dataset is distributed over 4 nodes, cluster has 2"
    for strategy in STRATEGIES:
        with pytest.raises(ValueError, match=message):
            explain_text(query, dataset, Cluster(2), strategy)
        with pytest.raises(ValueError, match=message):
            run_strategy(strategy, query, dataset, Cluster(2))


# ------------------------------------------------------ pinned explain output

# Three components: a two-pattern star, a ground singleton, and a
# two-pattern chain. The adaptive strategy opens each component that has a
# join, so its explanation prints two opening steps.
_THREE_COMPONENTS_DATA = "".join(
    f'<http://e/s{i}> <http://e/p> <http://e/o{i}> .\n'
    f'<http://e/s{i}> <http://e/q> "v{i}" .\n' for i in range(2)
) + ("<http://e/a> <http://e/r> <http://e/b> .\n"
     "<http://e/b> <http://e/t> <http://e/k> .\n")
_THREE_COMPONENTS_QUERY = (
    "SELECT ?x ?y ?u WHERE { ?x <http://e/p> ?y . ?x <http://e/q> ?z . "
    "<http://e/a> <http://e/r> <http://e/b> . ?u <http://e/r> ?w . "
    "?w <http://e/t> ?k . }")


@pytest.mark.parametrize("key", ["subject", "object", "random"])
@pytest.mark.parametrize("case", ["q8", "three-components"])
def test_explain_all_strategies_pinned_output(capsys, tmp_path, q8_workload, case, key):
    """``explain --strategy all`` stdout is exactly
    ``tests/golden/explain-<case>-<key>.txt``."""
    data = tmp_path / "data.nt"
    if case == "q8":
        data.write_text(serialize_ntriples(q8_workload.triples), encoding="utf-8")
        query, options = QUERY_DIR / "q8.rq", ["-m", "4"]
    else:
        data.write_text(_THREE_COMPONENTS_DATA, encoding="utf-8")
        query = tmp_path / "query.rq"
        query.write_text(_THREE_COMPONENTS_QUERY, encoding="utf-8")
        options = ["-m", "3", "--allow-cross-product"]
    code = main(["explain", str(data), str(query), "--strategy", "all",
                 "--partition-key", key, *options])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    golden = REPO_ROOT / "tests" / "golden" / f"explain-{case}-{key}.txt"
    assert out == golden.read_text(encoding="utf-8")
