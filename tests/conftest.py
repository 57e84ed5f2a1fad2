"""Shared fixtures: a tiny hand-checked dataset, the bundled five-pattern
university fixture, helpers for running every strategy against the
single-node reference evaluator, and a builder for hand-made relations."""

from pathlib import Path

import pytest

from sparqlsim import (
    BasePartition, BindingRow, Cluster, Dataset, Query, Relation, STRATEGIES, as_multiset,
    iri, lit, load_partitioned, oracle_eval, run_strategy,
    generate, WorkloadSpec,
)
from sparqlsim.cluster import placement
from sparqlsim.terms import TERMS, Triple

REPO_ROOT = Path(__file__).resolve().parents[1]
QUERY_DIR = REPO_ROOT / "queries"
WORKLOAD_DIR = REPO_ROOT / "workloads"

EX = "http://example.org/"

A = iri(EX + "a")
B = iri(EX + "b")
C = iri(EX + "c")
KNOWS = iri(EX + "knows")
NAME = iri(EX + "name")
AGE = iri(EX + "age")

# Six triples small enough to evaluate by hand; used for exact expected-row
# assertions throughout the unit tests.
D0 = [
    Triple(A, KNOWS, B),
    Triple(A, KNOWS, C),
    Triple(B, KNOWS, C),
    Triple(A, NAME, lit("A")),
    Triple(B, NAME, lit("B")),
    Triple(C, AGE, lit("7")),
]


# Lines the W3C N-Triples grammar rejects: a blank node label ends in a
# name character, not a dot, a literal's escapes are ECHAR or UCHAR, and
# every IRI starts with a scheme.
NT_GRAMMAR_VIOLATIONS = [
    '<http://e/s> <http://e/p> _:a. .',               # object label "a."
    '_:b.. <http://e/p> <http://e/o>.',               # subject label "b.."
    r'<http://e/s> <http://e/p> "a\u00zz" .',         # \u takes 4 hex digits
    r'<http://e/s> <http://e/p> "a\U0001F60" .',      # \U takes 8
    r'<http://e/s> <http://e/p> "a\x41" .',           # not an ECHAR
    '<s> <http://e/p> <http://e/o> .',                # relative subject IRI
    '<http://e/s> <p> <http://e/o> .',                # relative predicate IRI
    '<http://e/s> <http://e/p> <o> .',                # relative object IRI
    '<http://e/s> <http://e/p> "a"^^<t> .',           # relative datatype IRI
    '<http://e/s> <http://e/p> <1a:o> .',             # a scheme starts with a letter
]
# The escape cases as queries: a query literal follows the same escape
# rule. A query may hold a relative IRI, as SPARQL's IRIREF allows.
LITERAL_VIOLATION_QUERIES = [
    "SELECT ?x WHERE { " + line.replace("<http://e/s>", "?x") + " }"
    for line in NT_GRAMMAR_VIOLATIONS if "\\" in line]


@pytest.fixture
def d0_triples() -> list[Triple]:
    return list(D0)


def make_dataset(triples, m: int = 4,
                 base: BasePartition = BasePartition.SUBJECT) -> tuple[Dataset, Cluster]:
    cluster = Cluster(m)
    return load_partitioned(triples, cluster, base), cluster


def binding_row(mapping) -> BindingRow:
    """The binding row of a variable-to-term ``mapping``: its pairs in
    sorted variable order."""
    return BindingRow(sorted(mapping.items()))


def encode_rows(columns, rows) -> tuple[tuple, ...]:
    """Binding rows in the engine's row format for a relation over
    ``columns``: the tuple of each row's term ids in column order. A row
    that does not bind exactly the columns' variables, in the sorted
    variable order of a binding row, is rejected."""
    columns = tuple(columns)
    order = tuple(sorted(columns))
    out = []
    for row in rows:
        if tuple(v for v, _ in row) != order:
            raise ValueError(f"row {row!r} does not bind schema {list(order)}")
        out.append(tuple(row.get(v).id for v in columns))
    return tuple(out)


def encode_group(triples) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Triples of one predicate in the store's format: the subject id
    column and the object id column."""
    return tuple(t.s.id for t in triples), tuple(t.o.id for t in triples)


def decode_group(p: int, group) -> list[Triple]:
    """The stored group of predicate id ``p`` as the triples it encodes,
    in order."""
    subjects, objects = group
    assert len(subjects) == len(objects)
    return [Triple(TERMS[s], TERMS[p], TERMS[o]) for s, o in zip(subjects, objects)]


def node_triples(dataset) -> list[list[Triple]]:
    """Each node's stored triples, decoded, group after group."""
    return [[t for p, group in groups.items() for t in decode_group(p, group)]
            for groups in dataset.groups]


def match_binding(pattern, triple: Triple) -> dict | None:
    """The binding ``pattern`` makes against ``triple``, variable to term,
    or None when the triple does not match: a direct reading of the decoded
    triple, independent of the engine's compiled selections."""
    binding = {}
    for term, value in zip(pattern, (triple.s, triple.p, triple.o)):
        if term.is_variable:
            if binding.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return binding


def make_relation(columns, rows, m: int, *, key=None,
                  start: int = 0) -> Relation:
    """A relation over ``columns`` (in that order) holding the binding
    ``rows`` on ``m`` nodes: hashed on ``key`` to the node
    :func:`sparqlsim.cluster.placement` picks, or else dealt round-robin
    from node ``start``."""
    columns = tuple(columns)
    encoded = encode_rows(columns, rows)
    buckets = [[] for _ in range(m)]
    if key is not None:
        for row, dest in zip(encoded, placement(columns, key, m)(encoded)):
            buckets[dest].append(row)
    else:
        for i, row in enumerate(encoded):
            buckets[(start + i) % m].append(row)
    return Relation(columns, tuple(map(tuple, buckets)), frozenset(key or ()))


@pytest.fixture(scope="session")
def q8_workload():
    """The five-pattern university fixture at its default test size."""
    return generate(WorkloadSpec(name="q8", shape="snowflake", pattern_count=5,
                                 subject_count=600))


def run_all_strategies(query: Query, triples, m: int = 4,
                       base: BasePartition = BasePartition.SUBJECT, **kwargs):
    dataset, cluster = make_dataset(triples, m, base)
    return {name: run_strategy(name, query, dataset, cluster, **kwargs)
            for name in STRATEGIES}


def assert_matches_oracle(query: Query, triples, m: int = 4,
                          base: BasePartition = BasePartition.SUBJECT, **kwargs):
    """Run all four strategies and compare each row multiset to the
    single-node reference evaluation."""
    expected = as_multiset(oracle_eval(query.patterns, triples,
                                       select=query.select))
    results = run_all_strategies(query, triples, m, base, **kwargs)
    for name, result in results.items():
        got = as_multiset(result.relation.rows())
        assert got == expected, (
            f"{name} disagrees with the reference evaluation on m={m}: "
            f"{sum(got.values())} rows vs {sum(expected.values())}")
    return results


# One verdict line per acceptance criterion, collected by the acceptance
# tests and printed after the run summary (plain prints would be swallowed
# by pytest's output capture on passing tests).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
