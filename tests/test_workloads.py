"""Workload generators: sizes are exact and closed-form, the synthetic-data
builder produces the requested number of full matches, and suite files load
with strict validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparqlsim import (
    Query, WorkloadSpec, as_multiset, generate, generate_for_query,
    oracle_eval, parse_query,
)
from sparqlsim.errors import ParseError
from sparqlsim.logical import Shape, classify_shape
from sparqlsim.terms import TriplePattern, iri, var
from sparqlsim.workloads import (
    HEAD_NOISE, NOISE_FACTOR, PARALLEL, load_suite, snowflake_query,
)

from conftest import WORKLOAD_DIR, match_binding, snowflake_selection_sizes


def _selection_counts(workload):
    return {i: sum(match_binding(pattern, t) is not None for t in workload.triples)
            for i, pattern in enumerate(workload.query.patterns)}


# ---------------------------------------------------------------- generators

def test_star_counts():
    wl = generate(WorkloadSpec(name="s", shape="star", pattern_count=5,
                               subject_count=200, filler=30))
    assert len(wl.triples) == 5 * 200 + 30
    assert _selection_counts(wl) == {i: 200 for i in range(5)}
    assert classify_shape(wl.query.patterns).shape is Shape.STAR
    rows = oracle_eval(wl.query.patterns, wl.triples)
    assert len(rows) == 200  # one match per entity, branch values distinct


def test_chain_counts_plain():
    wl = generate(WorkloadSpec(name="c", shape="chain", pattern_count=6,
                               subject_count=7))
    assert len(wl.triples) == 6 * 7
    assert classify_shape(wl.query.patterns).shape is Shape.CHAIN
    assert len(oracle_eval(wl.query.patterns, wl.triples)) == 7


def test_chain_alternating_profile_sizes():
    k, b = 4, 40
    wl = generate(WorkloadSpec(name="afr", shape="chain", pattern_count=k,
                               subject_count=b,
                               profile="alternating-frequent-rare"))
    counts = _selection_counts(wl)
    frequent = b + NOISE_FACTOR * b
    assert counts == {0: frequent, 1: b, 2: frequent, 3: b}
    assert len(oracle_eval(wl.query.patterns, wl.triples)) == b


def test_chain_front_loaded_profile_sizes():
    k, b = 15, 2
    wl = generate(WorkloadSpec(name="fll", shape="chain", pattern_count=k,
                               subject_count=b, profile="front-loaded-large"))
    counts = _selection_counts(wl)
    head = HEAD_NOISE + b
    assert counts[0] == head and counts[1] == head
    assert all(counts[j] == b + PARALLEL for j in range(2, k))
    assert len(oracle_eval(wl.query.patterns, wl.triples)) == b


def test_snowflake_sizes_match_the_generated_data():
    wl = generate(WorkloadSpec(name="uni", shape="snowflake", pattern_count=5,
                               subject_count=600))
    predicted = snowflake_selection_sizes(600)
    assert predicted == {0: 600, 1: 20, 2: 606, 3: 5, 4: 612}
    assert _selection_counts(wl) == predicted
    # store = selections + one enrollment-noise triple per student
    assert len(wl.triples) == sum(predicted.values()) + 600 + 15
    assert wl.query == snowflake_query()
    assert len(oracle_eval(wl.query.patterns, wl.triples)) == 151


def test_spec_validation():
    good = dict(name="w", shape="star", pattern_count=3, subject_count=5)
    with pytest.raises(ValueError, match="unknown workload shape"):
        WorkloadSpec(**{**good, "shape": "comet"})
    with pytest.raises(ValueError, match="pattern_count"):
        WorkloadSpec(**{**good, "pattern_count": 0})
    with pytest.raises(ValueError, match="subject_count"):
        WorkloadSpec(**{**good, "subject_count": 0})
    with pytest.raises(ValueError, match="filler"):
        WorkloadSpec(**{**good, "filler": -1})
    with pytest.raises(ValueError, match="five-pattern"):
        WorkloadSpec(name="w", shape="snowflake", pattern_count=4,
                     subject_count=5)
    with pytest.raises(ValueError, match="only applies to chains"):
        WorkloadSpec(**{**good, "profile": "alternating-frequent-rare"})
    with pytest.raises(ValueError, match="unknown chain profile"):
        WorkloadSpec(name="w", shape="chain", pattern_count=4,
                     subject_count=5, profile="bogus")
    with pytest.raises(ValueError, match="at least 4"):
        WorkloadSpec(name="w", shape="chain", pattern_count=3,
                     subject_count=5, profile="front-loaded-large")


# ------------------------------------------------- query-directed generation

TWO_HOP = parse_query(
    "PREFIX ex: <http://example.org/> SELECT ?a ?b ?c WHERE { "
    "?a ex:p ?b . ?b ex:q ?c . }")


def test_generate_for_query_solution_count():
    triples = generate_for_query(TWO_HOP, solutions=12)
    assert len(triples) == 24
    assert len(oracle_eval(TWO_HOP.patterns, triples)) == 12


def test_generate_for_query_noise_never_completes_a_match():
    triples = generate_for_query(TWO_HOP, solutions=5, noise=8)
    assert len(triples) == 10 + 16
    assert len(oracle_eval(TWO_HOP.patterns, triples)) == 5
    per_pattern = generate_for_query(TWO_HOP, solutions=5, noise=[8, 2])
    assert len(per_pattern) == 10 + 10


def test_generate_for_query_gives_a_ground_pattern_no_noise():
    query = parse_query("SELECT ?a WHERE { <http://e/s> <http://e/p> <http://e/o> . "
                        "?a <http://e/q> ?b . }")
    triples = generate_for_query(query, solutions=3, noise=4)
    # the ground triple once, three solutions and four dead ends for ?a q ?b
    assert len(triples) == 1 + 3 + 4
    assert sum(t.p == iri("http://e/p") for t in triples) == 1


def test_generate_for_query_is_deterministic_and_deduplicated():
    a = generate_for_query(TWO_HOP, solutions=9, seed=3, noise=4)
    b = generate_for_query(TWO_HOP, solutions=9, seed=3, noise=4)
    assert a == b
    c = generate_for_query(TWO_HOP, solutions=9, seed=4, noise=4)
    assert as_multiset(a) != as_multiset(c)  # namespaces carry the seed
    assert len(set(a)) == len(a)


def test_generate_for_query_ground_pattern():
    query = Query((var("x"),), (
        TriplePattern(var("x"), iri("http://example.org/p"),
                      iri("http://example.org/o")),
        TriplePattern(var("x"), iri("http://example.org/q"), var("y")),
    ))
    triples = generate_for_query(query, solutions=4, noise=3)
    # the first pattern has one variable so its dead ends share the ground
    # object; both patterns still get their own noise rows
    assert len(oracle_eval(query.patterns, triples)) == 4


def test_generate_for_query_validation():
    with pytest.raises(ValueError, match="solutions"):
        generate_for_query(TWO_HOP, solutions=-1)
    with pytest.raises(ValueError, match="noise list"):
        generate_for_query(TWO_HOP, solutions=1, noise=[1, 2, 3])
    for noise in (-5, [-2, 3], [3, -1]):
        with pytest.raises(ValueError, match="noise counts must be >= 0"):
            generate_for_query(TWO_HOP, solutions=1, noise=noise)


@settings(max_examples=25, deadline=None)
@given(solutions=st.integers(min_value=0, max_value=30),
       noise=st.integers(min_value=0, max_value=20),
       seed=st.integers(min_value=0, max_value=999))
def test_generate_for_query_exact_match_count(solutions, noise, seed):
    triples = generate_for_query(TWO_HOP, solutions=solutions, seed=seed,
                                 noise=noise)
    assert len(oracle_eval(TWO_HOP.patterns, triples)) == solutions


# -------------------------------------------------------------- suite files

def test_bundled_suites_load():
    star = load_suite(WORKLOAD_DIR / "star-suite.json")
    assert star.name == "star-suite"
    assert star.m == (2, 4, 8)
    assert star.partitioning == "subject"
    assert [w.pattern_count for w in star.workloads] == [3, 5, 10, 15]
    assert all(w.shape == "star" for w in star.workloads)

    shapes = load_suite(WORKLOAD_DIR / "shape-suite.json")
    assert {w.shape for w in shapes.workloads} == {"star", "chain", "snowflake"}
    assert shapes.m == (4,)


def test_suite_validation(tmp_path):
    def write(payload):
        p = tmp_path / "suite.json"
        p.write_text(payload, encoding="utf-8")
        return p

    with pytest.raises(ParseError, match="invalid JSON"):
        load_suite(write("{"))
    with pytest.raises(ParseError, match="JSON object"):
        load_suite(write("[1, 2]"))
    with pytest.raises(ParseError, match="nonempty 'workloads'"):
        load_suite(write('{"name": "x", "workloads": []}'))
    with pytest.raises(ParseError, match="unknown keys: colour"):
        load_suite(write('{"workloads": [{"name": "a", "shape": "star", '
                         '"pattern_count": 3, "subject_count": 5, '
                         '"colour": "red"}]}'))
    with pytest.raises(ParseError, match="missing keys: shape"):
        load_suite(write('{"workloads": [{"name": "a", '
                         '"pattern_count": 3, "subject_count": 5}]}'))
    with pytest.raises(ParseError, match="unknown workload shape"):
        load_suite(write('{"workloads": [{"name": "a", "shape": "comet", '
                         '"pattern_count": 3, "subject_count": 5}]}'))
    defaults = load_suite(write('{"workloads": [{"name": "a", "shape": "star", '
                                '"pattern_count": 3, "subject_count": 5}]}'))
    assert defaults.name == "suite"          # falls back to the file stem
    assert defaults.m == (4,)
    assert defaults.strategies == ("pjoin", "mono-br", "multi-br", "hybrid")
    assert defaults.partitioning == "subject"
