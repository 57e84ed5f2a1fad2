"""N-Triples reader/writer: round-trips, error reporting, edge cases."""

import pytest
from hypothesis import given, strategies as st

from sparqlsim import (
    BasePartition, Cluster, ParseError, WorkloadSpec, generate, iri, lit,
    load_partitioned, parse_ntriples, serialize_ntriples,
)
from sparqlsim.terms import Triple, blank, literal_token

from conftest import NT_GRAMMAR_VIOLATIONS


def test_parse_basic_forms():
    text = """
# a comment line
<http://e/a> <http://e/p> <http://e/b> .
<http://e/a> <http://e/p> "plain" .
<http://e/a> <http://e/p> "typed"^^<http://www.w3.org/2001/XMLSchema#int> .
<http://e/a> <http://e/p> "tagged"@en-GB .
_:n1 <http://e/p> _:n2 .
"""
    triples = parse_ntriples(text)
    assert len(triples) == 5
    assert triples[0] == Triple(iri("http://e/a"), iri("http://e/p"), iri("http://e/b"))
    assert triples[1][2] is lit("plain")
    assert triples[3][2].lexical == '"tagged"@en-GB'
    assert triples[4][0] is blank("n1") and triples[4][2] is blank("n2")


def test_parse_preserves_duplicates_and_order():
    line = '<http://e/a> <http://e/p> <http://e/b> .\n'
    triples = parse_ntriples(line * 3)
    assert len(triples) == 3
    assert triples[0] == triples[1] == triples[2]


def test_parse_error_carries_line_number():
    text = '<http://e/a> <http://e/p> <http://e/b> .\nnot a triple\n'
    with pytest.raises(ParseError) as err:
        parse_ntriples(text, source="data.nt")
    assert err.value.line == 2
    assert "data.nt:2" in str(err.value)


@pytest.mark.parametrize("bad", [
    '<http://e/a> <http://e/p> .',                      # missing object
    '<http://e/a> "lit" <http://e/b> .',                # literal predicate
    '"lit" <http://e/p> <http://e/b> .',                # literal subject
    '<http://e/a> <http://e/p> <http://e/b>',           # missing final dot
    '<http://e/a> <http://e/p> "unterminated .',
])
def test_malformed_lines_rejected(bad):
    with pytest.raises(ParseError):
        parse_ntriples(bad)


def test_parse_interns_each_token_kind():
    [t] = parse_ntriples('_:b0 <http://e/a> "x" .')
    assert t.s is blank("b0") and t.p is iri("http://e/a")
    assert t.o is literal_token('"x"') and t.o.lexical == '"x"'
    [t] = parse_ntriples("<http://e/a> <http://e/p> _:b1 .")
    assert t.s is iri("http://e/a") and t.o is blank("b1")
    with pytest.raises(ParseError):
        parse_ntriples("<http://e/a> <http://e/p> ?x .")


def test_serialize_round_trip(d0_triples):
    text = serialize_ntriples(d0_triples)
    assert parse_ntriples(text) == d0_triples
    # serialization is canonical: one line per triple ending in " ."
    lines = text.strip().splitlines()
    assert len(lines) == len(d0_triples)
    assert all(line.endswith(" .") for line in lines)


_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5), _texts),
                max_size=20))
def test_round_trip_with_generated_literals(rows):
    triples = [
        Triple(iri(f"http://e/s{s}"), iri(f"http://e/p{p}"), lit(text))
        for s, p, text in rows
    ]
    assert parse_ntriples(serialize_ntriples(triples)) == triples


def test_whitespace_crlf_comments_and_blank_lines_between_triples():
    text = ("  <http://e/a> <http://e/p> <http://e/b> .  \r\n"
            "\r\n"
            "# a comment\r\n"
            "   # an indented comment\n"
            "\t \n"
            '\t_:x <http://e/p> "v"@en .\r\n'
            "<http://e/a>\t<http://e/p>  _:y.\r")
    assert parse_ntriples(text) == [
        Triple(iri("http://e/a"), iri("http://e/p"), iri("http://e/b")),
        Triple(blank("x"), iri("http://e/p"), lit("v", lang="en")),
        Triple(iri("http://e/a"), iri("http://e/p"), blank("y")),
    ]


def test_malformed_line_after_many_good_ones_reports_its_line_number():
    good = [f"<http://e/s{i}> <http://e/p> <http://e/o{i}> ." for i in range(1000)]
    lines = good[:500] + ["", "# halfway"] + good[500:] + ["<http://e/s> <http://e/p> ."]
    with pytest.raises(ParseError) as err:
        parse_ntriples("\n".join(lines), source="big.nt")
    assert err.value.line == 1003
    assert "big.nt:1003" in str(err.value)


@pytest.mark.parametrize("bad", [
    '<http://e/a> "lit" <http://e/b> .',                # literal predicate
    '<http://e/a> _:p <http://e/b> .',                  # blank predicate
    '"lit" <http://e/p> <http://e/b> .',                # literal subject
    '"lit"@en <http://e/p> "o" .',
])
def test_kinds_the_line_regex_refuses(bad):
    with pytest.raises(ParseError):
        parse_ntriples(bad)


@pytest.mark.parametrize("bad", NT_GRAMMAR_VIOLATIONS)
def test_grammar_violations_rejected(bad):
    with pytest.raises(ParseError):
        parse_ntriples(bad)


def test_blank_labels_hold_interior_dots():
    # A dot inside a label is part of it; one right after the label is the
    # line's terminator.
    [t] = parse_ntriples("_:a.b <http://e/p> _:y.")
    assert t.s is blank("a.b") and t.o is blank("y")
    [t] = parse_ntriples("_:a-1 <http://e/p> _:c.d_ .")
    assert t.s is blank("a-1") and t.o is blank("c.d_")


@pytest.mark.parametrize("token", [
    '"café"', r'"\U0001F600"', r'"it\'s"', r'"\u00E9"',
    r'"\t\b\n\r\f\"\\"@en', r'"\u00e9x"^^<http://e/t>'])
def test_literal_escapes_are_kept_verbatim(token):
    [t] = parse_ntriples(f"<http://e/s> <http://e/p> {token} .")
    assert t.o is literal_token(token) and t.o.lexical == token


# Absolute IRIs: a scheme, its colon, then any IRI characters.
_IRIS = st.builds("{}:{}".format,
                  st.from_regex(r"[A-Za-z][A-Za-z0-9+.-]{0,3}", fullmatch=True),
                  st.text(alphabet=st.sampled_from("ab:#/.é中%"), max_size=10))
_BLANKS = st.from_regex(r"[A-Za-z0-9](?:[A-Za-z0-9_.-]{0,4}[A-Za-z0-9_-])?",
                        fullmatch=True)
_LITERALS = st.one_of(
    st.builds(lit, _texts),
    st.builds(lambda text, tag: lit(text, lang=tag), _texts,
              st.sampled_from(["en", "de-CH", "x-a1"])),
    st.builds(lambda text, dt: lit(text, datatype=dt), _texts, _IRIS))
_SUBJECTS = st.one_of(st.builds(iri, _IRIS), st.builds(blank, _BLANKS))
_OBJECTS = st.one_of(_SUBJECTS, _LITERALS)


@given(st.lists(st.tuples(_SUBJECTS, st.builds(iri, _IRIS), _OBJECTS), max_size=20))
def test_parsed_triples_equal_the_validated_ones(parts):
    triples = [Triple(s, p, o) for s, p, o in parts]
    parsed = parse_ntriples(serialize_ntriples(triples))
    assert parsed == triples
    # every triple the parser builds passes the validating constructor
    assert all(Triple(t.s, t.p, t.o) == t for t in parsed)


@pytest.mark.parametrize("spec", [
    WorkloadSpec(name="star", shape="star", pattern_count=4, subject_count=40, filler=60),
    WorkloadSpec(name="chain", shape="chain", pattern_count=3, subject_count=40),
    WorkloadSpec(name="snowflake", shape="snowflake", pattern_count=5, subject_count=60),
], ids=lambda spec: spec.shape)
def test_reparsed_workload_loads_to_the_generated_store(spec):
    """Serialized and parsed again, a generated dataset loads to the store
    its generator's triples load to, under every base and node count."""
    triples = generate(spec).triples
    parsed = parse_ntriples(serialize_ntriples(triples))
    for base in BasePartition:
        for m in (1, 3, 4):
            assert load_partitioned(parsed, Cluster(m), base) \
                == load_partitioned(triples, Cluster(m), base)
