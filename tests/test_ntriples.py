"""N-Triples reader/writer: round-trips, error reporting, edge cases."""

import pytest
from hypothesis import given, strategies as st

from sparqlsim import ParseError, iri, lit, parse_ntriples, serialize_ntriples
from sparqlsim.terms import Triple, blank, literal_token


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
