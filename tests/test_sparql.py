"""Query parser: supported subset, prefixes, errors, and round-trips."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from sparqlsim import Query, parse_query, serialize_query
from sparqlsim.cli import main
from sparqlsim.errors import ParseError, UnsupportedFeatureError
from sparqlsim.sparql import RDF_TYPE, parse_query_file
from sparqlsim.terms import TriplePattern, blank, iri, lit, var

from conftest import LITERAL_VIOLATION_QUERIES, QUERY_DIR


def test_parse_minimal_query():
    q = parse_query("SELECT ?x WHERE { ?x <http://e/p> ?y . }")
    assert q.select == (var("x"),)
    assert q.patterns == (TriplePattern(var("x"), iri("http://e/p"), var("y")),)


def test_parse_prefixes_and_a_keyword():
    q = parse_query("""
        PREFIX ex: <http://e/>
        SELECT ?x ?y
        WHERE {
          ?x a ex:Widget .
          ?x ex:linked ?y
        }
    """)
    assert q.patterns[0][1] is RDF_TYPE
    assert q.patterns[0][2] is iri("http://e/Widget")
    assert q.patterns[1][1] is iri("http://e/linked")
    # the final dot before '}' is optional
    assert len(q.patterns) == 2


def test_parse_literals_with_prefixed_datatype():
    q = parse_query("""
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?x WHERE { ?x <http://e/age> "7"^^xsd:int . }
    """)
    assert q.patterns[0][2] is lit("7", datatype="http://www.w3.org/2001/XMLSchema#int")


@pytest.mark.parametrize("token, expected", [
    ('"a^^b"', lit("a^^b")),
    ('"q^^x:y"', lit("q^^x:y")),
    ('"q^^<http://e/y>"', lit("q^^<http://e/y>")),
    ('"a"^^:t', lit("a", datatype="http://e/t")),
    ('"a^^b"^^x:t', lit("a^^b", datatype="http://e/t")),
    ('"x:y"^^<http://e/t>', lit("x:y", datatype="http://e/t")),
])
def test_literal_datatype_is_read_after_the_closing_quote(token, expected):
    # Carets inside the quotes are text; the empty prefix names a datatype too.
    q = parse_query("PREFIX x: <http://e/> PREFIX : <http://e/> "
                    "SELECT ?s WHERE { ?s <http://e/p> " + token + " . }")
    assert q.patterns[0].o is expected


_LITERAL_TEXT = st.text(alphabet='ab^:@#.<>{} "\\\n\t\r\'\u00e9', max_size=12)
# Datatypes, some holding characters no IRI may hold; relative ones are
# IRIs to a query.
_DATATYPES = st.text(alphabet='at:/#^<>{}|`"\\ \n\u00e9', max_size=8)


@settings(max_examples=150, deadline=None)
@given(_LITERAL_TEXT, st.one_of(
    st.sampled_from([{}, {"datatype": "http://e/t"}, {"lang": "en-GB"}]),
    st.builds(lambda datatype: {"datatype": datatype}, _DATATYPES)))
@example("", {"datatype": "http://e/a^^b"})
@example("", {"datatype": "t"})
def test_serialized_literals_parse_back(text, suffix):
    s = var("s")
    try:
        obj = lit(text, **suffix)
    except ValueError:
        # lit refuses just the datatypes the query grammar refuses.
        assert re.search(r'[<>"{}|^`\\\x00-\x20]', suffix["datatype"])
        return
    q = Query((s,), (TriplePattern(s, iri("http://e/p"), obj),))
    assert parse_query(serialize_query(q)) == q


def test_queries_keep_relative_iris():
    # SPARQL's IRIREF allows a relative IRI; only N-Triples data refuses one.
    q = parse_query('SELECT ?x WHERE { ?x <p> <o> . ?x <http://e/q> "a"^^<t> . }')
    assert q.patterns == (TriplePattern(var("x"), iri("p"), iri("o")),
                          TriplePattern(var("x"), iri("http://e/q"), lit("a", datatype="t")))


def test_blank_label_stops_before_a_pattern_separator():
    # As in N-Triples, a label may hold a dot but not end in one.
    q = parse_query("SELECT ?x WHERE { ?x <http://e/p> _:a. ?x <http://e/q> _:b.c }")
    assert [p.o for p in q.patterns] == [blank("a"), blank("b.c")]


def test_literal_escapes_are_kept_verbatim():
    token = r'"tab\t quote\" e\u00e9 \U0001F600"'
    q = parse_query("SELECT ?x WHERE { ?x <http://e/p> " + token + "@en }")
    assert q.patterns[0][2].lexical == token + "@en"


def test_undeclared_prefix_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_query("SELECT ?x WHERE { ?x ex:p ?y . }")


@pytest.mark.parametrize("text,feature", [
    ("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER(?y > 3) }", "FILTER"),
    ("SELECT ?x WHERE { OPTIONAL { ?x <http://e/p> ?y . } }", "OPTIONAL"),
    ("SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y . }", "DISTINCT"),
    ("SELECT ?x WHERE { ?x <http://e/p> ?y . } LIMIT 10", "LIMIT"),
    ("SELECT ?x WHERE { ?x <http://e/p> ?y . } ORDER BY ?x", "ORDER"),
    ("SELECT * WHERE { ?x <http://e/p> ?y . }", "SELECT *"),
    # An unsupported word wins over a parse error that comes before it.
    ("SELECT ?x WHERE LIMIT { ?x <http://e/p> ?y }", "LIMIT"),
    # SPARQL 1.1 syntax with no keyword.
    ("SELECT (COUNT(?x) AS ?c) WHERE { ?x <http://e/p> ?y . }", "SELECT expression"),
    ("SELECT ?x WHERE { ?x <http://e/p> ?y , ?z . }", "object list"),
    ("SELECT ?x WHERE { ?x <http://e/p> ?y ; <http://e/q> ?z . }",
     "predicate-object list"),
    ("SELECT ?x WHERE { { ?x <http://e/p> ?y . } }", "nested group"),
])
def test_unsupported_features_are_flagged(text, feature):
    with pytest.raises(UnsupportedFeatureError) as err:
        parse_query(text)
    assert err.value.feature == feature


@pytest.mark.parametrize("text", [
    "",
    "SELECT WHERE { ?x <http://e/p> ?y . }",
    "SELECT ?x { ?x <http://e/p> ?y . }",
    "SELECT ?x WHERE { }",
    "SELECT ?x WHERE { ?x <http://e/p> }",
    "SELECT ?z WHERE { ?x <http://e/p> ?y . }",   # ?z not bound by any pattern
    *LITERAL_VIOLATION_QUERIES,                   # escapes as in N-Triples
    # A keyword in a prefixed name's local part, or in a malformed literal,
    # is text, also when lexing fails elsewhere.
    "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:a.LIMIT ?y . } %",
    'SELECT ?x WHERE { ?x <http://e/p> "a\\q LIMIT" . }',
    # A property path is no token of the grammar; syntax with no keyword is
    # reported where the parser meets it, after an earlier parse error.
    "SELECT ?x WHERE { ?x <http://e/p>+ ?y . }",
    "SELECT ?x WHERE { ?x <http://e/p>/<http://e/q> ?y . }",
    "SELECT ?x WHERE ?x <http://e/p> ?y , ?z .",
])
def test_malformed_queries_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_query(text)


@pytest.mark.parametrize("text, message", [
    ("SELECT ?x WHERE { ?x <http://e/p> ?y . } ?z",
     "q.rq:1: unexpected trailing input: '?z'"),
    ("PREFIX ex <http://e/> SELECT ?x WHERE { ?x <http://e/p> ?y . }",
     "q.rq:1: expected a prefix name ending in ':', got 'ex'"),
    ("PREFIX ex: ex:foo SELECT ?x WHERE { ?x <http://e/p> ?y . }",
     "q.rq:1: expected an IRI after PREFIX ex:, got 'ex:foo'"),
    ("SELECT ?x", "q.rq:1: unexpected end of query in select list"),
    ("SELECT ?x WHERE { ?x <http://e/p> ?y .",
     "q.rq:1: unexpected end of query inside group (missing '}')"),
    ("SELECT ?x WHERE ?x <http://e/p> ?y .",
     "q.rq:1: expected '{' after WHERE, got '?x'"),
    ('SELECT ?x WHERE {\n  "a" <http://e/p> ?x . }',
     'q.rq:2: pattern subject cannot be a literal, got "a"'),
    ('SELECT ?x WHERE { ?x <http://e/p> "1"^^xsd:int . }',
     "q.rq:1: undeclared prefix 'xsd': in literal datatype"),
])
def test_each_parse_error_names_its_cause(capsys, tmp_path, text, message):
    with pytest.raises(ParseError) as err:
        parse_query(text, source="q.rq")
    assert str(err.value) == message
    data, query = tmp_path / "d.nt", tmp_path / "q.rq"
    data.write_text("<http://e/s> <http://e/p> <http://e/o> .\n", encoding="utf-8")
    query.write_text(text, encoding="utf-8")
    assert main(["query", str(data), str(query)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.replace("q.rq", str(query), 1) + "\n"


def test_query_validation_direct_construction():
    pat = TriplePattern(var("x"), iri("http://e/p"), var("y"))
    with pytest.raises(ValueError):
        Query((), ())
    with pytest.raises(ValueError):
        Query((iri("http://e/a"),), (pat,))
    q = Query((var("y"), var("x")), (pat,))
    assert q.all_vars == frozenset({var("x"), var("y")})


def test_serialize_round_trip():
    q = parse_query("""
        PREFIX ex: <http://e/>
        SELECT ?x ?z WHERE {
          ?x a ex:Widget .
          ?x ex:tag "a\\"b" .
          ?x ex:next ?z .
        }
    """)
    again = parse_query(serialize_query(q))
    assert again == q


def test_parse_query_file_collects_metadata():
    query, meta = parse_query_file(QUERY_DIR / "watdiv_c3.rq")
    assert meta["label"] == "catalog-complex"
    assert len(query.patterns) == 6
    assert query.select == (var("v0"),)


def test_parse_query_file_reads_metadata_past_blank_lines(tmp_path):
    path = tmp_path / "q.rq"
    path.write_text("# label: first\n\n   \n# shape: star\nSELECT ?x WHERE { ?x <http://e/p> ?y . }\n"
                    "# after: the query\n", encoding="utf-8")
    query, meta = parse_query_file(path)
    assert meta == {"label": "first", "shape": "star"}
    assert query.select == (var("x"),)


def test_bundled_queries_parse():
    for name in ("q8.rq", "watdiv_s1.rq", "watdiv_f5.rq", "watdiv_c3.rq"):
        query, _ = parse_query_file(QUERY_DIR / name)
        assert query.patterns


def test_error_line_numbers():
    text = "SELECT ?x\nWHERE {\n  ?x <http://e/p> ?y ?z\n}"
    with pytest.raises(ParseError) as err:
        parse_query(text, source="q.rq")
    assert err.value.line == 3
    # A predicate-object list is reported at the line of its ';'.
    with pytest.raises(UnsupportedFeatureError) as unsupported:
        parse_query(text.replace("?z", ";"), source="q.rq")
    assert unsupported.value.line == 3
