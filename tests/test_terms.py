"""Term model: interning, ordering, triples, patterns, and binding rows."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from sparqlsim.ntriples import parse_ntriples
from sparqlsim.terms import (
    EMPTY_ROW, TERMS, Term, TermKind, Triple, TriplePattern, blank,
    escape_literal_text, iri, lit, literal_token, pattern_vars, var,
)

from conftest import binding_row


def test_interning_returns_identical_objects():
    assert iri("http://example.org/a") is iri("http://example.org/a")
    assert var("x") is var("x")
    assert lit("hi") is lit("hi")
    assert blank("b1") is blank("b1")


_INTERN = {TermKind.IRI: iri, TermKind.LITERAL: literal_token,
           TermKind.BLANK: blank, TermKind.VARIABLE: var}


# A small alphabet, so that drawn terms often repeat a kind and form.
@given(st.lists(st.tuples(st.sampled_from(list(TermKind)),
                          st.text(alphabet='ab"', max_size=3),
                          st.booleans()), min_size=1, max_size=8))
def test_terms_are_canonical(drawn):
    terms = []
    for kind, lexical, as_int in drawn:
        term = Term(int(kind) if as_int else kind, lexical)
        assert term is _INTERN[kind](lexical)
        assert term.kind is kind and term.lexical == lexical
        assert TERMS[term.id] is term and hash(term) == term.id
        assert copy.copy(term) is term and copy.deepcopy(term) is term
        terms.append(term)
    for a, b in itertools.product(terms, repeat=2):
        assert (a == b) == (a is b) == ((a.kind, a.lexical) == (b.kind, b.lexical))


def test_terms_are_immutable_and_typed():
    term = iri("http://e/a")
    with pytest.raises(AttributeError):
        term.id = 0
    with pytest.raises(TypeError):
        Term(TermKind.IRI, 5)


def test_term_kinds():
    assert iri("http://e/a").kind is TermKind.IRI
    assert lit("x").kind is TermKind.LITERAL
    assert blank("n").kind is TermKind.BLANK
    assert var("v").kind is TermKind.VARIABLE
    assert var("v").is_variable and not iri("http://e/a").is_variable


def test_literal_forms():
    assert lit("hi").lexical == '"hi"'
    assert lit("hi", lang="en").lexical == '"hi"@en'
    dt = "http://www.w3.org/2001/XMLSchema#integer"
    assert lit("5", datatype=dt).lexical == f'"5"^^<{dt}>'
    with pytest.raises(ValueError):
        lit("x", datatype=dt, lang="en")


def test_escape_literal_text_round_trip_basics():
    assert escape_literal_text('say "hi"\n') == 'say \\"hi\\"\\n'
    assert lit('a\\b').lexical == '"a\\\\b"'


def test_total_order_groups_by_kind_then_lexical():
    terms = [var("z"), lit("a"), iri("http://e/z"), blank("a"), iri("http://e/a")]
    ordered = sorted(terms)
    assert [t.kind for t in ordered] == [
        TermKind.IRI, TermKind.IRI, TermKind.LITERAL, TermKind.BLANK,
        TermKind.VARIABLE]
    assert ordered[0] is iri("http://e/a")


@given(st.lists(st.tuples(st.sampled_from(list(TermKind)),
                          st.text(alphabet='ab"', max_size=3)), min_size=1, max_size=6))
def test_comparisons_follow_kind_then_lexical_order(drawn):
    terms = [Term(kind, lexical) for kind, lexical in drawn]
    for a, b in itertools.product(terms, repeat=2):
        ka, kb = (a.kind, a.lexical), (b.kind, b.lexical)
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    with pytest.raises(TypeError):
        terms[0] <= "a"


def test_triple_rejects_variables_and_literal_positions():
    s, p, o = iri("http://e/s"), iri("http://e/p"), iri("http://e/o")
    with pytest.raises(ValueError):
        Triple(var("x"), p, o)
    with pytest.raises(ValueError):
        Triple(lit("s"), p, o)
    with pytest.raises(ValueError):
        Triple(s, lit("p"), o)
    assert Triple(s, p, lit("fine"))[2] == lit("fine")


def test_pattern_positions_and_vars():
    pat = TriplePattern(var("x"), iri("http://e/p"), var("y"))
    assert pat[0] is var("x") and pat[2] is var("y")
    assert pat == (var("x"), iri("http://e/p"), var("y"))
    assert pattern_vars(pat) == frozenset({var("x"), var("y")})
    with pytest.raises(ValueError):
        TriplePattern(lit("no"), iri("http://e/p"), var("y"))


def test_triples_and_patterns_are_immutable_tuples():
    (triple,) = parse_ntriples('<http://e/s> <http://e/p> "v" .\n')
    assert type(triple) is Triple and Triple(*triple) == triple
    assert repr(triple) == 'Triple(s=<http://e/s>, p=<http://e/p>, o="v")'
    s, p = triple.s, triple.p
    pat = TriplePattern(var("x"), p, lit("v"))
    for value in (triple, pat):
        assert isinstance(value, tuple) and value == (value.s, p, lit("v"))
        with pytest.raises(AttributeError):
            value.s = s
        # each path re-enters the validating __new__
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
            assert hash(twin) == hash(value)


def test_kind_checks_keep_their_messages():
    s, p, o = iri("http://e/s"), iri("http://e/p"), iri("http://e/o")
    for cls, args, message in [
            (Triple, (var("x"), p, o), "triple subject must be an IRI or blank node, got ?x"),
            (Triple, (s, var("p"), o), "triple predicate must be an IRI, got ?p"),
            (Triple, (s, p, var("o")), "triple object must be ground, got ?o"),
            (TriplePattern, (lit("a"), p, o), 'pattern subject cannot be a literal, got "a"'),
            (TriplePattern, (s, blank("b"), o),
             "pattern predicate must be an IRI or a variable, got _:b")]:
        with pytest.raises(ValueError) as raised:
            cls(*args)
        assert str(raised.value) == message


def test_binding_row_is_order_insensitive_and_hashable():
    a = binding_row({var("x"): iri("http://e/1"), var("y"): lit("v")})
    b = binding_row({var("y"): lit("v"), var("x"): iri("http://e/1")})
    assert a == b and hash(a) == hash(b)
    assert a.get(var("x")) is iri("http://e/1")
    assert a.get(var("missing")) is None
    assert EMPTY_ROW == ()


@given(st.text(max_size=40))
def test_literal_token_round_trips_escaping(text):
    term = lit(text)
    again = literal_token(term.lexical)
    assert again is term
