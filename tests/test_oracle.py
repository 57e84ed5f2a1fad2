"""The indexed reference evaluator against the nested-loop evaluator in
``nested_oracle.py``, and the rule that keeps it a reference: it shares no
code with the engine."""

import ast
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparqlsim import oracle_eval
from sparqlsim.errors import ResultSizeLimitError
from sparqlsim.terms import Triple, TriplePattern, blank, iri, lit, var

from conftest import REPO_ROOT
from nested_oracle import oracle_eval as nested_oracle_eval

NS = "http://oracle.example/"
A, B, P, Q = (iri(NS + name) for name in "abpq")
ABSENT = iri(NS + "absent")
X, Y, Z = var("x"), var("y"), var("z")
# P is a subject as well as a predicate, so `?x ?x ?o` has matches.
_SUBJECTS = (A, B, P, blank("n"))
_PREDICATES = (P, Q)
_OBJECTS = (A, P, blank("n"), lit("1"), lit("2"))
_VARS = (X, Y, Z)


# Few distinct triples, so many stores hold duplicates; the empty store is
# an explicit example below.
_stores = st.lists(st.builds(Triple, st.sampled_from(_SUBJECTS),
                             st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)),
                   min_size=1, max_size=14)


@st.composite
def _cases(draw):
    """A store and 1-3 patterns, each cut from a stored triple so most
    queries match: every position keeps the triple's term (2 in 5), becomes
    a variable (2 in 5), or becomes any term the position allows, the absent
    predicate included."""
    triples = draw(_stores)
    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        template = draw(st.sampled_from(triples))
        terms = [draw(st.one_of(st.just(template[pos]), st.sampled_from(_VARS),
                                st.just(template[pos]), st.sampled_from(_VARS),
                                st.sampled_from(pool)))
                 for pos, pool in enumerate((_SUBJECTS, _PREDICATES + (ABSENT,),
                                             _OBJECTS))]
        patterns.append(TriplePattern(*terms))
    return patterns, triples


def _outcome(evaluate, patterns, triples, select, limit):
    try:
        return evaluate(patterns, triples, select=select, limit=limit)
    except ResultSizeLimitError as exc:
        return ("over budget", exc.limit)


@settings(max_examples=400, deadline=None)
@given(case=_cases(),
       select=st.one_of(st.none(), st.lists(st.sampled_from(_VARS), unique=True)),
       limit=st.sampled_from((1, 2, 3, 5, 8, 1_000_000)))
@example(case=([TriplePattern(X, P, X)],
               [Triple(A, P, A), Triple(A, P, B), Triple(A, P, A)]),
         select=None, limit=1_000_000)
@example(case=([TriplePattern(X, X, Y)],
               [Triple(P, P, A), Triple(A, P, A), Triple(P, Q, A)]),
         select=[Y], limit=1_000_000)
@example(case=([TriplePattern(X, Y, A), TriplePattern(Z, Y, lit("1"))],
               [Triple(B, Q, A), Triple(A, P, A), Triple(A, P, lit("1")),
                Triple(B, Q, lit("1"))]),
         select=None, limit=1_000_000)
@example(case=([TriplePattern(X, ABSENT, Y)], [Triple(A, P, A)]),
         select=None, limit=1_000_000)
@example(case=([TriplePattern(X, Y, Z)], []), select=[X], limit=1)
@example(case=([TriplePattern(X, P, Y), TriplePattern(Y, Q, Y)],
               [Triple(A, P, B), Triple(B, Q, B), Triple(A, P, A), Triple(B, Q, A),
                Triple(A, Q, A), Triple(B, Q, B)]),
         select=None, limit=1_000_000)
@example(case=([TriplePattern(X, P, Y), TriplePattern(A, P, B)],
               [Triple(A, P, B), Triple(B, P, A), Triple(A, P, B)]),
         select=None, limit=3)
@example(case=([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)],
               [Triple(A, P, B), Triple(B, Q, A), Triple(B, Q, lit("1")), Triple(A, P, P)]),
         select=[Z, X, Z], limit=1_000_000)
def test_indexed_oracle_equals_the_nested_loop(case, select, limit):
    patterns, triples = case
    want = _outcome(nested_oracle_eval, patterns, triples, select, limit)
    assert _outcome(oracle_eval, patterns, triples, select, limit) == want


_ENGINE_FREE = {"errors", "terms"}


def test_oracle_imports_only_stdlib_errors_and_terms():
    path = REPO_ROOT / "src" / "sparqlsim" / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.level == 1 and node.module in _ENGINE_FREE, ast.unparse(node)
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)
