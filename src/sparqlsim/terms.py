"""Core value types: RDF terms, triples, triple patterns, and binding rows.

Everything here is immutable and safe to share between simulated cluster
nodes. Terms carry a total order (kind, then lexical form) so that variable
sets can be sorted deterministically for hashing and rendering.

Terms are canonical: the intern tables are the only way to build one, so
``Term(kind, lexical)`` and the helpers :func:`iri`, :func:`lit`,
:func:`literal_token`, :func:`blank` and :func:`var` all return the one
object for that kind and lexical form. Interning gives each term a dense
int ``id``, its index in :data:`TERMS`; the engine's rows and the store
hold these ids, and :data:`H64` keeps each id's placement hash
(:func:`term_hash64`). Equal terms are identical, and a term hashes to its
id, so hashing a term does not depend on ``PYTHONHASHSEED``.

Literals are stored in their full N-Triples token form, quotes and optional
datatype/language suffix included, and are treated as opaque constants; the
engine never interprets datatypes.
"""

import re
from enum import IntEnum
from functools import total_ordering
from typing import NamedTuple


class TermKind(IntEnum):
    IRI = 0
    LITERAL = 1
    BLANK = 2
    VARIABLE = 3


@total_ordering
class Term:
    """A single RDF term or query variable.

    ``lexical`` holds the IRI string (no angle brackets), the full literal
    token (quotes included), the blank node label (no ``_:``), or the
    variable name (no ``?``). ``id`` is the term's index in :data:`TERMS`.
    """

    __slots__ = ("kind", "lexical", "id")

    def __new__(cls, kind: TermKind, lexical: str) -> "Term":
        if kind.__class__ is not TermKind:
            kind = TermKind(kind)
        table = _TABLES[kind]
        term = table.get(lexical)
        return term if term is not None else _intern(kind, lexical, table)

    def __setattr__(self, name, value):
        raise AttributeError("Term is immutable")

    def __reduce__(self):
        return Term, (self.kind, self.lexical)

    # Terms are canonical, so equality is identity. Spelled out because a
    # class that defines __lt__ would otherwise answer == and != through
    # several generic lookups.
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __hash__(self):
        return self.id

    # The other comparisons are derived from this and identity equality
    # (total_ordering); sorting calls only this one.
    def __lt__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (self.kind, self.lexical) < (other.kind, other.lexical)

    @property
    def is_variable(self) -> bool:
        return self.kind is TermKind.VARIABLE

    def nt(self) -> str:
        """Canonical serialization, N-Triples style (variables as ``?name``)."""
        if self.kind is TermKind.IRI:
            return f"<{self.lexical}>"
        if self.kind is TermKind.LITERAL:
            return self.lexical
        if self.kind is TermKind.BLANK:
            return f"_:{self.lexical}"
        return f"?{self.lexical}"

    def __repr__(self):
        return self.nt()


# Intern tables, one per kind, from lexical form to the term. Generators and
# parsers funnel through them, so a million-triple dataset stores each
# distinct term object once.
_iri_cache: dict[str, Term] = {}
_lit_cache: dict[str, Term] = {}
_blank_cache: dict[str, Term] = {}
_var_cache: dict[str, Term] = {}
_TABLES = (_iri_cache, _lit_cache, _blank_cache, _var_cache)   # by TermKind

TERMS: list[Term] = []
"""The decode table: ``TERMS[i]`` is the term whose id is ``i``."""

H64: list[int | None] = []
"""Placement hashes by term id, None until :func:`id_hash64` first asks."""


# Slot setters, which get past Term.__setattr__ once, at interning.
_set_kind, _set_lexical, _set_id = (
    Term.kind.__set__, Term.lexical.__set__, Term.id.__set__)


def _intern(kind: TermKind, lexical: str, table: dict[str, Term]) -> Term:
    if not isinstance(lexical, str):
        raise TypeError(f"term lexical form must be str, got {type(lexical).__name__}")
    term = object.__new__(Term)
    _set_kind(term, kind)
    _set_lexical(term, lexical)
    _set_id(term, len(TERMS))
    TERMS.append(term)
    H64.append(None)
    table[lexical] = term
    return term


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = (1 << 64) - 1


def fnv1a_64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash. Deterministic across processes and platforms,
    unlike Python's seeded str hash.

    The hash folds bytes in order, so ``fnv1a_64(b, fnv1a_64(a))`` equals
    ``fnv1a_64(a + b)``: passing the state reached after a prefix resumes
    the hash there."""
    h = state
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _FNV_MASK
    return h


# FNV state after "<" plus an IRI's namespace (everything up to and
# including its last "/"); one entry per namespace, so IRIs that share one
# hash only their local names.
_namespace_state: dict[str, int] = {}


def id_hash64(term_id: int) -> int:
    """Placement hash of the term with id ``term_id``: the FNV-1a hash of
    its canonical serialization (:func:`fnv1a_64` is the reference). Computed
    on first use and kept in :data:`H64`, so callers on a hot path read
    ``H64[i] or id_hash64(i)``. An IRI's hash resumes from its namespace's
    cached state and folds only the rest of the serialization."""
    h = H64[term_id]
    if h is None:
        term = TERMS[term_id]
        if term.kind is TermKind.IRI:
            lexical = term.lexical
            cut = lexical.rfind("/") + 1
            namespace = lexical[:cut]
            h = _namespace_state.get(namespace)
            if h is None:
                h = _namespace_state[namespace] = fnv1a_64(
                    ("<" + namespace).encode("utf-8"))
            data = (lexical[cut:] + ">").encode("utf-8")
        else:
            h = _FNV_OFFSET
            data = term.nt().encode("utf-8")
        prime, mask = _FNV_PRIME, _FNV_MASK
        for b in data:
            h = ((h ^ b) * prime) & mask
        H64[term_id] = h
    return h


def term_hash64(term: Term) -> int:
    """Placement hash of a single term (see :func:`id_hash64`)."""
    return id_hash64(term.id)


_LITERAL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def escape_literal_text(text: str) -> str:
    out = []
    for ch in text:
        out.append(_LITERAL_ESCAPES.get(ch, ch))
    return "".join(out)


IRI_CHARS = r"[^<>\"{}|^`\\\x00-\x20]*"
"""The characters an IRI reference may hold between its angle brackets, as
a regex fragment. The N-Triples and SPARQL grammars import it from here,
and :func:`lit` checks a datatype by the same rule."""
_IRI_BODY = re.compile(IRI_CHARS)


def iri(value: str) -> Term:
    t = _iri_cache.get(value)
    return t if t is not None else _intern(TermKind.IRI, value, _iri_cache)


def lit(text: str, datatype: str | None = None, lang: str | None = None) -> Term:
    """Build a literal term from raw text plus an optional datatype IRI or
    language tag. The stored lexical form is the serialized token. A
    datatype with a character outside :data:`IRI_CHARS` is refused, as the
    parsers refuse it."""
    if datatype is not None and lang is not None:
        raise ValueError("literal cannot carry both a datatype and a language tag")
    if datatype is not None and _IRI_BODY.fullmatch(datatype) is None:
        raise ValueError(f"literal datatype is not an IRI: {datatype!r}")
    token = f'"{escape_literal_text(text)}"'
    if datatype is not None:
        token += f"^^<{datatype}>"
    elif lang is not None:
        token += f"@{lang}"
    return literal_token(token)


def literal_token(token: str) -> Term:
    """Build a literal from an already-serialized N-Triples literal token."""
    t = _lit_cache.get(token)
    return t if t is not None else _intern(TermKind.LITERAL, token, _lit_cache)


def blank(label: str) -> Term:
    t = _blank_cache.get(label)
    return t if t is not None else _intern(TermKind.BLANK, label, _blank_cache)


def var(name: str) -> Term:
    t = _var_cache.get(name)
    return t if t is not None else _intern(TermKind.VARIABLE, name, _var_cache)


_SUBJECT_KINDS = (TermKind.IRI, TermKind.BLANK)


class _SPO(NamedTuple):
    """The fields of :class:`Triple` and :class:`TriplePattern`."""

    s: Term
    p: Term
    o: Term


class Triple(_SPO):
    """A ground RDF triple, the tuple ``(s, p, o)``. Positional kinds are
    validated on construction; ``Triple._make`` skips that, for a caller
    that has already fixed the kinds (the N-Triples parser's line regex)."""

    __slots__ = ()

    def __new__(cls, s: Term, p: Term, o: Term) -> "Triple":
        if s.kind not in _SUBJECT_KINDS:
            raise ValueError(f"triple subject must be an IRI or blank node, got {s!r}")
        if p.kind is not TermKind.IRI:
            raise ValueError(f"triple predicate must be an IRI, got {p!r}")
        if o.kind is TermKind.VARIABLE:
            raise ValueError(f"triple object must be ground, got {o!r}")
        return tuple.__new__(cls, (s, p, o))

    def nt(self) -> str:
        return f"{self.s.nt()} {self.p.nt()} {self.o.nt()} ."


class TriplePattern(_SPO):
    """A triple pattern, the tuple ``(s, p, o)``: each position is either
    ground or a variable."""

    __slots__ = ()

    def __new__(cls, s: Term, p: Term, o: Term) -> "TriplePattern":
        if s.kind is TermKind.LITERAL:
            raise ValueError(f"pattern subject cannot be a literal, got {s!r}")
        if p.kind not in (TermKind.IRI, TermKind.VARIABLE):
            raise ValueError(f"pattern predicate must be an IRI or a variable, got {p!r}")
        return tuple.__new__(cls, (s, p, o))

    def text(self) -> str:
        return f"{self.s.nt()} {self.p.nt()} {self.o.nt()}"


def pattern_vars(pattern: TriplePattern) -> frozenset[Term]:
    """The set of variables occurring in a pattern (any position)."""
    return frozenset(t for t in pattern if t.is_variable)


def pattern_label(index: int) -> str:
    """The 1-based textual name of the pattern at ``index``: t1, t2, ..."""
    return f"t{index + 1}"


class BindingRow(tuple):
    """An immutable solution mapping from variables to ground terms: the
    tuple of its (variable, term) pairs sorted by variable order, so rows
    hash consistently and multisets of rows compare cheaply. A row equals
    the plain tuple of its pairs.
    """

    __slots__ = ()

    def get(self, v: Term) -> Term | None:
        # Rows are narrow; a linear scan beats building a dict per row.
        # Terms are interned, so a variable is found by identity.
        for bound, term in self:
            if bound is v:
                return term
        return None

    def __repr__(self):
        inner = ", ".join(f"{v.lexical}={t!r}" for v, t in self)
        return "{" + inner + "}"


EMPTY_ROW = BindingRow(())
