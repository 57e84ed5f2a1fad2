"""Core value types: RDF terms, triples, triple patterns, and binding rows.

Everything here is immutable and safe to share between simulated cluster
nodes. Terms carry a total order (kind, then lexical form) so that variable
sets can be sorted deterministically for hashing and rendering.

Literals are stored in their full N-Triples token form, quotes and optional
datatype/language suffix included, and are treated as opaque constants; the
engine never interprets datatypes.
"""

from dataclasses import dataclass
from enum import IntEnum


class TermKind(IntEnum):
    IRI = 0
    LITERAL = 1
    BLANK = 2
    VARIABLE = 3


class Term:
    """A single RDF term or query variable.

    ``lexical`` holds the IRI string (no angle brackets), the full literal
    token (quotes included), the blank node label (no ``_:``), or the
    variable name (no ``?``).
    """

    __slots__ = ("kind", "lexical", "_hash", "_h64")

    def __init__(self, kind: TermKind, lexical: str):
        if not isinstance(lexical, str):
            raise TypeError(f"term lexical form must be str, got {type(lexical).__name__}")
        object.__setattr__(self, "kind", TermKind(kind))
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "_hash", hash((kind, lexical)))
        object.__setattr__(self, "_h64", None)

    def __setattr__(self, name, value):
        raise AttributeError("Term is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self.kind is other.kind and self.lexical == other.lexical

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (self.kind, self.lexical) < (other.kind, other.lexical)

    def __le__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (self.kind, self.lexical) <= (other.kind, other.lexical)

    def __gt__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (self.kind, self.lexical) > (other.kind, other.lexical)

    def __ge__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return (self.kind, self.lexical) >= (other.kind, other.lexical)

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


# Interning caches. Generators and parsers funnel through these helpers so a
# million-triple dataset stores each distinct term object once.
_iri_cache: dict[str, Term] = {}
_lit_cache: dict[str, Term] = {}
_blank_cache: dict[str, Term] = {}
_var_cache: dict[str, Term] = {}

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


def iri(value: str) -> Term:
    t = _iri_cache.get(value)
    if t is None:
        t = _iri_cache[value] = Term(TermKind.IRI, value)
    return t


def lit(text: str, datatype: str | None = None, lang: str | None = None) -> Term:
    """Build a literal term from raw text plus an optional datatype IRI or
    language tag. The stored lexical form is the serialized token."""
    if datatype is not None and lang is not None:
        raise ValueError("literal cannot carry both a datatype and a language tag")
    token = f'"{escape_literal_text(text)}"'
    if datatype is not None:
        token += f"^^<{datatype}>"
    elif lang is not None:
        token += f"@{lang}"
    return literal_token(token)


def literal_token(token: str) -> Term:
    """Build a literal from an already-serialized N-Triples literal token."""
    t = _lit_cache.get(token)
    if t is None:
        t = _lit_cache[token] = Term(TermKind.LITERAL, token)
    return t


def blank(label: str) -> Term:
    t = _blank_cache.get(label)
    if t is None:
        t = _blank_cache[label] = Term(TermKind.BLANK, label)
    return t


def var(name: str) -> Term:
    t = _var_cache.get(name)
    if t is None:
        t = _var_cache[name] = Term(TermKind.VARIABLE, name)
    return t


_SUBJECT_KINDS = (TermKind.IRI, TermKind.BLANK)


@dataclass(frozen=True, slots=True)
class Triple:
    """A ground RDF triple. Positional kinds are validated on construction."""

    s: Term
    p: Term
    o: Term

    def __post_init__(self):
        if self.s.kind not in _SUBJECT_KINDS:
            raise ValueError(f"triple subject must be an IRI or blank node, got {self.s!r}")
        if self.p.kind is not TermKind.IRI:
            raise ValueError(f"triple predicate must be an IRI, got {self.p!r}")
        if self.o.kind is TermKind.VARIABLE:
            raise ValueError(f"triple object must be ground, got {self.o!r}")

    def __getitem__(self, pos: int) -> Term:
        if pos == 0:
            return self.s
        if pos == 1:
            return self.p
        if pos == 2:
            return self.o
        raise IndexError(pos)

    def nt(self) -> str:
        return f"{self.s.nt()} {self.p.nt()} {self.o.nt()} ."


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern: each position is either ground or a variable."""

    s: Term
    p: Term
    o: Term

    def __post_init__(self):
        if self.s.kind in (TermKind.LITERAL,):
            raise ValueError(f"pattern subject cannot be a literal, got {self.s!r}")
        if self.p.kind not in (TermKind.IRI, TermKind.VARIABLE):
            raise ValueError(f"pattern predicate must be an IRI or a variable, got {self.p!r}")

    def __getitem__(self, pos: int) -> Term:
        if pos == 0:
            return self.s
        if pos == 1:
            return self.p
        if pos == 2:
            return self.o
        raise IndexError(pos)

    def positions(self) -> tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)

    def text(self) -> str:
        return f"{self.s.nt()} {self.p.nt()} {self.o.nt()}"


def pattern_vars(pattern: TriplePattern) -> frozenset[Term]:
    """The set of variables occurring in a pattern (any position)."""
    return frozenset(t for t in pattern.positions() if t.is_variable)


class BindingRow:
    """An immutable solution mapping from variables to ground terms.

    Stored as a tuple of (variable, term) pairs sorted by variable order, so
    rows hash consistently and multisets of rows compare cheaply.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, items: tuple[tuple[Term, Term], ...]):
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, name, value):
        raise AttributeError("BindingRow is immutable")

    @classmethod
    def from_mapping(cls, mapping: dict[Term, Term]) -> "BindingRow":
        return cls(tuple(sorted(mapping.items())))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BindingRow):
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return self._hash

    def get(self, v: Term) -> Term | None:
        # Rows are narrow; a linear scan beats building a dict per row.
        for bound, term in self.items:
            if bound is v or bound == v:
                return term
        return None

    def __repr__(self):
        inner = ", ".join(f"{v.lexical}={t!r}" for v, t in self.items)
        return "{" + inner + "}"


EMPTY_ROW = BindingRow(())
