"""Query model and parser for the supported SPARQL subset.

The grammar is deliberately small: optional ``PREFIX`` declarations, then
``SELECT ?v ... WHERE { pattern . pattern ... }``. Anything else that is
recognizably SPARQL (FILTER, OPTIONAL, UNION, DISTINCT, ...) raises
:class:`UnsupportedFeatureError` so the CLI can exit with a dedicated code
instead of a generic parse failure.

One tokenizer pass decides between the two. An unsupported keyword anywhere
in the query, as a bare word (not inside an IRI, literal, comment, variable,
blank node or prefixed name), is reported before any parse error can be:
a token the grammar does not know fails only once the whole text is read,
and the parser runs on a text that has none.

SPARQL 1.1 syntax with no keyword (a select-list expression ``(``, an object
list ``,`` or predicate-object list ``;`` after a pattern, a nested group
``{`` where a subject is expected) is reported as unsupported where the
parser meets it, so, unlike a keyword, a parse error earlier in the query
still wins. A property-path operator (``+``, ``/``) is an unrecognized
token, a parse error.

Blank nodes in queries are treated as constants that match data labels
literally; use variables for join positions.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import ParseError, UnsupportedFeatureError
from .logical import CompiledQuery
from .ntriples import BLANK_LABEL, LANG_TAG, QUOTED_STRING
from .terms import (
    IRI_CHARS, Term, TriplePattern, blank, iri, literal_token, pattern_vars, var,
)

RDF_TYPE = iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

_UNSUPPORTED = {
    "FILTER", "OPTIONAL", "UNION", "GRAPH", "MINUS", "SERVICE", "BIND",
    "VALUES", "LIMIT", "OFFSET", "ORDER", "GROUP", "HAVING", "DISTINCT",
    "REDUCED", "CONSTRUCT", "ASK", "DESCRIBE", "INSERT", "DELETE", "EXISTS",
    "BASE", "FROM",
}

_PNAME = r"[A-Za-z][A-Za-z0-9_-]*"
# A local name may contain dots but not end with one, so a trailing pattern
# separator is never swallowed.
_LOCAL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
# ``other``, tried last, is what no other token takes: an IRI-like or quoted
# run whole, so a keyword inside a malformed IRI or literal stays text, or
# else one character.

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<iri><%(iri)s>)
      | (?P<literal>%(quoted)s
            (?:\^\^(?:<%(iri)s>|(?P<datatype>(?:%(pname)s)?:(?:%(local)s)?))
              |%(lang)s)?)
      | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
      | (?P<blank>_:%(blank)s)
      | (?P<pname>(?:%(pname)s)?:(?:%(local)s)?)
      | (?P<word>[A-Za-z][A-Za-z0-9_]*)
      | (?P<punct>[{}.;,*()])
      | (?P<other><[^>\s]*>|"(?:[^"\\]|\\.)*"|\S)
    """ % {"pname": _PNAME, "local": _LOCAL, "blank": BLANK_LABEL,
           "iri": IRI_CHARS, "quoted": QUOTED_STRING, "lang": LANG_TAG},
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    datatype: str | None = None     # a literal's prefixed datatype name


def _tokenize(text: str, source: str | None) -> list[_Token]:
    """The query's tokens. The first unsupported keyword fails at once;
    a stray token (an ``other`` match) fails only after the whole text, so
    an unsupported keyword anywhere wins."""
    tokens: list[_Token] = []
    stray: tuple[int, int] | None = None
    line = 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "word" and value.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(value.upper(), line=line)
        if kind == "other":
            stray = stray or (match.start(), line)
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, match.group("datatype")))
        line += value.count("\n")
    if stray is not None:
        pos, line = stray
        raise ParseError(f"unrecognized token near: {text[pos:pos + 20]!r}",
                         line=line, source=source)
    return tokens


@dataclass(frozen=True)
class Query:
    """A SELECT query over a basic graph pattern (a conjunction of triple
    patterns with bag semantics).

    Its planning facts, :attr:`compiled`, are derived on first use and kept
    for the query's lifetime, so every run of the query shares them; each
    run decides whether a cross product may run, measures the selections
    and builds its plan."""

    select: tuple[Term, ...]
    patterns: tuple[TriplePattern, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("a query needs at least one triple pattern")
        available = self.all_vars
        for v in self.select:
            if not v.is_variable:
                raise ValueError(f"select list may only contain variables, got {v!r}")
            if v not in available:
                raise ValueError(f"selected variable {v!r} does not appear in any pattern")

    @property
    def all_vars(self) -> frozenset[Term]:
        out: set[Term] = set()
        for p in self.patterns:
            out |= pattern_vars(p)
        return frozenset(out)

    @cached_property
    def compiled(self) -> CompiledQuery:
        """The planning facts of the patterns
        (:func:`~sparqlsim.engine.compile_query`), built on first use."""
        from .engine import compile_query  # the engine imports this module
        return compile_query(self.patterns)


class _Parser:
    def __init__(self, tokens: list[_Token], source: str | None):
        self.tokens = tokens
        self.source = source
        self.i = 0
        self.prefixes: dict[str, str] = {}

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        line = token.line if token is not None else (
            self.tokens[-1].line if self.tokens else None)
        return ParseError(message, line=line, source=self.source)

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.error(f"unexpected end of query (expected {expect})")
        self.i += 1
        return tok

    def keyword(self, tok: _Token) -> str:
        return tok.value.upper() if tok.kind == "word" else ""

    def expand_pname(self, tok: _Token) -> Term:
        prefix, _, local = tok.value.partition(":")
        base = self.prefixes.get(prefix)
        if base is None:
            raise self.error(f"undeclared prefix {prefix!r}:", tok)
        return iri(base + local)

    def parse(self) -> Query:
        while True:
            tok = self.peek()
            if tok is None:
                raise self.error("empty query (expected SELECT)")
            if self.keyword(tok) == "PREFIX":
                self.parse_prefix()
                continue
            break
        tok = self.next("SELECT")
        if self.keyword(tok) != "SELECT":
            raise self.error(f"expected SELECT, got {tok.value!r}", tok)
        select = self.parse_select_list()
        tok = self.next("WHERE")
        if self.keyword(tok) != "WHERE":
            raise self.error(f"expected WHERE, got {tok.value!r}", tok)
        patterns = self.parse_group()
        trailing = self.peek()
        if trailing is not None:
            raise self.error(f"unexpected trailing input: {trailing.value!r}", trailing)
        try:
            return Query(tuple(select), tuple(patterns))
        except ValueError as exc:
            raise ParseError(str(exc), source=self.source) from exc

    def parse_prefix(self) -> None:
        self.next()  # PREFIX
        name = self.next("prefix name")
        if name.kind != "pname" or not name.value.endswith(":"):
            raise self.error(f"expected a prefix name ending in ':', got {name.value!r}", name)
        target = self.next("prefix IRI")
        if target.kind != "iri":
            raise self.error(f"expected an IRI after PREFIX {name.value}, got {target.value!r}",
                             target)
        self.prefixes[name.value[:-1]] = target.value[1:-1]

    def parse_select_list(self) -> list[Term]:
        out: list[Term] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.error("unexpected end of query in select list")
            if tok.kind == "var":
                out.append(var(tok.value[1:]))
                self.next()
                continue
            if tok.value == "*":
                raise UnsupportedFeatureError("SELECT *", line=tok.line)
            if tok.value == "(":
                raise UnsupportedFeatureError("SELECT expression", line=tok.line)
            break
        if not out:
            raise self.error("SELECT needs at least one variable", self.peek())
        return out

    def parse_group(self) -> list[TriplePattern]:
        tok = self.next("'{'")
        if tok.value != "{":
            raise self.error(f"expected '{{' after WHERE, got {tok.value!r}", tok)
        patterns: list[TriplePattern] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.error("unexpected end of query inside group (missing '}')")
            if tok.value == "}":
                self.next()
                break
            if tok.value == "{":
                raise UnsupportedFeatureError("nested group", line=tok.line)
            terms = [self.parse_term("subject"), self.parse_term("predicate"),
                     self.parse_term("object")]
            try:
                patterns.append(TriplePattern(*terms))
            except ValueError as exc:
                raise self.error(str(exc), tok) from exc
            sep = self.peek()
            if sep is not None and sep.value == ".":
                self.next()
            elif sep is not None and sep.value in (",", ";"):
                feature = "object list" if sep.value == "," else "predicate-object list"
                raise UnsupportedFeatureError(feature, line=sep.line)
            elif sep is not None and sep.value != "}":
                raise self.error(f"expected '.' or '}}' after pattern, got {sep.value!r}", sep)
        if not patterns:
            raise self.error("WHERE group contains no triple patterns")
        return patterns

    def parse_term(self, role: str) -> Term:
        tok = self.next(f"{role} term")
        if tok.kind == "var":
            return var(tok.value[1:])
        if tok.kind == "iri":
            return iri(tok.value[1:-1])
        if tok.kind == "pname":
            return self.expand_pname(tok)
        if tok.kind == "blank":
            return blank(tok.value[2:])
        if tok.kind == "literal":
            return self.normalize_literal(tok)
        if tok.kind == "word" and tok.value == "a":
            return RDF_TYPE
        raise self.error(f"expected a term for the {role}, got {tok.value!r}", tok)

    def normalize_literal(self, tok: _Token) -> Term:
        token = tok.value
        # Expand a prefixed datatype so query literals compare equal to data
        # literals, which always carry full IRIs. The tokenizer matched the
        # name after the closing quote, so text inside the quotes is never
        # read as a datatype.
        if tok.datatype is not None:
            prefix, _, local = tok.datatype.partition(":")
            base = self.prefixes.get(prefix)
            if base is None:
                raise self.error(f"undeclared prefix {prefix!r}: in literal datatype", tok)
            token = f"{token[:-len(tok.datatype)]}<{base}{local}>"
        return literal_token(token)


def parse_query(text: str, source: str | None = None) -> Query:
    tokens = _tokenize(text, source)
    return _Parser(tokens, source).parse()


_META_LINE = re.compile(r"^#\s*([A-Za-z][A-Za-z0-9_-]*)\s*:\s*(.+?)\s*$")


def parse_query_file(path: str | Path) -> tuple[Query, dict[str, str]]:
    """Parse a .rq file. Leading ``# key: value`` comment lines become
    metadata (used e.g. for a catalog shape label)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    meta: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("#"):
            break
        match = _META_LINE.match(stripped)
        if match is not None:
            meta[match.group(1).lower()] = match.group(2)
    return parse_query(text, source=str(path)), meta


def serialize_query(q: Query) -> str:
    """Canonical text form (full IRIs, one pattern per line). Parsing the
    output reproduces the query."""
    lines = ["SELECT " + " ".join(v.nt() for v in q.select) + " WHERE {"]
    for p in q.patterns:
        lines.append(f"  {p.text()} .")
    lines.append("}")
    return "\n".join(lines) + "\n"
