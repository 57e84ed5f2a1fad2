"""Line-oriented N-Triples reader and writer.

Parsing is all-or-nothing: any malformed line aborts with a
:class:`ParseError` carrying its 1-based line number. ``#`` comment lines and
blank lines are skipped. Literal tokens (quotes, escapes, datatype or
language suffix) are kept verbatim, so serialization round-trips exactly.
"""

import re
from typing import Iterable

from .errors import ParseError
from .terms import Triple, blank, iri, literal_token

_IRI_RE = r"<[^<>\"{}|^`\\\x00-\x20]*>"
_BLANK_RE = r"_:[A-Za-z0-9][A-Za-z0-9_.-]*"
_LITERAL_RE = r'"(?:[^"\\]|\\.)*"(?:\^\^' + _IRI_RE + r"|@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)?"

_TRIPLE_LINE = re.compile(
    rf"^\s*(?P<s>{_IRI_RE}|{_BLANK_RE})"
    rf"\s+(?P<p>{_IRI_RE})"
    rf"\s+(?P<o>{_IRI_RE}|{_BLANK_RE}|{_LITERAL_RE})"
    r"\s*\.\s*$"
)


def term_from_token(token: str):
    """Build a term from a single N-Triples token."""
    if token.startswith("<"):
        return iri(token[1:-1])
    if token.startswith("_:"):
        return blank(token[2:])
    if token.startswith('"'):
        return literal_token(token)
    raise ValueError(f"unrecognized term token: {token}")


def parse_ntriples(text: str, source: str | None = None) -> list[Triple]:
    """Parse N-Triples text into a list of triples, preserving duplicates
    and input order."""
    triples: list[Triple] = []
    # Split on real line terminators only: str.splitlines would also break
    # on form feeds and other unicode separators, which may appear unescaped
    # inside literals.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _TRIPLE_LINE.match(line)
        if match is None:
            raise ParseError(f"malformed N-Triples line: {stripped[:80]}",
                             line=lineno, source=source)
        try:
            s = term_from_token(match.group("s"))
            p = term_from_token(match.group("p"))
            o = term_from_token(match.group("o"))
            triples.append(Triple(s, p, o))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno, source=source) from exc
    return triples


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    return "".join(t.nt() + "\n" for t in triples)
