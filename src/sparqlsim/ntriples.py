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

_IRI_CHARS = r"[^<>\"{}|^`\\\x00-\x20]*"
_BLANK_LABEL = r"[A-Za-z0-9][A-Za-z0-9_.-]*"
_LITERAL_RE = (r'"(?:[^"\\]|\\.)*"(?:\^\^<' + _IRI_CHARS
               + r">|@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)?")

# One match per line. Its six groups separate the kinds: subject IRI or
# blank label, predicate IRI, object IRI, blank label or literal token.
_TRIPLE_LINE = re.compile(
    rf"^\s*(?:<({_IRI_CHARS})>|_:({_BLANK_LABEL}))"
    rf"\s+<({_IRI_CHARS})>"
    rf"\s+(?:<({_IRI_CHARS})>|_:({_BLANK_LABEL})|({_LITERAL_RE}))"
    r"\s*\.\s*$"
)


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
        s_iri, s_blank, p_iri, o_iri, o_blank, o_literal = match.groups()
        triples.append(Triple(
            iri(s_iri) if s_blank is None else blank(s_blank),
            iri(p_iri),
            iri(o_iri) if o_iri is not None
            else literal_token(o_literal) if o_blank is None else blank(o_blank)))
    return triples


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    return "".join(t.nt() + "\n" for t in triples)
