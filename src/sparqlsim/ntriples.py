"""Line-oriented N-Triples reader and writer.

Parsing is all-or-nothing: any malformed line aborts with a
:class:`ParseError` carrying its 1-based line number. ``#`` comment lines and
blank lines are skipped. Literal tokens (quotes, escapes, datatype or
language suffix) are kept verbatim, so serialization round-trips exactly.

Every IRI in N-Triples data is absolute: a subject, predicate, object or
literal datatype IRI must start with a scheme (``<s>`` is refused). A query
may still hold a relative IRI, since SPARQL's IRIREF allows one; such a
pattern position matches no loaded triple.
"""

import re
from typing import Iterable

from .errors import ParseError
from .terms import (
    IRI_CHARS, TermKind, Triple, _blank_cache, _intern, _iri_cache, _lit_cache,
)

# An absolute IRI: a scheme, its colon, then the rest of the reference.
_ABSOLUTE_IRI = rf"[A-Za-z][A-Za-z0-9+.-]*:{IRI_CHARS}"
# A blank node label may hold dots but not end in one, so the line's final
# dot is never part of it: "_:a." is the label "a" before the terminator.
BLANK_LABEL = r"[A-Za-z0-9](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
# A literal's escapes are the grammar's ECHAR (a backslash before one of
# tbnrf"'\) and UCHAR (\u and 4 hex digits, \U and 8); the token is kept
# verbatim, escapes unexpanded. The SPARQL tokenizer reads a literal's
# quoted string and language tag with the same patterns.
QUOTED_STRING = (r'"[^"\\]*(?:\\(?:[tbnrf"\'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})'
                 r'[^"\\]*)*"')
LANG_TAG = r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
_LITERAL_RE = rf"{QUOTED_STRING}(?:\^\^<{_ABSOLUTE_IRI}>|{LANG_TAG})?"

# One match per line. Its six groups separate the kinds: subject IRI or
# blank label, predicate IRI, object IRI, blank label or literal token.
_TRIPLE_LINE = re.compile(
    rf"^\s*(?:<({_ABSOLUTE_IRI})>|_:({BLANK_LABEL}))"
    rf"\s+<({_ABSOLUTE_IRI})>"
    rf"\s+(?:<({_ABSOLUTE_IRI})>|_:({BLANK_LABEL})|({_LITERAL_RE}))"
    r"\s*\.\s*$"
)


def parse_ntriples(text: str, source: str | None = None) -> list[Triple]:
    """Parse N-Triples text into a list of triples, preserving duplicates
    and input order.

    Each raw line is matched first; only a line that does not match is
    stripped, and skipped when blank or a comment. The line regex fixes
    every token's kind, so the terms are interned straight from its groups
    and the triple is built by ``Triple._make``, which skips the kind checks."""
    triples: list[Triple] = []
    append = triples.append
    make = Triple._make
    match = _TRIPLE_LINE.match
    iris, blanks, literals = _iri_cache, _blank_cache, _lit_cache
    IRI, BLANK, LITERAL = TermKind.IRI, TermKind.BLANK, TermKind.LITERAL
    # Split on real line terminators only: str.splitlines would also break
    # on form feeds and other unicode separators, which may appear unescaped
    # inside literals. A CR before the LF is trailing whitespace to the regex.
    for lineno, line in enumerate(text.split("\n"), start=1):
        found = match(line)
        if found is None:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            raise ParseError(f"malformed N-Triples line: {stripped[:80]}",
                             line=lineno, source=source)
        s_iri, s_blank, p_iri, o_iri, o_blank, o_literal = found.groups()
        if s_blank is None:
            s = iris.get(s_iri) or _intern(IRI, s_iri, iris)
        else:
            s = blanks.get(s_blank) or _intern(BLANK, s_blank, blanks)
        p = iris.get(p_iri) or _intern(IRI, p_iri, iris)
        if o_iri is not None:
            o = iris.get(o_iri) or _intern(IRI, o_iri, iris)
        elif o_blank is not None:
            o = blanks.get(o_blank) or _intern(BLANK, o_blank, blanks)
        else:
            o = literals.get(o_literal) or _intern(LITERAL, o_literal, literals)
        append(make((s, p, o)))
    return triples


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    return "".join(t.nt() + "\n" for t in triples)
