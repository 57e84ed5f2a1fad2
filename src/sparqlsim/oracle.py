"""Single-node reference evaluation, used to verify distributed results.

A simple evaluator over a plain triple list, with bag semantics, that
shares no code with the distributed engine. A triple is the tuple
``(s, p, o)``, so each call indexes the triple list itself, once per
position (term to the triples holding it there, in input order). Partial
rows are positional tuples of terms, one slot per variable in order of
first binding.

Patterns are reordered so each one shares a variable with the rows built so
far whenever possible, which keeps intermediates small without changing
the result multiset. Each pattern is compiled once, against the variables
bound before it, into the positions it fixes (a ground term or a row slot),
the positions that repeat one of its new variables, and the positions whose
new variables extend the row. A row then tests only the shortest index list
among its fixed positions, all triples when none is fixed, and each
candidate is checked at every fixed position by identity (terms are
interned) and on the repeated variables. Index lists keep input order, so
the result is the list a nested loop over all triples gives, in the same
order. :class:`BindingRow` objects are built once, for the final rows.

A row budget guards against accidental cross-product blowups in generated
test data.
"""

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import ResultSizeLimitError
from .terms import BindingRow, EMPTY_ROW, Term, Triple, TriplePattern, pattern_vars

DEFAULT_ROW_LIMIT = 1_000_000


class _Step(NamedTuple):
    """One pattern, compiled against the variables bound before it."""

    ground: tuple[tuple[int, Term], ...]      # (position, term)
    bound: tuple[tuple[int, int], ...]        # (position, row slot)
    repeats: tuple[tuple[int, int], ...]      # (position, first position of its variable)
    new: tuple[int, ...]                      # first positions of new variables, in row order


def _evaluation_order(patterns: Sequence[TriplePattern]) -> tuple[list[_Step], list[Term]]:
    """The patterns compiled in evaluation order, and the row's variables
    in slot order."""
    steps: list[_Step] = []
    slots: dict[Term, int] = {}
    remaining = list(range(len(patterns)))
    while remaining:
        pick = next((i for i in remaining if pattern_vars(patterns[i]) & slots.keys()),
                    remaining[0])
        remaining.remove(pick)
        ground, bound, repeats, new = [], [], [], []
        first: dict[Term, int] = {}
        for pos, term in enumerate(patterns[pick]):
            if not term.is_variable:
                ground.append((pos, term))
            elif term in slots:
                bound.append((pos, slots[term]))
            elif term in first:
                repeats.append((pos, first[term]))
            else:
                first[term] = pos
                new.append(pos)
        for v in first:
            slots[v] = len(slots)
        steps.append(_Step(tuple(ground), tuple(bound), tuple(repeats), tuple(new)))
    return steps, list(slots)


def oracle_eval(patterns: Sequence[TriplePattern], triples: Sequence[Triple],
                select: Sequence[Term] | None = None,
                limit: int = DEFAULT_ROW_LIMIT) -> list[BindingRow]:
    """Evaluate a basic graph pattern over a triple list, bag semantics."""
    if not patterns:
        raise ValueError("cannot evaluate an empty pattern list")
    steps, variables = _evaluation_order(patterns)
    # Only the positions some pattern fixes are ever looked up.
    index: dict[int, dict[Term, list[Triple]]] = {
        pos: {} for step in steps for pos, _ in step.ground + step.bound}
    for pos, by_term in index.items():
        for spo in triples:
            by_term.setdefault(spo[pos], []).append(spo)
    rows: list[tuple[Term, ...]] = [()]
    for step in steps:
        ground, bound, repeats, new = step
        out: list[tuple[Term, ...]] = []
        append = out.append
        for row in rows:
            fixed = ground + tuple([(pos, row[slot]) for pos, slot in bound])
            if fixed:
                candidates = min([index[pos].get(term, ()) for pos, term in fixed], key=len)
            else:
                candidates = triples
            for spo in candidates:
                for pos, term in fixed:
                    if spo[pos] is not term:
                        break
                else:
                    for pos, other in repeats:
                        if spo[pos] is not spo[other]:
                            break
                    else:
                        append(row + tuple([spo[pos] for pos in new]))
                        if len(out) > limit:
                            raise ResultSizeLimitError(limit)
        rows = out
        if not rows:
            return []
    kept = [slot for slot, v in sorted(enumerate(variables), key=lambda sv: sv[1])
            if select is None or v in select]
    if not kept:
        return [EMPTY_ROW] * len(rows)
    names = [variables[slot] for slot in kept]
    return [BindingRow(zip(names, [row[slot] for slot in kept])) for row in rows]


def as_multiset(rows: Iterable[BindingRow]) -> Counter:
    """Rows as a multiset, for order-insensitive comparison."""
    return Counter(rows)
