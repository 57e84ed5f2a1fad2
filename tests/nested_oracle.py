"""The nested-loop reference evaluator, which tests every triple against
every row: the second reference. ``tests/test_oracle.py`` requires the
indexed ``sparqlsim.oracle.oracle_eval`` to return exactly the same list,
and to go over its row budget in exactly the same cases."""

from typing import Sequence

from sparqlsim.errors import ResultSizeLimitError
from sparqlsim.oracle import DEFAULT_ROW_LIMIT
from sparqlsim.terms import (
    BindingRow, EMPTY_ROW, Term, Triple, TriplePattern, pattern_vars,
)


def _match(pattern: TriplePattern, triple: Triple, row: BindingRow) -> BindingRow | None:
    new: dict[Term, Term] = {}
    for pos in range(3):
        want = pattern[pos]
        got = triple[pos]
        if want.is_variable:
            bound = row.get(want)
            if bound is None:
                bound = new.get(want)
            if bound is None:
                new[want] = got
            elif bound != got:
                return None
        elif want != got:
            return None
    if not new:
        return row
    merged = dict(row)
    merged.update(new)
    return BindingRow(tuple(sorted(merged.items())))


def _evaluation_order(patterns: Sequence[TriplePattern]) -> list[int]:
    order: list[int] = []
    bound: set[Term] = set()
    remaining = list(range(len(patterns)))
    while remaining:
        pick = next((i for i in remaining if pattern_vars(patterns[i]) & bound),
                    remaining[0])
        remaining.remove(pick)
        order.append(pick)
        bound |= pattern_vars(patterns[pick])
    return order


def oracle_eval(patterns: Sequence[TriplePattern], triples: Sequence[Triple],
                select: Sequence[Term] | None = None,
                limit: int = DEFAULT_ROW_LIMIT) -> list[BindingRow]:
    """Evaluate a basic graph pattern over a triple list, bag semantics."""
    if not patterns:
        raise ValueError("cannot evaluate an empty pattern list")
    rows: list[BindingRow] = [EMPTY_ROW]
    for idx in _evaluation_order(patterns):
        pattern = patterns[idx]
        out: list[BindingRow] = []
        for row in rows:
            for triple in triples:
                extended = _match(pattern, triple, row)
                if extended is not None:
                    out.append(extended)
                    if len(out) > limit:
                        raise ResultSizeLimitError(limit)
        rows = out
        if not rows:
            break
    if select is None:
        return rows
    select_tuple = tuple(select)
    projected = []
    for row in rows:
        items = tuple(sorted((v, t) for v, t in row if v in select_tuple))
        projected.append(BindingRow(items))
    return projected

