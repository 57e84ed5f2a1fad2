"""Per-row references for the engine's row kernels: the selection reader,
the node-local hash join that ``pjoin`` and ``brjoin`` run on every node,
and the shuffle.

All are the plain loops the kernels in ``sparqlsim.ops`` and
``sparqlsim.cluster`` are measured against. The selection tests every
stored triple against the pattern, one triple at a time, in the store's
group and load order. The join builds each node's table row by row,
bucketing whole build rows by key, and probes row by row, cutting each
output row from the probe row followed by the build row. The shuffle places
each row by :func:`sparqlsim.cluster.node_of` on the decoded row.
``tests/test_kernels.py`` requires the engine's chunks to equal these, row
for row and in order. The same triple test counts |S| by brute force."""

from functools import partial
from operator import itemgetter
from typing import Sequence

from sparqlsim.cluster import Relation, node_of
from sparqlsim.ops import fold_order
from sparqlsim.terms import TERMS, BindingRow, Term


def _tuple_getter(positions: Sequence[int]):
    """Like ``itemgetter(*positions)``, but always returns a tuple."""
    if len(positions) == 1:
        get = itemgetter(positions[0])
        return lambda row: (get(row),)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _key_getter(positions: Sequence[int]):
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _build(rows, key) -> dict:
    table: dict = {}
    for row in rows:
        k = key(row)
        bucket = table.get(k)
        if bucket is None:
            table[k] = [row]
        else:
            bucket.append(row)
    return table


def _probe(acc, table, key, pick) -> list:
    out = []
    for row in acc:
        bucket = table.get(key(row))
        if bucket is None:
            continue
        if pick is None:
            out.extend([row] * len(bucket))
        else:
            for right in bucket:
                out.append(pick(row + right))
    return out


def reference_join(staged: Sequence[Relation], driver: int,
                   copies: dict[int, tuple]) -> tuple[tuple[Term, ...], tuple]:
    """The columns and per-node chunks of the local join of ``staged``,
    driven by ``staged[driver]``; ``copies`` maps an input's index to the
    broadcast copy every node reads in place of its chunk. The fold order
    is the engine's :func:`~sparqlsim.ops.fold_order`."""
    order = fold_order([rel.schema for rel in staged],
                       [rel.count for rel in staged], driver)
    columns = staged[driver].columns
    steps = []
    for i in order[1:]:
        rel = staged[i]
        shared = [v for v in columns if v in rel.schema]
        added = [p for p, v in enumerate(rel.columns) if v not in shared]
        width = len(columns)
        pick = (_tuple_getter([*range(width), *(width + p for p in added)])
                if added else None)
        steps.append((rel, copies.get(i),
                      _key_getter([columns.index(v) for v in shared]),
                      _key_getter([rel.columns.index(v) for v in shared]),
                      pick))
        columns = columns + tuple(rel.columns[p] for p in added)
    chunks = []
    for j, rows in enumerate(staged[driver].chunks):
        acc = list(rows)
        for rel, copy, probe_key, build_key, pick in steps:
            if not acc:
                break
            build = rel.chunks[j] if copy is None else copy
            acc = _probe(acc, _build(build, build_key), probe_key, pick)
        chunks.append(tuple(acc))
    return columns, tuple(chunks)


def reference_match(spec, triple: tuple[int, int, int]):
    """The row ``spec``'s pattern makes of a stored ``triple`` of ids, its
    variables' ids in first-position order, or None when it does not
    match."""
    bound: dict = {}
    for term, value in zip(spec.pattern, triple):
        if not term.is_variable:
            if term.id != value:
                return None
        elif bound.setdefault(term, value) != value:
            return None
    return tuple(bound.values())


def _stored_triples(node: dict):
    """A node's triples as id triples, in group and then load order."""
    for p, (subjects, objects) in node.items():
        for s, o in zip(subjects, objects):
            yield s, p, o


def reference_selection(spec, dataset) -> tuple[tuple, ...]:
    """The chunks of ``spec``'s selection: on each node, the row of every
    stored triple the pattern matches, tested one triple at a time."""
    match = partial(reference_match, spec)
    return tuple(tuple(row for row in map(match, _stored_triples(node)) if row is not None)
                 for node in dataset.groups)


def reference_subset_size(specs, dataset) -> int:
    """|S| by brute force: the stored triples that match any of ``specs``."""
    return sum(any(reference_match(spec, triple) is not None for spec in specs)
               for node in dataset.groups for triple in _stored_triples(node))


def reference_shuffle(rel: Relation, key: frozenset[Term]) -> tuple[tuple, int]:
    """The chunks of ``rel`` repartitioned on ``key``, each row placed by
    :func:`node_of` on its decoded row and appended in source
    node-then-row order, and the number of rows that change node."""
    buckets: list[list] = [[] for _ in range(rel.m)]
    moved = 0
    for j, chunk in enumerate(rel.chunks):
        for row in chunk:
            decoded = BindingRow(tuple(sorted(
                (v, TERMS[i]) for v, i in zip(rel.columns, row))))
            dest = node_of(decoded, key, rel.m)
            moved += dest != j
            buckets[dest].append(row)
    return tuple(map(tuple, buckets)), moved


def reference_pjoin(on: frozenset[Term], inputs: Sequence[Relation]):
    """``pjoin``'s columns and chunks: every input not keyed on ``on`` is
    shuffled by :func:`reference_shuffle`, and the first input drives."""
    staged = [rel if rel.key == on else
              Relation(rel.columns, reference_shuffle(rel, on)[0], on)
              for rel in inputs]
    return reference_join(staged, 0, {})


def reference_brjoin(inputs: Sequence[Relation], target: int):
    """``brjoin``'s columns and chunks: every input but the target is
    read whole on every node, and the target drives."""
    copies = {i: tuple(rel.tuples()) for i, rel in enumerate(inputs)
              if i != target}
    return reference_join(inputs, target, copies)
