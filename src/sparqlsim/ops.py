"""Distributed physical operators: selections and joins.

Accounting conventions (each operator charges the
:class:`~sparqlsim.cluster.TransferLedger` it is given, which the executor
keeps on that operator's trace entry):

* a triple selection scans the whole store once: ``scanned += size(D)``;
* a merged selection for n patterns shares one store pass, which finds S,
  the triples matching any of them: ``scanned += size(D) + n*size(S)``;
* a partitioned join shuffles every input whose layout is not already keyed
  exactly on the join variables;
* a broadcast join ships every non-target input to all nodes at ``(m-1)``
  copies. The copy lives only inside the join: every node reads the same
  row tuple, and the output keeps the target's layout.

Join results use bag semantics: the natural join of the inputs. The local
join folds from a driver input (the broadcast target, or the first pjoin
input) through the inputs connected to it, and hashes each step on every
variable the step's input shares with the rows folded so far, so a table
hit is always a compatible pair of rows. A step's table maps each key to
the ids of the variables its input adds, cut once per build row: one id
tuple per key when the keys are unique, a list of them in build order when
a key repeats. A probe appends those ids to each matching row.

Every operator writes its output's columns directly: a selection's are its
variables in first-position order, a shuffle keeps its input's, a join's
are the driver's followed by the variables each fold step adds, and a
projection that drops a variable cuts to the select list's order.

The scan charges are modeled, not the simulator's work: the store is kept
as per-node predicate groups of two id columns (:attr:`Dataset.groups`), so
a selection, merged or not, with a ground predicate touches only that
predicate's columns. Only a variable predicate makes a selection read every
group. A selection builds its rows by zipping the columns (a pattern
``?s <p> ?o`` zips its whole group), and tests a ground subject or object
on its one column. Merged and independent selections read the same rows,
so each pattern is read once and S is counted from those reads, never
built: a pattern disjoint from every other adds its row count, and only
the patterns that can share a triple are tested together in a union pass.
"""

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import and_, eq, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .cluster import (
    Dataset, IdColumns, Relation, Row, TransferLedger, broadcast, for_each_node,
    shuffle,
)
from .terms import Term, TriplePattern, pattern_label


@dataclass(frozen=True, slots=True)
class SelectionSpec:
    """The selection for one triple pattern: a plan leaf, compiled for
    reading the store's predicate groups, each a subject id column and an
    object id column (see :class:`~sparqlsim.cluster.Dataset`).

    A leaf is its ``index`` and ``pattern``; the rest is derived from the
    pattern once. ``predicate`` is the ground predicate's term id, or None
    when the predicate is a variable; ``subject`` and ``object`` are the
    ground subject's and object's ids, None where the position holds a
    variable; ``same_positions`` holds position pairs that a repeated
    variable forces to be equal; ``columns`` holds the pattern's variables
    in first-position order (subject, predicate, object), ``positions``
    each column's first position, and ``vars`` the set of the columns.
    ``whole_group`` marks the shape ``?s <p> ?o``, a ground predicate and
    two distinct variables, which matches every triple of its group.
    """

    index: int
    pattern: TriplePattern
    columns: tuple[Term, ...] = field(init=False, compare=False, repr=False)
    positions: tuple[int, ...] = field(init=False, compare=False, repr=False)
    vars: frozenset[Term] = field(init=False, compare=False, repr=False)
    predicate: int | None = field(init=False, compare=False, repr=False)
    subject: int | None = field(init=False, compare=False, repr=False)
    object: int | None = field(init=False, compare=False, repr=False)
    same_positions: tuple[tuple[int, int], ...] = field(
        init=False, compare=False, repr=False)
    whole_group: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        first_pos: dict[Term, int] = {}
        same = []
        for pos, term in enumerate(self.pattern):
            if term.is_variable:
                seen = first_pos.get(term)
                if seen is None:
                    first_pos[term] = pos
                else:
                    same.append((seen, pos))
        s, p, o = (None if t.is_variable else t.id for t in self.pattern)
        for name, value in (("columns", tuple(first_pos)),
                            ("positions", tuple(first_pos.values())),
                            ("vars", frozenset(first_pos)),
                            ("predicate", p), ("subject", s), ("object", o),
                            ("same_positions", tuple(same)),
                            ("whole_group", p is not None and len(first_pos) == 2)):
            object.__setattr__(self, name, value)

    @property
    def label(self) -> str:
        return pattern_label(self.index)

    def mask(self, p: int, group: IdColumns) -> Iterable[bool] | None:
        """Which triples of predicate ``p``'s ``group`` the pattern matches,
        one flag per index of its columns, or None when it matches them all.
        The predicate is not tested: with a ground predicate, ``p`` must be
        it. A ground subject or object tests one column, a repeated subject
        and object variable compares the two, and a variable repeated at the
        predicate tests its column against ``p``."""
        subjects, objects = group
        s_is, o_is, same = self.subject, self.object, False
        for pair in self.same_positions:
            if pair == (0, 1):
                s_is = p
            elif pair == (1, 2):
                o_is = p
            else:
                same = True
        if same and s_is is not None:
            # ?x ?x ?x: the subject is p, so the object is too.
            o_is, same = s_is, False
        if same:
            return map(eq, subjects, objects)
        if s_is is None:
            return None if o_is is None else map(o_is.__eq__, objects)
        if o_is is None:
            return map(s_is.__eq__, subjects)
        return map(and_, map(s_is.__eq__, subjects), map(o_is.__eq__, objects))

    def rows_in(self, p: int, group: IdColumns) -> Iterable[Row]:
        """One row per triple of predicate ``p``'s ``group`` the pattern
        matches, in order: the ids at the columns' positions, where the
        predicate position reads ``p``. A whole-group pattern's rows are the
        group's (subject, object) pairs."""
        if self.whole_group:
            return zip(*group)
        subjects, objects = group
        mask = self.mask(p, group)
        if not self.positions:
            # No variable: the subject and object are ground, so a mask exists.
            return [()] * sum(mask)
        sources = (subjects, repeat(p, len(subjects)), objects)
        rows = zip(*[sources[pos] for pos in self.positions])
        return rows if mask is None else compress(rows, mask)


def selection_state(spec: SelectionSpec, dataset: Dataset) -> frozenset[Term]:
    """Key of a selection's output: the variable bound at the store's
    partitioning position, if there is one."""
    pos = dataset.base.position
    if pos is not None and spec.pattern[pos].is_variable:
        return frozenset((spec.pattern[pos],))
    return frozenset()


def read_selection(spec: SelectionSpec, store: Dataset) -> Relation:
    """The selection of ``spec``, single or merged, read from the predicate
    groups of ``store``, one row chunk per node. A ground predicate reads its
    own group, with its rows in load order; a variable predicate reads every
    group, and its rows come out grouped by predicate. Charges nothing."""
    pred = spec.predicate

    def read(j: int) -> tuple[Row, ...]:
        groups = store.groups[j]
        if pred is None:
            return tuple(chain.from_iterable(
                spec.rows_in(p, group) for p, group in groups.items()))
        group = groups.get(pred)
        return () if group is None else tuple(spec.rows_in(pred, group))

    return Relation(spec.columns, tuple(for_each_node(store.m, read)),
                    selection_state(spec, store))


def triple_selection(spec: SelectionSpec, dataset: Dataset,
                     ledger: TransferLedger) -> Relation:
    """Scan the store once and emit one row per matching triple. Purely
    node-local; charges one full scan and no transfer."""
    rel = read_selection(spec, dataset)
    ledger.tally(scanned=dataset.size)
    return rel


def overlapping_patterns(specs: Sequence[SelectionSpec]) -> tuple[int, ...]:
    """Positions in ``specs`` of the patterns that can share a stored triple
    with another pattern. Two patterns are disjoint when, at some position,
    both hold ground terms that differ; a pattern disjoint from every other
    is left out, and a repeated pattern is kept."""
    grounds = [(s.subject, s.predicate, s.object) for s in specs]

    def disjoint(a: tuple, b: tuple) -> bool:
        return any(x is not None and y is not None and x != y for x, y in zip(a, b))

    return tuple(i for i, a in enumerate(grounds)
                 if any(j != i and not disjoint(a, b) for j, b in enumerate(grounds)))


def _union_size(specs: Sequence[SelectionSpec], dataset: Dataset) -> int:
    """The stored triples matching at least one of ``specs``, counted in one
    union pass over each node's predicate groups: a group is tested against
    the patterns naming its predicate plus the variable-predicate patterns,
    and skipped when there are none."""
    general = [s for s in specs if s.predicate is None]
    candidates = {s.predicate: [t for t in specs if t.predicate in (s.predicate, None)]
                  for s in specs if s.predicate is not None}
    size = 0
    for node in dataset.groups:
        for pred, group in node.items():
            tests = candidates.get(pred, general)
            if not tests:
                continue
            masks = [s.mask(pred, group) for s in tests]
            if any(mask is None for mask in masks):
                size += len(group[0])
            else:
                size += sum(masks[0] if len(masks) == 1 else map(any, zip(*masks)))
    return size


def shared_subset_size(specs: Sequence[SelectionSpec], relations: Sequence[Relation],
                       dataset: Dataset, overlapping: Sequence[int]) -> int:
    """The size of S for ``specs``, the stored triples that match at least
    one of the patterns, counted from their selections ``relations`` as
    :func:`read_selection` reads them, charging nothing; nothing is built.

    ``overlapping`` holds the positions of the patterns that can share a
    triple (:func:`overlapping_patterns`). Every other pattern's triples
    match no other pattern, so it adds its selection's row count, and only
    the patterns in ``overlapping`` are counted together, in a union pass
    over the groups they name. Pairwise-disjoint patterns make no pass.
    """
    if not overlapping:
        return sum(rel.count for rel in relations)
    skip = set(overlapping)
    return (sum(rel.count for i, rel in enumerate(relations) if i not in skip)
            + _union_size([specs[i] for i in overlapping], dataset))


def merged_selection(relations: Sequence[Relation], dataset: Dataset,
                     ledger: TransferLedger, subset_size: int) -> None:
    """Charge the selections ``relations`` one shared pass over the store,
    ``size(D) + n*subset_size`` (:func:`shared_subset_size`). They are read
    by :func:`read_selection`, as independent selections are, so rows and
    keys are identical either way; only the scan accounting differs."""
    ledger.tally(scanned=dataset.size + len(relations) * subset_size)


def fold_order(schemas: Sequence[frozenset[Term]], counts: Sequence[int],
               driver: int) -> list[int]:
    """Input indices in the order the local join folds them.

    The fold starts at ``driver``, then repeatedly takes the input that
    shares a variable with the schema folded so far and has the smallest
    logical row count, ties to the lower index. A disconnected input is
    taken only when no connected one remains, which happens only for a
    requested cross product. The order depends on schemas and logical counts
    alone, so every node folds alike.
    """
    order = [driver]
    acc = set(schemas[driver])
    rest = [i for i in range(len(schemas)) if i != driver]
    while rest:
        candidates = [i for i in rest if acc & schemas[i]] or rest
        nxt = min(candidates, key=lambda i: (counts[i], i))
        order.append(nxt)
        rest.remove(nxt)
        acc |= schemas[nxt]
    return order


def cut_rows(rows: Sequence[Row], positions: Sequence[int]) -> Iterator[Row]:
    """Each row cut to the ids at ``positions``, as a tuple, with no Python
    call per row: one position is cut by ``zip`` over ``itemgetter``, and no
    position gives ``()`` for every row."""
    if not positions:
        return repeat((), len(rows))
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions), rows)


def _key_getter(positions: Sequence[int]) -> Callable[[Row], object]:
    """A row's join key: the id at its one shared position, the tuple of
    ids at several, or ``()`` when the step shares no variable."""
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


class _FoldStep:
    """One step of a node-local join, planned once per operator.

    The step hashes one input on every variable it shares with the rows
    folded so far and probes with those rows. Each variable sits at a fixed
    position of a relation's rows, so keys are cut by position. A table
    maps each key to the ids of the variables the input adds, cut once per
    build row; an output row is the probe row followed by those ids, so
    ``columns`` is the folded columns followed by those variables.

    When the keys of a node's input are unique, the table is one
    ``dict(zip(keys, extras))`` and a probe row meets at most one match.
    Otherwise each key maps to the list of its ids in build order. A step
    tries the unique table first; once one node's input repeats a key, the
    step builds the rest of its tables as lists straight away, so a join
    whose keys repeat on every node pays for one failed try, not m. Both
    forms probe to the same rows, so the order nodes run in does not matter.
    """

    __slots__ = ("rel", "copy", "probe_key", "probe_pos", "build_key", "added",
                 "columns", "repeats", "_table")

    def __init__(self, rel: Relation, acc_columns: tuple[Term, ...],
                 copy: tuple[Row, ...] | None = None):
        shared = [v for v in acc_columns if v in rel.schema]
        self.added = [i for i, v in enumerate(rel.columns) if v not in shared]
        self.rel = rel
        self.copy = copy
        probe_positions = [acc_columns.index(v) for v in shared]
        self.probe_key = _key_getter(probe_positions)
        self.probe_pos = probe_positions[0] if len(probe_positions) == 1 else None
        self.build_key = _key_getter([rel.columns.index(v) for v in shared])
        self.columns = acc_columns + tuple(rel.columns[i] for i in self.added)
        self.repeats = False
        self._table: tuple[dict, bool] | None = None

    def table(self, j: int) -> tuple[dict, bool]:
        """Node ``j``'s share of the input, hashed on the shared variables,
        and whether its keys are unique. A broadcast copy is the same on
        every node, so its table is built once and reused."""
        if self._table is not None:
            return self._table
        rows = self.rel.chunks[j] if self.copy is None else self.copy
        keys = list(map(self.build_key, rows))
        unique = not self.repeats
        if unique:
            hashed = dict(zip(keys, cut_rows(rows, self.added)))
            unique = len(hashed) == len(keys)
            self.repeats = not unique
        if not unique:
            hashed = {}
            lookup = hashed.get
            for k, extra in zip(keys, cut_rows(rows, self.added)):
                bucket = lookup(k)
                if bucket is None:
                    hashed[k] = [extra]
                else:
                    bucket.append(extra)
        table = (hashed, unique)
        if self.copy is not None:
            self._table = table
        return table

    def probe(self, acc: Sequence[Row], table: tuple[dict, bool]) -> list[Row]:
        """Each row of ``acc`` followed by the ids of each of its matches in
        ``table``, in build order. A one-variable key is read as ``row[p]``,
        which costs less than a call per row."""
        hashed, unique = table
        lookup, p = hashed.get, self.probe_pos
        if p is None:
            key = self.probe_key
            if unique:
                return [row + e for row in acc if (e := lookup(key(row))) is not None]
            return [row + e for row in acc
                    if (bucket := lookup(key(row))) is not None for e in bucket]
        if unique:
            return [row + e for row in acc if (e := lookup(row[p])) is not None]
        return [row + e for row in acc
                if (bucket := lookup(row[p])) is not None for e in bucket]


def local_nary_join(rows: Sequence[Row], steps: Sequence[_FoldStep],
                    j: int, trail: list[list[Sequence[Row]]] | None = None) -> Sequence[Row]:
    """Node-local n-ary hash join of node ``j``'s driver ``rows`` with its
    share of every other input, folded in the order of ``steps``; with
    ``trail``, the rows after step ``i`` go to ``trail[i][j]``.

    With no shared variable a step degenerates to a cross product (the
    planner only requests one when cross products are explicitly allowed).
    """
    acc = rows
    for i, step in enumerate(steps):
        if not acc:
            return []
        acc = step.probe(acc, step.table(j))
        if trail is not None:
            trail[i][j] = acc
    return acc


def _node_count(inputs: Sequence[Relation]) -> int:
    """The node count every join input is distributed over. Inputs on
    different node counts raise ValueError; a join checks this before it
    stages anything, so a refused join charges no transfer."""
    counts = [rel.m for rel in inputs]
    if len(set(counts)) > 1:
        raise ValueError(f"join inputs are distributed over different node counts: {counts}")
    return counts[0]


def _join_nodes(staged: Sequence[Relation], driver: int,
                copies: dict[int, tuple[Row, ...]], m: int,
                key: frozenset[Term], trail: list | None = None) -> Relation:
    """Run the local join on each of the ``m`` nodes, driven by the chunks
    of ``staged[driver]``; ``copies`` maps an input's index to the broadcast
    copy every node reads in place of its chunk. The fold order and the
    step layouts are planned once, and the output's columns are the last
    step's; with ``trail``, the inputs fold in the order given."""
    steps: list[_FoldStep] = []
    columns = staged[driver].columns
    order = (range(len(staged)) if trail is not None else
             fold_order([rel.schema for rel in staged], [rel.count for rel in staged], driver))
    for i in order[1:]:
        step = _FoldStep(staged[i], columns, copies.get(i))
        steps.append(step)
        columns = step.columns
    driver_chunks = staged[driver].chunks

    def join_node(j: int) -> tuple[Row, ...]:
        return tuple(local_nary_join(driver_chunks[j], steps, j, trail))

    return Relation(columns, tuple(for_each_node(m, join_node)), key)


def pjoin(on: frozenset[Term], inputs: Sequence[Relation],
          ledger: TransferLedger, trail: list | None = None) -> Relation:
    """Partitioned n-ary join on the variable set ``on``.

    Every input not already keyed exactly on ``on`` is shuffled first, and
    the local join is driven from the first input. The result is keyed on
    ``on``. With ``trail`` (m slots per input after the first) the inputs
    fold in the order given, a left-deep run in one fold, row for row.
    """
    if len(inputs) < 2:
        raise ValueError("pjoin needs at least two inputs")
    if not on:
        raise ValueError("pjoin requires a nonempty join variable set")
    for rel in inputs:
        if not on <= rel.schema:
            missing = ", ".join(v.nt() for v in sorted(on - rel.schema))
            raise ValueError(f"not a join variable of every input: {missing}")

    m = _node_count(inputs)
    staged = [rel if rel.key == on else shuffle(rel, on, ledger) for rel in inputs]
    return _join_nodes(staged, 0, {}, m, on, trail)


def brjoin(inputs: Sequence[Relation], target_index: int,
           ledger: TransferLedger) -> Relation:
    """Broadcast n-ary join: every input except the target is shipped to all
    nodes and the join runs against the target's local chunks, so the
    result inherits the target's key. The broadcast copies
    exist only for this join.

    The local join hashes on the variables the inputs actually share;
    inputs that share none join as a cross product. Planners decide
    whether one is allowed (:func:`logical.check_cross`).
    """
    if len(inputs) < 2:
        raise ValueError("brjoin needs at least two inputs")
    if not 0 <= target_index < len(inputs):
        raise IndexError(f"target index {target_index} out of range for {len(inputs)} inputs")

    m = _node_count(inputs)
    copies = {i: broadcast(rel, ledger)
              for i, rel in enumerate(inputs) if i != target_index}
    return _join_nodes(inputs, target_index, copies, m, inputs[target_index].key)


def project(rel: Relation, select: Sequence[Term]) -> Relation:
    """Bag projection onto ``select``. A relation over exactly the select
    list's variables is returned as it is; otherwise the output's columns
    are the select list's, each variable at its first occurrence. Keeps the
    key when it survives the projection, degrades to random otherwise."""
    select_set = frozenset(select)
    if not select_set <= rel.schema:
        missing = ", ".join(v.nt() for v in sorted(select_set - rel.schema))
        raise ValueError(f"cannot project on variables outside the schema: {missing}")
    if select_set == rel.schema:
        return rel

    columns = tuple(dict.fromkeys(select))
    positions = [rel.columns.index(v) for v in columns]
    chunks = tuple(tuple(cut_rows(chunk, positions)) for chunk in rel.chunks)
    return Relation(columns, chunks, rel.key if rel.key <= select_set else frozenset())
