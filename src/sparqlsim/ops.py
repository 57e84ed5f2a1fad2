"""Distributed physical operators: selections and joins.

Accounting conventions (charged to the :class:`TransferLedger`):

* a triple selection scans the whole store once: ``scanned += size(D)``;
* a merged selection for n patterns builds the union subset S in one pass
  and extracts each pattern's rows from S, so ``scanned += size(D) + n*size(S)``;
* a partitioned join shuffles every input whose layout is not already keyed
  exactly on the join variables (replicated inputs are never shuffled);
* a broadcast join replicates every non-target input at ``(m-1)`` copies.

Join results use bag semantics: the natural join of the inputs. The local
join folds from a driver input (the broadcast target, or the first
partitioned pjoin input) through the inputs connected to it, and hashes each
step on every variable the step's input shares with the rows folded so far,
so a bucket hit is always a compatible pair of rows.

The scan charges are modeled, not the simulator's work: the host reads a
selection with a ground predicate from the store's per-node predicate index
(:attr:`Dataset.index`), so it touches only that predicate's triples, and
only a variable predicate makes it read whole chunks.
"""

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Sequence

from .cluster import (
    Cluster, Dataset, PartitionKind, PartitionState, RANDOM_STATE, Relation, Row,
    TransferLedger, broadcast, for_each_node, keyed, placement, shuffle,
)
from .terms import Term, Triple, TriplePattern


@dataclass(frozen=True)
class SelectionSpec:
    """A triple pattern compiled for scanning.

    ``predicate`` is the ground predicate, or None when the predicate is a
    variable; ``conditions`` holds one (position, term) equality per other
    ground position; ``same_positions`` holds position pairs that a
    repeated variable forces to be equal; ``row_for`` stamps out the row
    of a matching triple: the term at each variable's first position, in
    sorted variable order.
    """

    index: int
    pattern: TriplePattern
    projection: frozenset[Term]
    predicate: Term | None
    conditions: tuple[tuple[int, Term], ...]
    same_positions: tuple[tuple[int, int], ...]
    row_for: Callable[[Triple], Row] = field(compare=False, repr=False)

    @classmethod
    def compile(cls, index: int, pattern: TriplePattern) -> "SelectionSpec":
        conditions = []
        first_pos: dict[Term, int] = {}
        same = []
        for pos, term in enumerate(pattern.positions()):
            if term.is_variable:
                seen = first_pos.get(term)
                if seen is None:
                    first_pos[term] = pos
                else:
                    same.append((seen, pos))
            elif pos != 1:
                conditions.append((pos, term))
        names = [("s", "p", "o")[first_pos[v]] for v in sorted(first_pos)]
        return cls(index=index, pattern=pattern,
                   projection=frozenset(first_pos),
                   predicate=None if pattern.p.is_variable else pattern.p,
                   conditions=tuple(conditions),
                   same_positions=tuple(same),
                   row_for=_tuple_getter(names, attrgetter))

    @property
    def label(self) -> str:
        """1-based textual pattern name, t1, t2, ..."""
        return f"t{self.index + 1}"

    def matches(self, triple: Triple) -> bool:
        if self.predicate is not None and triple.p != self.predicate:
            return False
        return self.matches_in_group(triple)

    def matches_in_group(self, triple: Triple) -> bool:
        """:meth:`matches` for a triple that carries the pattern's ground
        predicate, as every triple of its predicate group does: the
        predicate is not tested again."""
        for pos, term in self.conditions:
            if triple[pos] != term:
                return False
        for a, b in self.same_positions:
            if triple[a] != triple[b]:
                return False
        return True

    @property
    def matches_whole_group(self) -> bool:
        """Whether the pattern matches every triple of its predicate group,
        or, with a variable predicate, every triple of the store."""
        return not self.conditions and not self.same_positions

    def rows_of(self, triples: Iterable[Triple]) -> tuple[Row, ...]:
        """One row per matching triple, in order. With a ground predicate,
        ``triples`` must be triples of that predicate (a predicate group)."""
        if self.matches_whole_group:
            return tuple(map(self.row_for, triples))
        row_for, test = self.row_for, self.matches_in_group
        return tuple(row_for(t) for t in triples if test(t))


def selection_state(spec: SelectionSpec, dataset: Dataset) -> PartitionState:
    """Partition state of a selection's output: keyed on the variable bound
    at the store's partitioning position, if there is one."""
    pos = dataset.base.position
    if pos is None:
        return RANDOM_STATE
    term = spec.pattern[pos]
    if term.is_variable:
        return keyed((term,))
    return RANDOM_STATE


def compile_specs(patterns: Sequence[TriplePattern]) -> list[SelectionSpec]:
    return [SelectionSpec.compile(i, p) for i, p in enumerate(patterns)]


def triple_selection(spec: SelectionSpec, dataset: Dataset, cluster: Cluster,
                     ledger: TransferLedger) -> Relation:
    """Scan the store once and emit one row per matching triple, in chunk
    order. Purely node-local; charges one full scan and no transfer. A
    ground predicate reads only that predicate's group of each node's
    index."""
    if cluster.m != dataset.m:
        raise ValueError(f"dataset is distributed over {dataset.m} nodes, cluster has {cluster.m}")
    pred = spec.predicate

    def scan(j: int) -> tuple[Row, ...]:
        if pred is None:
            return spec.rows_of(dataset.chunks[j])
        return spec.rows_of(dataset.index[j].get(pred, ()))

    chunks = tuple(for_each_node(cluster, scan))
    ledger.tally(f"sel[{spec.label}]", scanned=dataset.size)
    return Relation(spec.projection, chunks, selection_state(spec, dataset))


@dataclass(frozen=True, slots=True)
class SharedSubset:
    """S of a merged scan: on each node, the triples that match at least one
    of the patterns, grouped by predicate in chunk order; ``size`` is |S|
    over all nodes."""

    nodes: tuple[dict[Term, tuple[Triple, ...]], ...]
    size: int


def shared_subset(specs: Sequence[SelectionSpec], dataset: Dataset,
                  cluster: Cluster) -> SharedSubset:
    """The union pass of a merged scan: S for ``specs``, charging nothing.

    The pass walks each node's predicate index: a predicate group is tested
    against the patterns naming that predicate plus the variable-predicate
    patterns, and skipped when there are none.
    """
    if not specs:
        raise ValueError("merged selection needs at least one pattern")
    if cluster.m != dataset.m:
        raise ValueError(f"dataset is distributed over {dataset.m} nodes, cluster has {cluster.m}")
    # The patterns each predicate group is tested against: those naming the
    # predicate, then the variable-predicate ones, which every group gets.
    general = [s for s in specs if s.predicate is None]
    candidates: dict[Term, list[SelectionSpec]] = {}
    for spec in specs:
        if spec.predicate is not None:
            candidates.setdefault(spec.predicate, []).append(spec)
    for group_specs in candidates.values():
        group_specs.extend(general)

    def union_pass(j: int) -> dict[Term, tuple[Triple, ...]]:
        kept: dict[Term, tuple[Triple, ...]] = {}
        for pred, group in dataset.index[j].items():
            tests = candidates.get(pred, general)
            if not tests:
                continue
            if any(s.matches_whole_group for s in tests):
                kept[pred] = group
                continue
            keep = tuple(t for t in group if any(s.matches_in_group(t) for s in tests))
            if keep:
                kept[pred] = keep
        return kept

    # A node's S is a dict of predicate groups rather than a chunk of rows,
    # so it is built outside for_each_node, which returns row chunks.
    nodes = tuple(union_pass(j) for j in cluster.nodes)
    return SharedSubset(nodes, sum(len(g) for kept in nodes for g in kept.values()))


def merged_selection(specs: Sequence[SelectionSpec], dataset: Dataset,
                     cluster: Cluster, ledger: TransferLedger,
                     subset: SharedSubset | None = None) -> tuple[list[Relation], int]:
    """Evaluate several selections with one shared pass over the store.

    Each node first materializes S, the triples matching at least one
    pattern (:func:`shared_subset`, or ``subset`` when the caller already
    built it for the same ``specs``), then every pattern is extracted by
    scanning S. Output row multisets and partition states are identical to
    independent selections; only the scan accounting differs. Returns the
    per-pattern relations and the size of S.

    S stays grouped by predicate, so a ground-predicate pattern is extracted
    from its own group, with its rows in chunk order; a variable-predicate
    pattern reads every group, and its rows come out grouped by predicate.
    """
    if subset is None:
        subset = shared_subset(specs, dataset, cluster)
    relations = []
    for spec in specs:
        def extract(j: int, spec=spec) -> tuple[Row, ...]:
            if spec.predicate is None:
                return spec.rows_of(chain.from_iterable(subset.nodes[j].values()))
            return spec.rows_of(subset.nodes[j].get(spec.predicate, ()))

        chunks = tuple(for_each_node(cluster, extract))
        relations.append(Relation(spec.projection, chunks, selection_state(spec, dataset)))

    op = "merged-sel[" + ",".join(s.label for s in specs) + "]"
    ledger.tally(op, scanned=dataset.size + len(specs) * subset.size)
    return relations, subset.size


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


def _tuple_getter(keys: Sequence, getter=itemgetter) -> Callable[[object], tuple]:
    """Like ``getter(*keys)``, but always returns a tuple: row positions
    with ``itemgetter``, triple fields with ``attrgetter``."""
    if len(keys) == 1:
        get = getter(keys[0])
        return lambda obj: (get(obj),)
    if not keys:
        return lambda obj: ()
    return getter(*keys)


class _FoldStep:
    """One step of a node-local join, planned once per operator.

    The step hashes one input on every variable it shares with the rows
    folded so far and probes with those rows. Each variable sits at a fixed
    position of a relation's rows, so key and output tuples are cut by
    position.
    """

    __slots__ = ("rel", "probe_key", "build_key", "pick", "out_vars", "_table")

    def __init__(self, rel: Relation, acc_vars: list[Term]):
        in_vars = sorted(rel.schema)
        shared = [v for v in acc_vars if v in rel.schema]
        added = [v for v in in_vars if v not in shared]
        self.rel = rel
        self.probe_key = _tuple_getter([acc_vars.index(v) for v in shared])
        self.build_key = _tuple_getter([in_vars.index(v) for v in shared])
        self.out_vars = sorted(acc_vars + added)
        # An output row is picked from the probe row followed by the build
        # row; None when the input adds no variable.
        both = acc_vars + in_vars
        self.pick = (_tuple_getter([both.index(v) for v in self.out_vars])
                     if added else None)
        self._table: dict[tuple, list[Row]] | None = None

    def table(self, j: int) -> dict[tuple, list[Row]]:
        """Node ``j``'s share of the input, hashed on the shared variables.
        A replicated input's chunk is the same on every node, so its table
        is built once and reused."""
        if self._table is not None:
            return self._table
        table: dict[tuple, list[Row]] = {}
        key = self.build_key
        for row in self.rel.chunks[j]:
            k = key(row)
            bucket = table.get(k)
            if bucket is None:
                table[k] = [row]
            else:
                bucket.append(row)
        if self.rel.partition.is_replicated:
            self._table = table
        return table

    def probe(self, acc: Sequence[Row], table: dict[tuple, list[Row]]) -> list[Row]:
        key, pick, lookup = self.probe_key, self.pick, table.get
        out: list[Row] = []
        for row in acc:
            bucket = lookup(key(row))
            if bucket is None:
                continue
            if pick is None:
                out.extend([row] * len(bucket))
            else:
                for right in bucket:
                    out.append(pick(row + right))
        return out


def local_nary_join(rows: Sequence[Row], steps: Sequence[_FoldStep],
                    j: int) -> Sequence[Row]:
    """Node-local n-ary hash join of node ``j``'s driver ``rows`` with its
    share of every other input, folded in the order of ``steps``.

    With no shared variable a step degenerates to a cross product (the
    planner only requests one when cross products are explicitly allowed).
    """
    acc = rows
    for step in steps:
        if not acc:
            return []
        acc = step.probe(acc, step.table(j))
    return acc


def _join_nodes(staged: Sequence[Relation], driver: int,
                cluster: Cluster) -> tuple[tuple[Row, ...], ...]:
    """Run the local join on every node, driven by ``staged[driver]``'s
    chunks; the fold order and the step layouts are planned once."""
    steps: list[_FoldStep] = []
    acc_vars = sorted(staged[driver].schema)
    order = fold_order([rel.schema for rel in staged],
                       [rel.count for rel in staged], driver)
    for i in order[1:]:
        step = _FoldStep(staged[i], acc_vars)
        steps.append(step)
        acc_vars = step.out_vars
    driver_chunks = staged[driver].chunks

    def join_node(j: int) -> tuple[Row, ...]:
        return tuple(local_nary_join(driver_chunks[j], steps, j))

    return tuple(for_each_node(cluster, join_node))


def _union_schema(inputs: Sequence[Relation]) -> frozenset[Term]:
    out: set[Term] = set()
    for rel in inputs:
        out |= rel.schema
    return frozenset(out)


def pjoin(on: frozenset[Term], inputs: Sequence[Relation], cluster: Cluster,
          ledger: TransferLedger, operator: str = "pjoin") -> Relation:
    """Partitioned n-ary join on the variable set ``on``.

    Every input not already keyed exactly on ``on`` is shuffled first;
    replicated inputs are used in place (replication dominates any keyed
    layout). The result is keyed on ``on``.
    """
    if len(inputs) < 2:
        raise ValueError("pjoin needs at least two inputs")
    if not on:
        raise ValueError("pjoin requires a nonempty join variable set")
    for rel in inputs:
        if not on <= rel.schema:
            missing = ", ".join(v.nt() for v in sorted(on - rel.schema))
            raise ValueError(f"not a join variable of every input: {missing}")

    staged: list[Relation] = []
    anchored = False
    for rel in inputs:
        if rel.partition.is_replicated:
            staged.append(rel)
        elif rel.partition.is_keyed_on(on):
            staged.append(rel)
            anchored = True
        else:
            staged.append(shuffle(rel, on, ledger, operator))
            anchored = True

    if not anchored:
        # All inputs replicated: restrict the first input to each node's hash
        # share so every result row is produced exactly once, at no cost.
        first = staged[0]
        dest_of = placement(first.schema, on, cluster.m)
        sliced: list[list[Row]] = [[] for _ in cluster.nodes]
        for row in first.chunks[0]:
            sliced[dest_of(row)].append(row)
        staged[0] = Relation(first.schema, tuple(tuple(c) for c in sliced), keyed(on))

    driver = next(i for i, rel in enumerate(staged) if not rel.partition.is_replicated)
    return Relation(_union_schema(inputs), _join_nodes(staged, driver, cluster), keyed(on))


def brjoin(on: frozenset[Term], inputs: Sequence[Relation], target_index: int,
           cluster: Cluster, ledger: TransferLedger, operator: str = "brjoin",
           allow_empty_on: bool = False) -> Relation:
    """Broadcast n-ary join: every input except the target is replicated to
    all nodes and the join runs against the target's local chunks, so the
    result inherits the target's partition state.

    ``on`` names the join variables; it does not need to be contained in
    every schema (a whole-query broadcast join uses the union of all join
    variables). The local join hashes on the variables the inputs actually
    share, so ``on`` only guards against an unrequested cross product.
    """
    if len(inputs) < 2:
        raise ValueError("brjoin needs at least two inputs")
    if not 0 <= target_index < len(inputs):
        raise IndexError(f"target index {target_index} out of range for {len(inputs)} inputs")
    if not on and not allow_empty_on:
        raise ValueError("brjoin requires a nonempty join variable set "
                         "(cross products are opt-in)")

    staged = [rel if i == target_index else broadcast(rel, ledger, operator)
              for i, rel in enumerate(inputs)]
    chunks = _join_nodes(staged, target_index, cluster)
    return Relation(_union_schema(inputs), chunks, inputs[target_index].partition)


def project(rel: Relation, select: Sequence[Term]) -> Relation:
    """Bag projection onto ``select``. Keeps the partition state when the
    key survives the projection, degrades to random otherwise."""
    select_set = frozenset(select)
    if not select_set <= rel.schema:
        missing = ", ".join(v.nt() for v in sorted(select_set - rel.schema))
        raise ValueError(f"cannot project on variables outside the schema: {missing}")
    if select_set == rel.schema:
        return rel

    order = sorted(rel.schema)
    cut = _tuple_getter([order.index(v) for v in sorted(select_set)])
    chunks = tuple(tuple(map(cut, chunk)) for chunk in rel.chunks)
    state = rel.partition
    if state.kind is PartitionKind.KEYED and not state.key <= select_set:
        state = RANDOM_STATE
    return Relation(select_set, chunks, state)
