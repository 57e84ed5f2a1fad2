"""Distributed physical operators: selections and joins.

Accounting conventions (charged to the :class:`TransferLedger`):

* a triple selection scans the whole store once: ``scanned += size(D)``;
* a merged selection for n patterns builds the union subset S in one pass
  and extracts each pattern's rows from S, so ``scanned += size(D) + n*size(S)``;
* a partitioned join shuffles every input whose layout is not already keyed
  exactly on the join variables (replicated inputs are never shuffled);
* a broadcast join replicates every non-target input at ``(m-1)`` copies.

Join results use bag semantics. The hash key of the local join is the join
variable set restricted to the schemas at each fold step; residual shared
variables are enforced by row-merge compatibility, so the result is always
the natural join of the inputs.
"""

from dataclasses import dataclass
from typing import Sequence

from .cluster import (
    Cluster, Dataset, PartitionKind, PartitionState, RANDOM_STATE, Relation,
    TransferLedger, broadcast, for_each_node, keyed, node_of, shuffle,
)
from .terms import BindingRow, EMPTY_ROW, Term, Triple, TriplePattern, merge_rows


@dataclass(frozen=True)
class SelectionSpec:
    """A triple pattern compiled for scanning.

    ``conditions`` holds one (position, term) equality per ground position;
    ``same_positions`` holds position pairs that a repeated variable forces
    to be equal; ``template`` lists (variable, source position) pairs in
    variable order, ready to stamp out binding rows.
    """

    index: int
    pattern: TriplePattern
    projection: frozenset[Term]
    conditions: tuple[tuple[int, Term], ...]
    same_positions: tuple[tuple[int, int], ...]
    template: tuple[tuple[Term, int], ...]

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
            else:
                conditions.append((pos, term))
        template = tuple(sorted(((v, pos) for v, pos in first_pos.items()),
                                key=lambda item: item[0]))
        return cls(index=index, pattern=pattern,
                   projection=frozenset(first_pos),
                   conditions=tuple(conditions),
                   same_positions=tuple(same),
                   template=template)

    @property
    def label(self) -> str:
        """1-based textual pattern name, t1, t2, ..."""
        return f"t{self.index + 1}"

    def matches(self, triple: Triple) -> bool:
        for pos, term in self.conditions:
            if triple[pos] != term:
                return False
        for a, b in self.same_positions:
            if triple[a] != triple[b]:
                return False
        return True

    def row_for(self, triple: Triple) -> BindingRow:
        if not self.template:
            return EMPTY_ROW
        return BindingRow(tuple((v, triple[pos]) for v, pos in self.template))


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
                     ledger: TransferLedger, operator: str | None = None) -> Relation:
    """Scan the store once and emit one row per matching triple. Purely
    node-local; charges one full scan and no transfer."""
    if cluster.m != dataset.m:
        raise ValueError(f"dataset is distributed over {dataset.m} nodes, cluster has {cluster.m}")
    op = operator if operator is not None else f"sel[{spec.label}]"

    def scan(j: int) -> tuple[BindingRow, ...]:
        chunk = dataset.chunks[j]
        return tuple(spec.row_for(t) for t in chunk if spec.matches(t))

    chunks = tuple(for_each_node(cluster, scan))
    ledger.tally(op, scanned=dataset.size)
    return Relation(spec.projection, chunks, selection_state(spec, dataset))


def merged_selection(specs: Sequence[SelectionSpec], dataset: Dataset,
                     cluster: Cluster, ledger: TransferLedger,
                     operator: str | None = None) -> tuple[list[Relation], int]:
    """Evaluate several selections with one shared pass over the store.

    Each node first materializes S, the triples matching at least one
    pattern, then every pattern is extracted by scanning S. Output rows and
    partition states are identical to independent selections; only the scan
    accounting differs. Returns the per-pattern relations and the size of S.
    """
    if not specs:
        raise ValueError("merged selection needs at least one pattern")
    if cluster.m != dataset.m:
        raise ValueError(f"dataset is distributed over {dataset.m} nodes, cluster has {cluster.m}")
    op = operator if operator is not None else (
        "merged-sel[" + ",".join(s.label for s in specs) + "]")

    # Dispatch on a ground predicate where possible; correctness does not
    # depend on it, the union pass just avoids testing every pattern.
    by_predicate: dict[Term, list[SelectionSpec]] = {}
    general: list[SelectionSpec] = []
    for spec in specs:
        pred = spec.pattern.p
        if pred.is_variable:
            general.append(spec)
        else:
            by_predicate.setdefault(pred, []).append(spec)

    def union_pass(j: int) -> tuple[Triple, ...]:
        keep = []
        for t in dataset.chunks[j]:
            candidates = by_predicate.get(t.p)
            if candidates is not None and any(s.matches(t) for s in candidates):
                keep.append(t)
            elif general and any(s.matches(t) for s in general):
                keep.append(t)
        return tuple(keep)

    subset_chunks = for_each_node(cluster, union_pass)
    subset_size = sum(len(c) for c in subset_chunks)

    relations = []
    for spec in specs:
        def extract(j: int, spec=spec) -> tuple[BindingRow, ...]:
            return tuple(spec.row_for(t) for t in subset_chunks[j] if spec.matches(t))

        chunks = tuple(for_each_node(cluster, extract))
        relations.append(Relation(spec.projection, chunks, selection_state(spec, dataset)))

    ledger.tally(op, scanned=dataset.size + len(specs) * subset_size)
    return relations, subset_size


def local_nary_join(parts: Sequence[tuple[Sequence[BindingRow], frozenset[Term]]],
                    on: frozenset[Term]) -> list[BindingRow]:
    """Node-local n-ary hash join.

    Inputs are folded left to right. Each step hashes the next input on the
    join variables present in both sides' schemas and merges candidate rows,
    which also enforces any residual shared variables. With ``on`` empty this
    degenerates to a filtered cross product (the planner only requests that
    when cross products are explicitly allowed).
    """
    if not parts:
        return []
    acc_rows = list(parts[0][0])
    acc_schema = set(parts[0][1])
    for rows, schema in parts[1:]:
        if not acc_rows:
            return []
        step_key = sorted(on & acc_schema & schema)
        index: dict[tuple, list[BindingRow]] = {}
        for row in rows:
            key = tuple(row.get(v) for v in step_key)
            index.setdefault(key, []).append(row)
        out: list[BindingRow] = []
        for left in acc_rows:
            bucket = index.get(tuple(left.get(v) for v in step_key))
            if bucket is None:
                continue
            for right in bucket:
                merged = merge_rows(left, right)
                if merged is not None:
                    out.append(merged)
        acc_rows = out
        acc_schema |= schema
    return acc_rows


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
        key_sorted = sorted(on)
        sliced = tuple(
            tuple(r for r in first.chunks[j] if node_of(r, key_sorted, cluster.m) == j)
            for j in cluster.nodes)
        staged[0] = Relation(first.schema, sliced, keyed(on))

    def join_node(j: int) -> tuple[BindingRow, ...]:
        parts = [(rel.chunks[j], rel.schema) for rel in staged]
        return tuple(local_nary_join(parts, on))

    chunks = tuple(for_each_node(cluster, join_node))
    return Relation(_union_schema(inputs), chunks, keyed(on))


def brjoin(on: frozenset[Term], inputs: Sequence[Relation], target_index: int,
           cluster: Cluster, ledger: TransferLedger, operator: str = "brjoin",
           allow_empty_on: bool = False) -> Relation:
    """Broadcast n-ary join: every input except the target is replicated to
    all nodes and the join runs against the target's local chunks, so the
    result inherits the target's partition state.

    ``on`` acts as the hash-key hint for the local join; it does not need to
    be contained in every schema (a whole-query broadcast join uses the union
    of all join variables).
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
    target = inputs[target_index]

    def join_node(j: int) -> tuple[BindingRow, ...]:
        parts = [(rel.chunks[j], rel.schema) for rel in staged]
        return tuple(local_nary_join(parts, on))

    chunks = tuple(for_each_node(cluster, join_node))
    return Relation(_union_schema(inputs), chunks, target.partition)


def project(rel: Relation, select: Sequence[Term]) -> Relation:
    """Bag projection onto ``select``. Keeps the partition state when the
    key survives the projection, degrades to random otherwise."""
    select_set = frozenset(select)
    if not select_set <= rel.schema:
        missing = ", ".join(v.nt() for v in sorted(select_set - rel.schema))
        raise ValueError(f"cannot project on variables outside the schema: {missing}")
    if select_set == rel.schema:
        return rel

    def cut(row: BindingRow) -> BindingRow:
        return BindingRow(tuple(item for item in row.items if item[0] in select_set))

    chunks = tuple(tuple(cut(r) for r in chunk) for chunk in rel.chunks)
    state = rel.partition
    if state.kind is PartitionKind.KEYED and not state.key <= select_set:
        state = RANDOM_STATE
    return Relation(select_set, chunks, state)
