"""The one execution path for selections and joins, and the execution trace.

Every strategy, static or adaptive, runs its selections and joins through an
:class:`Executor`. A static plan is walked bottom-up in one call; the
adaptive planner hands the executor one step at a time. The executor
charges every scan and transfer to a :class:`TransferLedger` and appends
one entry per operator to an :class:`ExecutionTrace`; the trace carries
exactly the quantities the cost model prices (input sizes, layouts, store
and shared-subset sizes), so :func:`trace_cost` can recompute a run's
modeled cost from the trace alone and be checked against the ledger.

Selections can be served from a ``leaf_cache`` so that a strategy that
already measured them (to pick broadcast targets, say) does not scan or
charge twice.
"""

from dataclasses import dataclass, field
from typing import Sequence

from .cluster import (
    Cluster, Dataset, PartitionState, Relation, TransferLedger, check_placement,
)
from .cost import (
    CostEstimate, CostParams, DEFAULT_PARAMS, brjoin_broadcast_size,
    pjoin_shuffle_size,
)
from .ops import (
    SelectionSpec, SharedSubset, brjoin, merged_selection, pjoin, project,
    shared_subset, triple_selection,
)
from .physical import (
    BrjoinNode, PhysicalPlan, PhysNode, PjoinNode, SelectionNode, plan_leaves,
)
from .terms import Term


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One executed operator, with everything the cost model needs."""

    kind: str                       # "selection" | "merged-selection" | "pjoin" | "brjoin"
    operator: str                   # ledger operator id
    inputs: tuple[tuple[int, PartitionState], ...]
    output_size: int
    output_state: PartitionState
    on: frozenset[Term] = frozenset()
    target: int | None = None       # brjoin only
    dataset_size: int = 0           # selections only
    pattern_count: int = 0          # merged selections: patterns sharing the pass
    subset_size: int = 0            # merged selections: shared subset size


@dataclass(slots=True)
class ExecutionTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def add(self, entry: TraceEntry) -> None:
        self.entries.append(entry)


def trace_cost(trace: ExecutionTrace, m: int,
               params: CostParams = DEFAULT_PARAMS) -> CostEstimate:
    """Recompute a run's modeled cost from its trace.

    With unit weights this must equal the ledger: access = tuples scanned,
    transfer = modeled shuffles plus broadcast copies.
    """
    access = 0.0
    transfer = 0.0
    for e in trace.entries:
        if e.kind == "selection":
            access += e.dataset_size
        elif e.kind == "merged-selection":
            access += e.dataset_size + e.pattern_count * e.subset_size
        elif e.kind == "pjoin":
            transfer += pjoin_shuffle_size(e.inputs, e.on)
        elif e.kind == "brjoin":
            transfer += brjoin_broadcast_size(e.inputs, e.target, m)
        else:
            raise ValueError(f"unknown trace entry kind: {e.kind}")
    return CostEstimate(access=params.theta_acc * access,
                        transfer=params.theta_comm * transfer)


class Executor:
    """The only code that runs distributed operators.

    Each selection or join step stages its operator, numbers it, appends its
    trace entry and, with ``validate``, checks its placement. Static plans
    run whole through :meth:`run`; the adaptive planner calls
    :meth:`run_selections` and :meth:`run_join` one step at a time.
    """

    def __init__(self, dataset: Dataset, cluster: Cluster, ledger: TransferLedger,
                 trace: ExecutionTrace | None = None, validate: bool = False,
                 leaf_cache: dict[int, Relation] | None = None):
        self.dataset = dataset
        self.cluster = cluster
        self.ledger = ledger
        self.trace = trace
        self.validate = validate
        self.leaf_cache: dict[int, Relation] = dict(leaf_cache) if leaf_cache else {}
        self._join_seq = 0

    def run(self, plan: PhysicalPlan, select: Sequence[Term] | None = None) -> Relation:
        """Run a whole plan. A ``shared_scan`` plan first reads all its
        selections in one shared pass, unless the leaf cache already holds
        measured selections."""
        if plan.shared_scan and not self.leaf_cache:
            leaves = sorted(plan_leaves(plan.root), key=lambda leaf: leaf.index)
            specs = [SelectionSpec.compile(leaf.index, leaf.pattern) for leaf in leaves]
            self.run_selections(specs, shared_subset(specs, self.dataset, self.cluster))
        result = self._execute(plan.root)
        if select is not None:
            result = self.run_projection(result, select)
        return result

    def run_selections(self, specs: Sequence[SelectionSpec],
                       subset: SharedSubset | None = None) -> list[Relation]:
        """Selection step: one store scan per pattern, or, given the shared
        subset S of ``specs``, one shared pass over the store for all of them
        with every pattern extracted from S. Fills the leaf cache."""
        if subset is not None:
            rels, size = merged_selection(specs, self.dataset, self.cluster,
                                          self.ledger, subset)
            labels = ",".join(s.label for s in specs)
            self._record(TraceEntry(
                kind="merged-selection", operator=f"merged-sel[{labels}]", inputs=(),
                output_size=sum(r.count for r in rels), output_state=rels[0].partition,
                dataset_size=self.dataset.size, pattern_count=len(specs),
                subset_size=size), rels)
        else:
            rels = []
            for spec in specs:
                rel = triple_selection(spec, self.dataset, self.cluster, self.ledger)
                self._record(TraceEntry(
                    kind="selection", operator=f"sel[{spec.label}]", inputs=(),
                    output_size=rel.count, output_state=rel.partition,
                    dataset_size=self.dataset.size), [rel])
                rels.append(rel)
        for spec, rel in zip(specs, rels):
            self.leaf_cache[spec.index] = rel
        return rels

    def run_join(self, node: PjoinNode | BrjoinNode,
                 inputs: Sequence[Relation]) -> Relation:
        """Join step: join ``inputs`` with the algorithm, key and target of
        ``node``; the node's children are not read."""
        if isinstance(node, PjoinNode):
            kind, target = "pjoin", None
        elif isinstance(node, BrjoinNode):
            kind, target = "brjoin", node.target
        else:
            raise TypeError(f"unknown plan node: {node!r}")
        self._join_seq += 1
        op = f"{kind}#{self._join_seq}"
        if target is None:
            out = pjoin(node.on, inputs, self.cluster, self.ledger, op)
        else:
            out = brjoin(node.on, inputs, target, self.cluster, self.ledger, op,
                         allow_empty_on=node.cross)
        self._record(TraceEntry(
            kind=kind, operator=op, inputs=tuple((r.count, r.partition) for r in inputs),
            output_size=out.count, output_state=out.partition, on=node.on,
            target=target), [out])
        return out

    def run_projection(self, rel: Relation, select: Sequence[Term]) -> Relation:
        """Final projection onto the select list; not a traced operator."""
        out = project(rel, select)
        if self.validate:
            check_placement(out)
        return out

    def _record(self, entry: TraceEntry, outputs: Sequence[Relation]) -> None:
        if self.trace is not None:
            self.trace.add(entry)
        if self.validate:
            for rel in outputs:
                check_placement(rel)

    def _execute(self, node: PhysNode) -> Relation:
        if isinstance(node, SelectionNode):
            rel = self.leaf_cache.get(node.index)
            if rel is None:
                spec = SelectionSpec.compile(node.index, node.pattern)
                [rel] = self.run_selections([spec])
            return rel
        return self.run_join(node, [self._execute(child) for child in node.children])


def execute_plan(plan: PhysicalPlan, dataset: Dataset, cluster: Cluster,
                 ledger: TransferLedger, *, select: Sequence[Term] | None = None,
                 trace: ExecutionTrace | None = None, validate: bool = False,
                 leaf_cache: dict[int, Relation] | None = None) -> Relation:
    """Convenience wrapper around :class:`Executor`."""
    return Executor(dataset, cluster, ledger, trace, validate, leaf_cache).run(plan, select)
