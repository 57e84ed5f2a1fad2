"""The one execution path for selections and joins, and the execution trace.

Every strategy, static or adaptive, runs its selections and joins through an
:class:`Executor`. A static plan is walked bottom-up in one call; the
adaptive planner hands the executor one step at a time. The executor
charges every scan and transfer to a :class:`TransferLedger` and appends
one entry per operator to an :class:`ExecutionTrace`; the trace carries
exactly the quantities the cost model prices (input sizes, layouts, store
and shared-subset sizes), so :func:`trace_cost` can recompute a run's
modeled cost from the trace alone and be checked against the ledger.

One executor is the whole context of a run: the store, the ledger, the
trace and the validation switch. It keeps every selection it ran in its
``leaf_cache``, so a plan built from measured selections (to pick broadcast
targets, say) runs on the same executor without scanning or charging twice.
"""

from dataclasses import dataclass, field
from typing import Sequence

from .cluster import Dataset, PartitionState, Relation, TransferLedger, check_placement
from .cost import (
    CostEstimate, CostParams, DEFAULT_PARAMS, brjoin_broadcast_size,
    pjoin_shuffle_size,
)
from .ops import (
    SelectionSpec, brjoin, merged_operator, merged_selection, pjoin, project,
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
    run whole through :func:`execute_plan`; the adaptive planner calls
    :meth:`run_selections` and :meth:`run_join` one step at a time.
    """

    def __init__(self, dataset: Dataset, ledger: TransferLedger,
                 trace: ExecutionTrace, validate: bool = False):
        self.dataset = dataset
        self.ledger = ledger
        self.trace = trace
        self.validate = validate
        self.leaf_cache: dict[int, Relation] = {}
        self._join_seq = 0

    def run_selections(self, specs: Sequence[SelectionSpec],
                       subset: Dataset | None = None) -> list[Relation]:
        """Selection step: one store scan per pattern, or, given the shared
        subset S of ``specs``, one shared pass over the store for all of them
        with every pattern extracted from S. Fills the leaf cache."""
        if subset is not None:
            rels = merged_selection(specs, self.dataset, self.ledger, subset)
            self._record(TraceEntry(
                kind="merged-selection", operator=merged_operator(specs), inputs=(),
                output_size=sum(r.count for r in rels), output_state=rels[0].partition,
                dataset_size=self.dataset.size, pattern_count=len(specs),
                subset_size=subset.size), rels)
        else:
            rels = []
            for spec in specs:
                rel = triple_selection(spec, self.dataset, self.ledger)
                self._record(TraceEntry(
                    kind="selection", operator=spec.operator, inputs=(),
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
            out = pjoin(node.on, inputs, self.ledger, op)
        else:
            out = brjoin(node.on, inputs, target, self.ledger, op,
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
        self.trace.entries.append(entry)
        if self.validate:
            for rel in outputs:
                check_placement(rel)

    def run_node(self, node: PhysNode) -> Relation:
        """Run a plan subtree bottom-up; leaves come from the leaf cache
        when it holds them."""
        if isinstance(node, SelectionNode):
            rel = self.leaf_cache.get(node.index)
            if rel is None:
                spec = SelectionSpec.compile(node.index, node.pattern)
                [rel] = self.run_selections([spec])
            return rel
        return self.run_join(node, [self.run_node(child) for child in node.children])


def execute_plan(plan: PhysicalPlan, executor: Executor,
                 select: Sequence[Term] | None = None) -> Relation:
    """Run a whole plan on ``executor``. A ``shared_scan`` plan first reads
    all its selections in one shared pass, unless the leaf cache already
    holds measured selections."""
    if plan.shared_scan and not executor.leaf_cache:
        specs = [SelectionSpec.compile(leaf.index, leaf.pattern)
                 for leaf in plan_leaves(plan.root)]
        executor.run_selections(specs, shared_subset(specs, executor.dataset))
    result = executor.run_node(plan.root)
    return result if select is None else executor.run_projection(result, select)
