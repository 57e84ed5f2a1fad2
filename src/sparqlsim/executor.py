"""The one execution path for selections and joins, and the execution trace.

Every strategy, static or adaptive, runs its selections and joins through an
:class:`Executor`. A static plan is walked bottom-up in one call; the
adaptive planner hands the executor one step or same-key run at a time. The
executor appends one entry per operator to its :class:`ExecutionTrace`, the
run's only record: the selections, then one join entry per plan join node in
post-order, so a replay of any run's plan records the run entry for entry.
An entry holds the operator's charges, a ledger that operator alone charged,
and the quantities the cost model prices (input sizes, layouts, store and
shared-subset sizes). The run's ledger is the sum of the charges;
:func:`trace_cost` recomputes it from the priced quantities alone.

One executor is the whole context of a run: the store, the trace and the
validation switch. A plan built from measured selections (to pick broadcast
targets, say) is executed from those same selections, passed in pattern
order, so nothing is scanned or charged twice.
"""

from dataclasses import dataclass, field
from typing import Sequence

from .cluster import Dataset, Relation, TransferLedger, check_placement
from .cost import (
    CostEstimate, CostParams, DEFAULT_PARAMS, brjoin_broadcast_size,
    pjoin_shuffle_size,
)
from .ops import (
    SelectionSpec, brjoin, merged_selection, overlapping_patterns, pjoin, project,
    read_selection, shared_subset_size, triple_selection,
)
from .physical import JoinNode, PhysicalPlan, PhysNode, plan_leaves
from .terms import Term

# Measured selections, indexed by pattern: one relation per pattern, in order.
Selections = Sequence[Relation]


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One executed operator: what it charged, and everything the cost
    model needs to price it. Its identity is its position in the trace."""

    kind: str                       # "selection" | "merged-selection" | "pjoin" | "brjoin"
    inputs: tuple[tuple[int, frozenset[Term]], ...]   # (count, key) pairs
    charges: TransferLedger
    on: frozenset[Term] = frozenset()
    target: int | None = None       # brjoin only
    dataset_size: int = 0           # selections only
    pattern_count: int = 0          # merged selections: patterns sharing the pass
    subset_size: int = 0            # merged selections: shared subset size


@dataclass(slots=True)
class ExecutionTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def ledger(self) -> TransferLedger:
        """The run's ledger: the sum of every entry's charges."""
        total = TransferLedger()
        for entry in self.entries:
            total.tally(**entry.charges.totals())
        return total


def trace_cost(trace: ExecutionTrace, m: int,
               params: CostParams = DEFAULT_PARAMS) -> CostEstimate:
    """Recompute a run's modeled cost from its trace.

    With unit weights this must equal the charges: access = tuples
    scanned, transfer = modeled shuffles plus broadcast copies, entry by
    entry and so for the run's ledger.
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

    Each selection or join step stages its operator on a fresh ledger,
    appends its trace entry with those charges and, with ``validate``,
    checks its placement. Static plans run whole through
    :func:`execute_plan`; the adaptive planner calls
    :meth:`read_selections`, :meth:`charge_selections`, :meth:`run_join`
    and :meth:`run_pjoin_run` one step or run at a time.
    """

    def __init__(self, dataset: Dataset, validate: bool = False):
        self.dataset = dataset
        self.trace = ExecutionTrace()
        self.validate = validate

    def run_selections(self, specs: Sequence[SelectionSpec]) -> list[Relation]:
        """Selection step: one store scan per pattern."""
        size = self.dataset.size
        rels = []
        for spec in specs:
            charges = TransferLedger()
            rels.append(triple_selection(spec, self.dataset, charges))
            self._record("selection", charges, rels[-1:], dataset_size=size)
        return rels

    def read_selections(self, specs: Sequence[SelectionSpec],
                        overlapping: Sequence[int]) -> tuple[list[Relation], int]:
        """Read every pattern of ``specs`` once and count |S| from those
        reads (:func:`~sparqlsim.ops.shared_subset_size`); nothing is
        charged or recorded until :meth:`charge_selections`."""
        rels = [read_selection(spec, self.dataset) for spec in specs]
        return rels, shared_subset_size(specs, rels, self.dataset, overlapping)

    def charge_selections(self, rels: Sequence[Relation],
                          subset_size: int | None) -> None:
        """Record the selections :meth:`read_selections` read as one
        shared store pass, given |S|, or as one store scan per pattern."""
        size = self.dataset.size
        if subset_size is not None:
            charges = TransferLedger()
            merged_selection(rels, self.dataset, charges, subset_size)
            self._record("merged-selection", charges, rels, dataset_size=size,
                         pattern_count=len(rels), subset_size=subset_size)
            return
        for rel in rels:
            charges = TransferLedger()
            charges.tally(scanned=size)
            self._record("selection", charges, [rel], dataset_size=size)

    def run_join(self, node: JoinNode, inputs: Sequence[Relation]) -> Relation:
        """Join step: join ``inputs`` with the key and target of ``node``,
        partitioned without a target; the node's children are not read."""
        charges = TransferLedger()
        if node.target is None:
            kind, out = "pjoin", pjoin(node.on, inputs, charges)
        else:
            kind, out = "brjoin", brjoin(inputs, node.target, charges)
        self._record(kind, charges, [out], inputs, on=node.on, target=node.target)
        return out

    def run_pjoin_run(self, on: frozenset[Term],
                      inputs: Sequence[Relation]) -> tuple[Relation, int]:
        """Join ``inputs`` left-deep on ``on`` in one fold, each after the
        second keyed on ``on``, recording and checking each binary step as
        :meth:`run_join` would. Stops at the first step with no rows; returns
        the relation after the last step run and how many steps ran."""
        charges = TransferLedger()
        trail = [[()] * self.dataset.m for _ in inputs[1:]]
        out = pjoin(on, inputs, charges, trail)
        count, key = inputs[0].count, inputs[0].key
        for i, chunks in enumerate(trail, 1):
            self.trace.entries.append(TraceEntry(
                "pjoin", ((count, key), (inputs[i].count, inputs[i].key)), charges, on=on))
            charges, key, count = TransferLedger(), on, sum(map(len, chunks))
            if self.validate or not count:
                width = len(frozenset().union(*(r.schema for r in inputs[:i + 1])))
                step = Relation(out.columns[:width], tuple(map(tuple, chunks)), on)
                if self.validate:
                    check_placement(step)
                if not count:
                    return step, i
        return out, len(trail)

    def run_projection(self, rel: Relation, select: Sequence[Term]) -> Relation:
        """Final projection onto the select list; not a traced operator."""
        out = project(rel, select)
        if self.validate:
            check_placement(out)
        return out

    def _record(self, kind: str, charges: TransferLedger, outputs: Sequence[Relation],
                inputs: Sequence[Relation] = (), **priced) -> None:
        """Append the entry of an operator that read ``inputs``; ``priced``
        holds the rest of what the cost model reads. ``outputs`` are only
        validated."""
        self.trace.entries.append(TraceEntry(
            kind, tuple((r.count, r.key) for r in inputs), charges, **priced))
        if self.validate:
            for rel in outputs:
                check_placement(rel)

    def run_node(self, node: PhysNode, selections: Selections) -> Relation:
        """Run a plan subtree bottom-up; a leaf is its measured selection
        in ``selections``, looked up by pattern index."""
        if isinstance(node, SelectionSpec):
            return selections[node.index]
        return self.run_join(node, [self.run_node(child, selections)
                                    for child in node.children])


def execute_plan(plan: PhysicalPlan, executor: Executor,
                 select: Sequence[Term] | None = None,
                 selections: Selections | None = None) -> Relation:
    """Run a whole plan on ``executor`` from its measured ``selections``,
    one per pattern, in order. Without them, the plan's leaves, which are
    every pattern, run first, in one shared pass when the plan has
    ``shared_scan``."""
    if selections is None:
        leaves = plan_leaves(plan.root)
        if plan.shared_scan:
            selections, subset_size = executor.read_selections(
                leaves, overlapping_patterns(leaves))
            executor.charge_selections(selections, subset_size)
        else:
            selections = executor.run_selections(leaves)
    result = executor.run_node(plan.root, selections)
    return result if select is None else executor.run_projection(result, select)
