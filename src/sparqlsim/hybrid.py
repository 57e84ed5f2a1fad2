"""Adaptive strategy: plan each join step from measured sizes, then run it.

The strategy evaluates all selections first, so every planning decision
works with exact input sizes rather than estimates. One union pass over the
store finds S, the triples that match any pattern; the selections then share
that pass (charged ``size(D) + n*size(S)``) exactly when the cost model's
rule says it reads fewer tuples than n independent scans (``n*size(D)``),
and otherwise scan the store once each. Joins are then chosen greedily, two
inputs at a time:

* the opening pair is the connected pair with the cheapest join step,
  breaking ties toward the partitioned algorithm, then the smaller combined
  size, then textual order;
* each following step extends the running intermediate with the connected
  pattern whose cheapest join step is lowest, breaking ties by selection
  size and then textual order;
* for one step, the candidate algorithms are a partitioned join on the
  shared variables (pay for every input not already co-located) and a
  broadcast join in either direction (pay (m-1) copies of the side that
  moves, nothing if it is already replicated). Equal-cost steps prefer
  partitioned, then broadcasting the smaller side, then broadcasting the
  running intermediate.

Each chosen step executes immediately, so its real output size (not an
estimate) drives the next decision. Step costs compare modeled transfer
tuple counts directly; the communication weight scales all candidates
equally and cannot change the ranking.

Consecutive partitioned joins on the same key collapse into one n-ary node
in the reported plan. The collapsed form moves exactly the same tuples: the
running input is already keyed on the join variables, so only the newcomer
is repartitioned, stepwise or not.

The planner only decides; every selection and join step runs through one
:class:`~sparqlsim.executor.Executor`, the same code that runs static plans.
"""

from dataclasses import dataclass
from typing import Sequence

from .cluster import Cluster, Dataset, Relation, TransferLedger
from .cost import brjoin_broadcast_size, merged_scan_beneficial, pjoin_shuffle_size
from .executor import ExecutionTrace, Executor
from .logical import joinable_components
from .ops import compile_specs, shared_subset
# Not called here: kept importable because perfbench/tracer.py wraps these names.
from .ops import brjoin, pjoin, project  # noqa: F401
from .physical import BrjoinNode, PhysNode, PhysicalPlan, PjoinNode, SelectionNode
from .terms import Term, TriplePattern


@dataclass(slots=True)
class _Slot:
    """A joinable intermediate: its data, its plan subtree so far, and the
    smallest pattern index it covers (for textual tie-breaks)."""

    rel: Relation
    node: PhysNode
    first_index: int

    @property
    def size(self) -> int:
        return self.rel.count

    @property
    def schema(self) -> frozenset[Term]:
        return self.rel.schema


@dataclass(frozen=True, slots=True)
class _Option:
    """One candidate algorithm for joining a fixed (first, second) pair."""

    kind: str                  # "pjoin" | "brjoin"
    cost: int                  # modeled transfer tuples
    rank: int                  # 0 pjoin, 1 broadcast smaller side, 2 larger
    seq: int                   # enumeration order, last tie-break
    on: frozenset[Term]
    target: int | None = None  # brjoin: index into (first, second)
    cross: bool = False

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.cost, self.rank, self.seq)


@dataclass(frozen=True, slots=True)
class HybridRun:
    plan: PhysicalPlan
    relation: Relation
    # Number of (pair, algorithm) costings performed; stays quadratic in the
    # pattern count because each step only prices the remaining candidates.
    evaluations: int


def _step_options(first: _Slot, second: _Slot, m: int) -> list[_Option]:
    """All algorithm candidates for joining this ordered pair."""
    shared = frozenset(first.schema & second.schema)
    inputs = [(first.size, first.rel.partition), (second.size, second.rel.partition)]
    opts: list[_Option] = []
    if shared:
        opts.append(_Option("pjoin", pjoin_shuffle_size(inputs, shared), 0, 0, shared))
    for moving, target in ((first, 1), (second, 0)):
        other = second if target == 1 else first
        rank = 1 if moving.size <= other.size else 2
        opts.append(_Option("brjoin", brjoin_broadcast_size(inputs, target, m), rank,
                            len(opts), shared, target=target, cross=not shared))
    return opts


def _step_node(first: _Slot, second: _Slot, opt: _Option) -> PjoinNode | BrjoinNode:
    """The join node that executes ``opt`` over (first, second)."""
    children = (first.node, second.node)
    if opt.kind == "pjoin":
        return PjoinNode(opt.on, children)
    return BrjoinNode(opt.on, children, opt.target, cross=opt.cross)


class _HybridPlanner:
    """The adaptive strategy's decisions; ``executor`` runs every step."""

    def __init__(self, patterns: Sequence[TriplePattern], executor: Executor, *,
                 allow_cross: bool = False):
        self.components = joinable_components(patterns, allow_cross)
        self.patterns = list(patterns)
        self.executor = executor
        self.evaluations = 0

    def run(self) -> tuple[PhysNode, Relation, bool]:
        slots, shared_scan, _ = self.select()
        results = [self._greedy_component([slots[i] for i in members])
                   for members in self.components]
        final = results[0]
        for nxt in results[1:]:
            final = self._step(final, nxt, self._best_option(final, nxt))
        return final.node, final.rel, shared_scan

    def select(self) -> tuple[list[_Slot], bool, int]:
        """Measure every selection. Build the shared subset S once and share
        its store pass exactly when the merged-scan rule holds; return the
        slots, whether the pass was shared, and |S|."""
        specs = compile_specs(self.patterns)
        dataset = self.executor.dataset
        subset = shared_subset(specs, dataset, self.executor.cluster)
        merged = merged_scan_beneficial(dataset.size, len(specs), subset.size)
        rels = self.executor.run_selections(specs, subset if merged else None)
        slots = [_Slot(rel, SelectionNode(spec.index, spec.pattern), spec.index)
                 for spec, rel in zip(specs, rels)]
        return slots, merged, subset.size

    def _best_option(self, first: _Slot, second: _Slot) -> _Option:
        opts = _step_options(first, second, self.executor.cluster.m)
        self.evaluations += len(opts)
        return min(opts, key=lambda o: o.sort_key)

    def opening(self, slots: list[_Slot]) -> tuple[_Slot, _Slot, _Option]:
        """The cheapest opening pair over all connected pairs, in step order."""
        best_pair: tuple[tuple, _Slot, _Slot, _Option] | None = None
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                a, b = slots[i], slots[j]
                if not (a.schema & b.schema):
                    continue
                first, second = sorted((a, b), key=lambda s: (s.size, s.first_index))
                opt = self._best_option(first, second)
                key = (opt.cost, opt.rank, a.size + b.size,
                       (a.first_index, b.first_index))
                if best_pair is None or key < best_pair[0]:
                    best_pair = (key, first, second, opt)
        if best_pair is None:
            raise AssertionError("connected component has no joinable pair")
        return best_pair[1:]

    def _greedy_component(self, slots: list[_Slot]) -> _Slot:
        if len(slots) == 1:
            return slots[0]

        first, second, opt = self.opening(slots)
        acc = self._step(first, second, opt)
        remaining = [s for s in slots if s is not first and s is not second]

        while remaining:
            best_ext: tuple[tuple, int, _Option] | None = None
            for k, slot in enumerate(remaining):
                if not (acc.schema & slot.schema):
                    continue
                opt = self._best_option(acc, slot)
                key = (opt.cost, slot.size, slot.first_index)
                if best_ext is None or key < best_ext[0]:
                    best_ext = (key, k, opt)
            if best_ext is None:
                raise AssertionError("connected component stalled mid-join")
            _, k, opt = best_ext
            acc = self._step(acc, remaining[k], opt)
            del remaining[k]
        return acc

    def _step(self, first: _Slot, second: _Slot, opt: _Option) -> _Slot:
        node: PhysNode = _step_node(first, second, opt)
        rel = self.executor.run_join(node, [first.rel, second.rel])
        if (isinstance(node, PjoinNode) and isinstance(first.node, PjoinNode)
                and first.node.on == node.on):
            node = PjoinNode(node.on, first.node.children + (second.node,))
        return _Slot(rel, node, min(first.first_index, second.first_index))


@dataclass(frozen=True, slots=True)
class HybridOpening:
    """What the adaptive strategy knows before its first join: the measured
    selections (by pattern index), whether they shared one store pass, the
    size of the shared subset S, and for each connected component with a join, the
    opening step and its modeled transfer tuples."""

    selections: list[Relation]
    shared_scan: bool
    subset_size: int
    steps: list[tuple[PjoinNode | BrjoinNode, int]]


def hybrid_opening(patterns: Sequence[TriplePattern], dataset: Dataset,
                   cluster: Cluster, *, allow_cross: bool = False) -> HybridOpening:
    """Measure the selections as the adaptive strategy does and pick each
    component's opening step, without joining anything."""
    planner = _HybridPlanner(patterns, Executor(dataset, cluster, TransferLedger()),
                             allow_cross=allow_cross)
    slots, shared_scan, subset_size = planner.select()
    steps = []
    for members in planner.components:
        if len(members) > 1:
            first, second, opt = planner.opening([slots[i] for i in members])
            steps.append((_step_node(first, second, opt), opt.cost))
    return HybridOpening([s.rel for s in slots], shared_scan, subset_size, steps)


def plan_and_execute_hybrid(patterns: Sequence[TriplePattern], dataset: Dataset,
                            cluster: Cluster, ledger: TransferLedger, *,
                            allow_cross: bool = False,
                            select: Sequence[Term] | None = None,
                            trace: ExecutionTrace | None = None,
                            validate: bool = False) -> HybridRun:
    """Run the adaptive strategy end to end.

    Returns the executed plan (as a replayable :class:`PhysicalPlan`), the
    result relation, and the number of candidate costings performed.
    """
    executor = Executor(dataset, cluster, ledger, trace, validate)
    planner = _HybridPlanner(patterns, executor, allow_cross=allow_cross)
    root, rel, shared_scan = planner.run()
    if select is not None:
        rel = executor.run_projection(rel, select)
    plan = PhysicalPlan(root, shared_scan)
    return HybridRun(plan=plan, relation=rel, evaluations=planner.evaluations)
