"""Adaptive strategy: plan each join step from measured sizes, then run it.

The strategy evaluates all selections first, so every planning decision
works with exact input sizes rather than estimates. One union pass over the
store counts S, the triples that match any pattern; the selections then share
one store pass (charged ``size(D) + n*size(S)``) exactly when the cost model's
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
  moves). Equal-cost steps prefer partitioned, then broadcasting the
  smaller side, then broadcasting the running intermediate.

Each chosen step executes immediately, so its real output size (not an
estimate) drives the next decision. A pair is priced in a few integer
operations on the two inputs' stored row counts and keys, and only the
cheapest candidate becomes a decision. Step costs compare modeled transfer
tuple counts directly; the communication weight scales all candidates
equally and cannot change the ranking.

The reported plan is the tree of binary joins that ran, one node per step
(:func:`~sparqlsim.physical.render_plan` prints a run of same-key
partitioned joins as one n-ary ``Pjoin``). Each component joins the result
as soon as it is built, so the trace lists the joins in the plan's
post-order.

The planner only decides; every selection and join step runs through one
:class:`~sparqlsim.executor.Executor`, the same code that runs static plans.
It reads the query's compiled facts (:class:`~sparqlsim.logical.CompiledQuery`),
the selection specs and connected components, which the query derives once
for all its runs; each run checks whether a cross product may run, counts S
and decides every step.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cluster import Relation
from .cost import broadcast_charge, merged_scan_beneficial, shuffle_charge
from .executor import Executor
from .logical import CompiledQuery, check_cross
from .ops import shared_subset_size
# Not called here: kept importable because perfbench/tracer.py wraps these names.
from .ops import brjoin, pjoin, project  # noqa: F401
from .physical import JoinNode, PhysNode, PhysicalPlan
from .terms import Term


# A joinable intermediate: its data and its plan subtree so far. Only
# leaves are ranked against each other, and a leaf's subtree is its
# selection, whose pattern index breaks textual ties.
Joinable = tuple[Relation, PhysNode]


class _Choice(NamedTuple):
    """The algorithm chosen for joining an ordered (first, second) pair."""

    cost: int            # modeled transfer tuples
    rank: int            # 0 pjoin, 1 broadcast the side that is no larger
    target: int | None   # brjoin: the index, into (first, second), that stays
    on: frozenset[Term]  # the pair's shared variables, the join key


@dataclass(frozen=True, slots=True)
class HybridRun:
    plan: PhysicalPlan
    relation: Relation
    # Number of (pair, algorithm) costings performed; stays quadratic in the
    # pattern count because each step only prices the remaining candidates.
    evaluations: int


def _price_pair(first: Relation, second: Relation, shared: frozenset[Term],
                m: int) -> _Choice:
    """The cheapest way to join the ordered pair (first, second) on an
    m-node cluster, in constant integer work: a partitioned join on
    ``shared`` (rank 0), offered only when ``shared`` is nonempty, when it
    moves no more tuples than the best broadcast, and otherwise that
    broadcast (rank 1). The best broadcast moves the side that is no
    larger, ``first`` on equal sizes: moving the other side never copies
    fewer tuples, so it is never returned.
    """
    a, b = first.count, second.count
    if a <= b:
        copies, target = broadcast_charge(a, m), 1
    else:
        copies, target = broadcast_charge(b, m), 0
    if shared:
        moved = shuffle_charge(a, first.key, shared) + shuffle_charge(b, second.key, shared)
        if moved <= copies:
            return _Choice(moved, 0, None, shared)
    return _Choice(copies, 1, target, shared)


class HybridPlanner:
    """The adaptive strategy's decisions; ``executor`` runs every step.

    :meth:`select` measures the selections and :meth:`opening` picks a
    component's first join without running it, which is all that
    ``explain`` shows; :meth:`run` plans and executes the whole query."""

    def __init__(self, compiled: CompiledQuery, executor: Executor, *,
                 allow_cross: bool = False):
        check_cross(compiled.components, allow_cross)
        self.components = compiled.components
        self.specs = compiled.specs
        self.executor = executor
        self.m = executor.dataset.m
        self.evaluations = 0

    def run(self) -> tuple[PhysNode, Relation, bool]:
        leaves, shared_scan, _ = self.select()
        # Lazily, so each component joins the result as soon as it is built.
        results = (self._greedy_component([leaves[i] for i in members])
                   for members in self.components)
        final = next(results)
        for nxt in results:
            shared = final[0].schema & nxt[0].schema
            final = self._step(final, nxt, self._choose(final[0], nxt[0], shared))
        rel, node = final
        return node, rel, shared_scan

    def select(self) -> tuple[list[Joinable], bool, int]:
        """Measure every selection. Count |S|, the triples matching any
        pattern, once, and share one store pass exactly when the merged-scan
        rule holds; return the leaves, whether the pass was shared, and |S|."""
        specs = self.specs
        dataset = self.executor.dataset
        subset_size = shared_subset_size(specs, dataset)
        merged = merged_scan_beneficial(dataset.size, len(specs), subset_size)
        rels = self.executor.run_selections(specs, subset_size if merged else None)
        return list(zip(rels, specs)), merged, subset_size

    def _choose(self, first: Relation, second: Relation,
                shared: frozenset[Term]) -> _Choice:
        """Price the pair: three candidates when it shares variables, else
        the two broadcasts."""
        self.evaluations += 3 if shared else 2
        return _price_pair(first, second, shared, self.m)

    def opening(self, leaves: list[Joinable]) -> tuple[Joinable, Joinable, _Choice]:
        """The cheapest opening pair over all connected pairs of ``leaves``,
        which are in pattern order; each pair is priced smaller side first."""
        best_pair: tuple[tuple, Joinable, Joinable, _Choice] | None = None
        for i, a in enumerate(leaves):
            a_rel, a_leaf = a
            for b in leaves[i + 1:]:
                b_rel, b_leaf = b
                shared = a_rel.schema & b_rel.schema
                if not shared:
                    continue
                # a precedes b, so this is the order of (count, pattern index)
                first, second = (a, b) if a_rel.count <= b_rel.count else (b, a)
                choice = self._choose(first[0], second[0], shared)
                key = (choice.cost, choice.rank, a_rel.count + b_rel.count,
                       a_leaf.index, b_leaf.index)
                if best_pair is None or key < best_pair[0]:
                    best_pair = (key, first, second, choice)
        if best_pair is None:
            raise AssertionError("connected component has no joinable pair")
        return best_pair[1:]

    def _greedy_component(self, leaves: list[Joinable]) -> Joinable:
        if len(leaves) == 1:
            return leaves[0]

        first, second, choice = self.opening(leaves)
        acc = self._step(first, second, choice)
        remaining = [s for s in leaves if s is not first and s is not second]

        while remaining:
            acc_rel = acc[0]
            best_ext: tuple[tuple, int, _Choice] | None = None
            for k, (rel, leaf) in enumerate(remaining):
                shared = acc_rel.schema & rel.schema
                if not shared:
                    continue
                choice = self._choose(acc_rel, rel, shared)
                key = (choice.cost, rel.count, leaf.index)
                if best_ext is None or key < best_ext[0]:
                    best_ext = (key, k, choice)
            if best_ext is None:
                raise AssertionError("connected component stalled mid-join")
            _, k, choice = best_ext
            acc = self._step(acc, remaining[k], choice)
            del remaining[k]
        return acc

    @staticmethod
    def step_node(first: Joinable, second: Joinable, choice: _Choice) -> JoinNode:
        """The join node that executes ``choice`` over (first, second)."""
        return JoinNode(choice.on, (first[1], second[1]), choice.target)

    def _step(self, first: Joinable, second: Joinable, choice: _Choice) -> Joinable:
        node = self.step_node(first, second, choice)
        return self.executor.run_join(node, [first[0], second[0]]), node


def plan_and_execute_hybrid(compiled: CompiledQuery, executor: Executor, *,
                            allow_cross: bool = False,
                            select: Sequence[Term] | None = None) -> HybridRun:
    """Run the adaptive strategy for a compiled query end to end on
    ``executor``.

    Returns the executed plan (as a replayable :class:`PhysicalPlan`), the
    result relation, and the number of candidate costings performed.
    """
    planner = HybridPlanner(compiled, executor, allow_cross=allow_cross)
    root, rel, shared_scan = planner.run()
    if select is not None:
        rel = executor.run_projection(rel, select)
    plan = PhysicalPlan(root, shared_scan)
    return HybridRun(plan=plan, relation=rel, evaluations=planner.evaluations)
