"""Adaptive strategy: plan each join step from measured sizes, then run it.

The strategy evaluates all selections first, so every planning decision
works with exact input sizes rather than estimates. Each pattern is read
once, and S, the triples that match any pattern, is counted from those
reads: a pattern disjoint from every other adds its row count, and only
patterns that can share a triple take a union pass over their groups. The
selections are then charged one shared store pass (``size(D) + n*size(S)``)
exactly when the cost model's rule says it reads fewer tuples than n
independent scans (``n*size(D)``), and otherwise one store scan each.
Joins are then chosen greedily, two inputs at a time:

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
estimate) drives the next decision. The exception is a run of same-key
partitioned joins that move nothing: while the intermediate is non-empty
their picks read only schemas, keys and selection counts, so such a run is
decided up front and folded once per node (:meth:`HybridPlanner._step`).
The search loops price each pair inline, in a few integer operations on the
two inputs' stored row counts and keys, and only the cheapest pair becomes a
decision (:func:`_price_pair`). Step costs compare modeled transfer tuple
counts directly; the communication weight scales all candidates equally and
cannot change the ranking.

The reported plan holds one binary join per decision, a run's steps
included, and the trace one entry per join, in the plan's post-order, since
each component joins the result as soon as it is built
(:func:`~sparqlsim.physical.render_plan` prints a run of same-key
partitioned joins as one n-ary ``Pjoin``).

The planner only decides; every selection and join step runs through one
:class:`~sparqlsim.executor.Executor`, the same code that runs static plans.
It reads the query's compiled facts (:class:`~sparqlsim.logical.CompiledQuery`),
the selection specs, the connected components and the patterns that can
share a triple, which the query derives once for all its runs; each run
checks whether a cross product may run, counts S and decides every step.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cluster import Relation
from .cost import broadcast_charge, merged_scan_beneficial, shuffle_charge
from .executor import Executor
from .logical import CompiledQuery, check_cross
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
    ``explain`` shows; :meth:`run` plans and executes the whole query.
    ``evaluations`` counts the (pair, algorithm) pricings performed: three
    for a pair that shares variables, two for a cross product's pair."""

    def __init__(self, compiled: CompiledQuery, executor: Executor, *,
                 allow_cross: bool = False):
        check_cross(compiled.components, allow_cross)
        self.compiled = compiled
        self.executor = executor
        self.m = executor.dataset.m
        self.evaluations = 0

    def run(self) -> tuple[PhysNode, Relation, bool]:
        leaves, shared_scan, _ = self.select()
        # Lazily, so each component joins the result as soon as it is built.
        results = (self._greedy_component([leaves[i] for i in members])
                   for members in self.compiled.components)
        final = next(results)
        for nxt in results:
            shared = final[0].schema & nxt[0].schema
            self.evaluations += 3 if shared else 2
            final = self._step(final, nxt, _price_pair(final[0], nxt[0], shared, self.m))
        rel, node = final
        return node, rel, shared_scan

    def select(self) -> tuple[list[Joinable], bool, int]:
        """Measure every selection, reading each pattern once, and count
        |S|, the triples matching any pattern, from those reads; charge one
        shared store pass exactly when the merged-scan rule holds. Return
        the leaves, whether the pass was shared, and |S|."""
        specs = self.compiled.specs
        executor = self.executor
        rels, subset_size = executor.read_selections(specs, self.compiled.overlapping)
        merged = merged_scan_beneficial(executor.dataset.size, len(specs), subset_size)
        executor.charge_selections(rels, subset_size if merged else None)
        return list(zip(rels, specs)), merged, subset_size

    def opening(self, leaves: list[Joinable]) -> tuple[Joinable, Joinable, _Choice]:
        """The cheapest opening pair over all connected pairs of ``leaves``,
        which are in pattern order, so the first of equally ranked pairs
        wins the textual tie-break. Each pair is priced inline as
        :func:`_price_pair` prices it smaller side first, so a broadcast
        moves the smaller side."""
        copies_per_row = self.m - 1
        priced = 0
        best_rank: tuple[int, int, int] | None = None
        for i, a in enumerate(leaves):
            a_schema, a_count, a_key = a[0].schema, a[0].count, a[0].key
            for b in leaves[i + 1:]:
                b_rel = b[0]
                shared = a_schema & b_rel.schema
                if not shared:
                    continue
                priced += 1
                b_count = b_rel.count
                moved = ((0 if a_key == shared else a_count)
                         + (0 if b_rel.key == shared else b_count))
                copies = copies_per_row * (a_count if a_count <= b_count else b_count)
                rank = ((moved, 0, a_count + b_count) if moved <= copies
                        else (copies, 1, a_count + b_count))
                if best_rank is None or rank < best_rank:
                    best_rank, best_pair, best_shared = rank, (a, b), shared
        self.evaluations += 3 * priced
        if best_rank is None:
            raise AssertionError("connected component has no joinable pair")
        a, b = best_pair
        first, second = (a, b) if a[0].count <= b[0].count else (b, a)
        return first, second, _price_pair(first[0], second[0], best_shared, self.m)

    def _greedy_component(self, leaves: list[Joinable]) -> Joinable:
        if len(leaves) == 1:
            return leaves[0]

        first, second, choice = self.opening(leaves)
        remaining = [s for s in leaves if s is not first and s is not second]
        acc = self._step(first, second, choice, remaining)
        while remaining:
            acc_rel = acc[0]
            k, shared = self._extension(acc_rel.schema, acc_rel.count, acc_rel.key, remaining)
            nxt = remaining.pop(k)
            acc = self._step(acc, nxt, _price_pair(acc_rel, nxt[0], shared, self.m), remaining)
        return acc

    def _extension(self, acc_schema: frozenset[Term], acc_count: int, acc_key: frozenset[Term],
                   remaining: list[Joinable]) -> tuple[int, frozenset[Term]]:
        """The position in ``remaining`` of the cheapest leaf to join next to
        an intermediate of that schema, count and key, and their shared variables."""
        copies_per_row = self.m - 1
        priced = 0
        best_rank: tuple[int, int] | None = None
        # remaining is in pattern order: the first of equal ranks wins.
        for k, (rel, _) in enumerate(remaining):
            shared = acc_schema & rel.schema
            if not shared:
                continue
            priced += 1
            count = rel.count
            moved = ((0 if acc_key == shared else acc_count)
                     + (0 if rel.key == shared else count))
            copies = copies_per_row * (acc_count if acc_count <= count else count)
            rank = (moved if moved <= copies else copies, count)
            if best_rank is None or rank < best_rank:
                best_rank, best_k, best_shared = rank, k, shared
        self.evaluations += 3 * priced
        if best_rank is None:
            raise AssertionError("connected component stalled mid-join")
        return best_k, best_shared

    def _step(self, first: Joinable, second: Joinable, choice: _Choice,
              remaining: list[Joinable] | None = None) -> Joinable:
        """Run ``choice`` over (first, second). A partitioned step on K opens
        a run: while :meth:`_extension`, for any positive intermediate
        count, picks a leaf of ``remaining`` keyed on K that shares exactly
        K, the leaf joins the run. Past the run's first empty step, where a
        free broadcast can tie, its leaves and their pricings go back."""
        if choice.target is not None:
            node = JoinNode(choice.on, (first[1], second[1]), choice.target)
            return self.executor.run_join(node, [first[0], second[0]]), node
        on = choice.on
        run = [first, second]
        schema = first[0].schema | second[0].schema
        marks = []  # evaluations before pricing run[i + 2]
        while remaining:
            marks.append(self.evaluations)
            k, shared = self._extension(schema, 1, on, remaining)
            if shared != on or remaining[k][0].key != on:
                break
            run.append(remaining.pop(k))
            schema |= run[-1][0].schema
        rel, steps = self.executor.run_pjoin_run(on, [r for r, _ in run])
        if steps <= len(marks):  # undo the pricings past the last step run
            self.evaluations = marks[steps - 1]
            remaining += run[steps + 1:]
            remaining.sort(key=lambda leaf: leaf[1].index)
        node = first[1]
        for _, leaf in run[1:steps + 1]:
            node = JoinNode(on, (node, leaf))
        return rel, node


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
