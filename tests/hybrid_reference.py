"""A per-pair reference for the adaptive planner: its greedy search with
every candidate priced by its own call.

Each connected pair goes through :func:`reference_price`, which builds a
:class:`Choice` from the cost model's charge helpers, and is ranked by a
full key tuple that ends in the pattern indices, so the textual tie-break
does not depend on the order the leaves are listed in. |S| is counted by
brute force, one stored triple at a time. Every selection and join runs on
the given executor, as the planner's do. ``tests/test_hybrid_reference.py``
requires :mod:`sparqlsim.hybrid`'s plans, ``evaluations`` and trace entries
to equal this planner's."""

from typing import NamedTuple

from sparqlsim.cost import broadcast_charge, merged_scan_beneficial, shuffle_charge
from sparqlsim.logical import check_cross
from sparqlsim.ops import read_selection
from sparqlsim.physical import JoinNode, PhysicalPlan

from kernel_reference import reference_subset_size


class Choice(NamedTuple):
    cost: int            # modeled transfer tuples
    rank: int            # 0 pjoin, 1 broadcast the side that is no larger
    target: int | None   # brjoin: the index, into (first, second), that stays
    on: frozenset        # the join key


def reference_price(first, second, shared: frozenset, m: int) -> Choice:
    """The cheapest way to join the ordered pair (first, second): the
    partitioned join when the pair shares variables and it moves no more
    than broadcasting the side that is no larger (``first`` on equal
    sizes), else that broadcast."""
    a, b = first.count, second.count
    if a <= b:
        copies, target = broadcast_charge(a, m), 1
    else:
        copies, target = broadcast_charge(b, m), 0
    if shared:
        moved = shuffle_charge(a, first.key, shared) + shuffle_charge(b, second.key, shared)
        if moved <= copies:
            return Choice(moved, 0, None, shared)
    return Choice(copies, 1, target, shared)


class ReferencePlanner:
    """The adaptive strategy, one call per candidate pair."""

    def __init__(self, compiled, executor, allow_cross: bool = False):
        check_cross(compiled.components, allow_cross)
        self.compiled = compiled
        self.executor = executor
        self.m = executor.dataset.m
        self.evaluations = 0

    def run(self):
        """The executed plan and the unprojected result relation."""
        leaves, shared_scan = self.select()
        results = (self.greedy_component([leaves[i] for i in members])
                   for members in self.compiled.components)
        final = next(results)
        for nxt in results:
            shared = final[0].schema & nxt[0].schema
            final = self.step(final, nxt, self.choose(final[0], nxt[0], shared))
        rel, node = final
        return PhysicalPlan(node, shared_scan), rel

    def select(self):
        specs = self.compiled.specs
        dataset = self.executor.dataset
        rels = [read_selection(spec, dataset) for spec in specs]
        subset_size = reference_subset_size(specs, dataset)
        merged = merged_scan_beneficial(dataset.size, len(specs), subset_size)
        self.executor.charge_selections(rels, subset_size if merged else None)
        return list(zip(rels, specs)), merged

    def choose(self, first, second, shared) -> Choice:
        self.evaluations += 3 if shared else 2
        return reference_price(first, second, shared, self.m)

    def opening(self, leaves):
        best = None
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                shared = a[0].schema & b[0].schema
                if not shared:
                    continue
                first, second = (a, b) if a[0].count <= b[0].count else (b, a)
                choice = self.choose(first[0], second[0], shared)
                key = (choice.cost, choice.rank, a[0].count + b[0].count,
                       a[1].index, b[1].index)
                if best is None or key < best[0]:
                    best = (key, first, second, choice)
        return best[1:]

    def greedy_component(self, leaves):
        if len(leaves) == 1:
            return leaves[0]
        first, second, choice = self.opening(leaves)
        acc = self.step(first, second, choice)
        remaining = [s for s in leaves if s is not first and s is not second]
        while remaining:
            best = None
            for k, (rel, leaf) in enumerate(remaining):
                shared = acc[0].schema & rel.schema
                if not shared:
                    continue
                choice = self.choose(acc[0], rel, shared)
                key = (choice.cost, rel.count, leaf.index)
                if best is None or key < best[0]:
                    best = (key, k, choice)
            _, k, choice = best
            acc = self.step(acc, remaining.pop(k), choice)
        return acc

    def step(self, first, second, choice: Choice):
        node = JoinNode(choice.on, (first[1], second[1]), choice.target)
        return self.executor.run_join(node, [first[0], second[0]]), node
