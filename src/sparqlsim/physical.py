"""Physical plans: operator trees the executor can run directly.

A physical plan fixes, for every join, the n-ary grouping, the input order
and the algorithm: one :class:`JoinNode` is partitioned without a target
and a broadcast join around the target input that stays in place. Its
leaves are the compiled selections (:class:`~sparqlsim.ops.SelectionSpec`).
The grouping tree that :func:`~sparqlsim.logical.build_logical` compiles is
itself a tree of these nodes; the three static strategies are built here
from it and the measured selection sizes, and the adaptive strategy in
:mod:`sparqlsim.hybrid` builds its plan, the binary joins it ran, during
execution.

The helpers here recurse at module level or walk an explicit stack: a
closure that calls itself is a reference cycle, and a run, which pauses the
cyclic collector (:func:`~sparqlsim.engine.run_strategy`), allocates none.
"""

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Union

from .ops import SelectionSpec
from .terms import Term


@dataclass(frozen=True, slots=True)
class JoinNode:
    """An n-ary join on ``on``. Without a ``target`` it is partitioned:
    co-locate every input by hash on ``on``, then join locally. With one it
    is a broadcast join: ship every input except the target to all nodes,
    then join against the target's local chunks. A broadcast join with an
    empty ``on`` is the plan's requested cross product."""

    on: frozenset[Term]
    children: tuple["PhysNode", ...]
    target: int | None = None

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("a join needs at least two children")
        if self.target is None and not self.on:
            raise ValueError("a partitioned join needs join variables")
        if self.target is not None and not 0 <= self.target < len(self.children):
            raise ValueError(f"target {self.target} out of range")

    @property
    def vars(self) -> frozenset[Term]:
        """Every variable of the join's children."""
        return frozenset().union(*(child.vars for child in self.children))


PhysNode = Union[SelectionSpec, JoinNode]


@dataclass(frozen=True, slots=True)
class PhysicalPlan:
    """A complete executable plan. With ``shared_scan`` the selections of
    all leaves share one store pass instead of scanning once each."""

    root: PhysNode
    shared_scan: bool = False


def plan_leaves(node: PhysNode) -> list[SelectionSpec]:
    """All selection leaves, in pattern-index order."""
    out: list[SelectionSpec] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, SelectionSpec):
            out.append(n)
        else:
            stack += n.children
    out.sort(key=attrgetter("index"))
    return out


def join_key(node: JoinNode) -> str:
    """A join's key as plans show it: ``x,y``, or ``cross``."""
    return ",".join(v.lexical for v in sorted(node.on)) or "cross"


def render_plan(node: PhysNode) -> str:
    """Compact one-line plan form, e.g. ``Pjoin_x(Brjoin_y(t4,t2),t1)``.

    A partitioned child on its parent's key prints inline, so a run of
    same-key partitioned joins shows as one n-ary ``Pjoin``: the adaptive
    strategy joins a star two inputs at a time, ``Pjoin_x(Pjoin_x(t1,t2),t3)``,
    and it prints as ``Pjoin_x(t1,t2,t3)``, the static partitioned plan. The
    two forms move exactly the same tuples: the running input is already
    keyed on the join variables, so only the newcomer is repartitioned,
    stepwise or not.
    """
    if isinstance(node, SelectionSpec):
        return node.label
    name = "Pjoin" if node.target is None else "Brjoin"
    return f"{name}_{join_key(node)}({','.join(_rendered_inputs(node))})"


def _rendered_inputs(node: JoinNode) -> Iterator[str]:
    for child in node.children:
        if (isinstance(child, JoinNode) and node.target is None
                and child.target is None and child.on == node.on):
            yield from _rendered_inputs(child)
        else:
            yield render_plan(child)


def plan_pjoin_strategy(tree: PhysNode) -> PhysicalPlan:
    """Every join runs partitioned on its variable set, which is the
    grouping tree as built; a cross product (only present when explicitly
    allowed) broadcasts, since there is no key to partition on."""
    return PhysicalPlan(tree)


def plan_mono_brjoin(tree: PhysNode, leaf_sizes: dict[int, int]) -> PhysicalPlan:
    """One broadcast join over all selections: every input except the largest
    is broadcast to every node. The target is the largest selection (ties to
    the smallest pattern index). Input order beyond that affects neither
    what is transferred nor the local join, which folds from the target
    through connected inputs (:func:`sparqlsim.ops.fold_order`), so
    non-targets keep textual order."""
    leaves = plan_leaves(tree)
    if len(leaves) == 1:
        return PhysicalPlan(leaves[0])
    target = max(leaves, key=lambda leaf: (leaf_sizes[leaf.index], -leaf.index))
    ordered = [leaf for leaf in leaves if leaf is not target] + [target]
    on = _all_join_vars(tree)
    return PhysicalPlan(JoinNode(on, tuple(ordered), len(ordered) - 1))


def _all_join_vars(node: PhysNode) -> frozenset[Term]:
    if isinstance(node, SelectionSpec):
        return frozenset()
    out: set[Term] = set(node.on)
    for child in node.children:
        out |= _all_join_vars(child)
    return frozenset(out)


def plan_multi_brjoin(tree: PhysNode, leaf_sizes: dict[int, int]) -> PhysicalPlan:
    """Broadcast joins following the grouping tree, folded left-deep two
    at a time. Within a group, already-joined subtrees come first (in
    tree order), then the leaf selections from small to large, so the
    cheap sides get broadcast early. Each pair keeps the larger side as the
    target; intermediate sizes are estimated as the smaller input size,
    which is exact for key-foreign-key steps and conservative enough to keep
    broadcasting the joined side."""

    root, _ = _fold_broadcasts(tree, leaf_sizes)
    return PhysicalPlan(root)


def _fold_broadcasts(node: PhysNode, leaf_sizes: dict[int, int]) -> tuple[PhysNode, int]:
    """:func:`plan_multi_brjoin` of the subtree ``node``, and its
    estimated size."""
    if isinstance(node, SelectionSpec):
        return node, leaf_sizes[node.index]
    subtrees: list[tuple[PhysNode, int]] = []
    leaves: list[tuple[SelectionSpec, int]] = []
    for child in node.children:
        if isinstance(child, SelectionSpec):
            leaves.append((child, leaf_sizes[child.index]))
        else:
            subtrees.append(_fold_broadcasts(child, leaf_sizes))
    leaves.sort(key=lambda pair: (pair[1], pair[0].index))
    queue: list[tuple[PhysNode, int]] = subtrees + leaves
    acc, acc_size = queue[0]
    for nxt, nxt_size in queue[1:]:
        target = 1 if acc_size <= nxt_size else 0
        acc = JoinNode(node.on, (acc, nxt), target)
        acc_size = min(acc_size, nxt_size)
    return acc, acc_size
