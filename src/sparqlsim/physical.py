"""Physical plans: operator trees the executor can run directly.

A physical plan fixes, for every join, the algorithm (partitioned or
broadcast), the n-ary grouping, the input order, and for broadcast joins the
target input that stays in place. The grouping tree that
:func:`~sparqlsim.logical.build_logical` returns is itself a tree of these
nodes; the three static strategies are built here from it and the measured
selection sizes, and the adaptive strategy in :mod:`sparqlsim.hybrid` builds
its plan during execution.
"""

from dataclasses import dataclass
from typing import Union

from .terms import Term, TriplePattern, pattern_vars


@dataclass(frozen=True, slots=True)
class SelectionNode:
    """Plan leaf: the selection for one triple pattern."""

    index: int
    pattern: TriplePattern

    @property
    def label(self) -> str:
        return f"t{self.index + 1}"

    @property
    def vars(self) -> frozenset[Term]:
        return pattern_vars(self.pattern)


@dataclass(frozen=True, slots=True)
class PjoinNode:
    """Partitioned n-ary join on ``on``: co-locate by hash, join locally."""

    on: frozenset[Term]
    children: tuple["PhysNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("a join needs at least two children")
        if not self.on:
            raise ValueError("a partitioned join needs join variables")

    @property
    def vars(self) -> frozenset[Term]:
        out: set[Term] = set()
        for child in self.children:
            out |= child.vars
        return frozenset(out)


@dataclass(frozen=True, slots=True)
class BrjoinNode:
    """Broadcast n-ary join: replicate every input except the target, then
    join against the target's local chunks."""

    on: frozenset[Term]
    children: tuple["PhysNode", ...]
    target: int
    cross: bool = False

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("a join needs at least two children")
        if not 0 <= self.target < len(self.children):
            raise ValueError(f"target {self.target} out of range")
        if not self.on and not self.cross:
            raise ValueError("a non-cross broadcast join needs join variables")

    @property
    def vars(self) -> frozenset[Term]:
        out: set[Term] = set()
        for child in self.children:
            out |= child.vars
        return frozenset(out)


PhysNode = Union[SelectionNode, PjoinNode, BrjoinNode]


@dataclass(frozen=True, slots=True)
class PhysicalPlan:
    """A complete executable plan. With ``shared_scan`` the selections of
    all leaves share one store pass instead of scanning once each."""

    root: PhysNode
    shared_scan: bool = False


def plan_leaves(node: PhysNode) -> list[SelectionNode]:
    """All selection leaves, left to right."""
    out: list[SelectionNode] = []

    def walk(n: PhysNode) -> None:
        if isinstance(n, SelectionNode):
            out.append(n)
        else:
            for child in n.children:
                walk(child)

    walk(node)
    return out


def join_key(node: PjoinNode | BrjoinNode) -> str:
    """A join's key as plans show it: ``x,y``, or ``cross``."""
    if isinstance(node, BrjoinNode) and node.cross:
        return "cross"
    return ",".join(v.lexical for v in sorted(node.on))


def render_plan(node: PhysNode) -> str:
    """Compact one-line plan form, e.g. ``Pjoin_x(Brjoin_y(t4,t2),t1)``."""
    if isinstance(node, SelectionNode):
        return node.label
    inner = ",".join(render_plan(c) for c in node.children)
    name = "Pjoin" if isinstance(node, PjoinNode) else "Brjoin"
    return f"{name}_{join_key(node)}({inner})"


def plan_pjoin_strategy(tree: PhysNode) -> PhysicalPlan:
    """Every join runs partitioned on its variable set, which is the
    grouping tree as built; a cross product (only present when explicitly
    allowed) broadcasts, since there is no key to partition on."""
    return PhysicalPlan(tree)


def plan_mono_brjoin(tree: PhysNode, leaf_sizes: dict[int, int]) -> PhysicalPlan:
    """One broadcast join over all selections: every input except the largest
    is replicated everywhere. The target is the largest selection (ties to
    the smallest pattern index). Input order beyond that affects neither
    what is transferred nor the local join, which folds from the target
    through connected inputs (:func:`sparqlsim.ops.fold_order`), so
    non-targets keep textual order."""
    leaves = sorted(plan_leaves(tree), key=lambda leaf: leaf.index)
    if len(leaves) == 1:
        return PhysicalPlan(leaves[0])
    target = max(leaves, key=lambda leaf: (leaf_sizes[leaf.index], -leaf.index))
    ordered = [leaf for leaf in leaves if leaf is not target] + [target]
    on = _all_join_vars(tree)
    return PhysicalPlan(BrjoinNode(on=on, children=tuple(ordered),
                                   target=len(ordered) - 1, cross=not on))


def _all_join_vars(node: PhysNode) -> frozenset[Term]:
    if isinstance(node, SelectionNode):
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

    def convert(node: PhysNode) -> tuple[PhysNode, int]:
        if isinstance(node, SelectionNode):
            return node, leaf_sizes[node.index]
        subtrees: list[tuple[PhysNode, int]] = []
        leaves: list[tuple[SelectionNode, int]] = []
        for child in node.children:
            if isinstance(child, SelectionNode):
                leaves.append((child, leaf_sizes[child.index]))
            else:
                subtrees.append(convert(child))
        leaves.sort(key=lambda pair: (pair[1], pair[0].index))
        queue: list[tuple[PhysNode, int]] = subtrees + leaves
        acc, acc_size = queue[0]
        for nxt, nxt_size in queue[1:]:
            target = 1 if acc_size <= nxt_size else 0
            acc = BrjoinNode(on=node.on, children=(acc, nxt), target=target,
                             cross=not node.on)
            acc_size = min(acc_size, nxt_size)
        return acc, acc_size

    root, _ = convert(tree)
    return PhysicalPlan(root)
