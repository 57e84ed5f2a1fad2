"""The compiled form of a query, and query-shape classification.

:func:`build_logical` compiles a pattern list once into a
:class:`CompiledQuery`: one selection leaf per pattern
(:class:`~sparqlsim.ops.SelectionSpec`), the connected components, the
patterns that can share a stored triple, and the grouping of the patterns
into n-ary joins as a plan tree of partitioned
:class:`~sparqlsim.physical.JoinNode` steps over those leaves, which is
exactly the static partitioned plan. The broadcast strategies
regroup or re-target the same tree (:mod:`sparqlsim.physical`). A query
keeps the record (:attr:`~sparqlsim.sparql.Query.compiled`) and every run
reuses it; each run still decides whether a cross product may run
(:func:`check_cross`).

Grouping rule: process each join variable once they are "complete", i.e. in
ascending order of the last (textual) pattern that mentions them, breaking
ties by first mention and then by variable order. A variable's join step
collects every pending subtree and every not-yet-consumed pattern containing
it. Variables fully contained inside an existing subtree add no step. For a
connected pattern set this always terminates in a single tree, and it yields
the natural nesting for hierarchies: satellite groups close before the
variable that links them to the center. Since a step takes every subtree
that mentions its variable, no later step has a child joined on its own
key, so the partitioned plan never nests two joins on the same key.

The hash-key set of a join step is the full intersection of its children's
variable sets (always nonempty and containing the grouping variable), so
partitioned execution can co-locate on every shared variable at once.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import CartesianProductError
from .ops import SelectionSpec, overlapping_patterns
from .physical import JoinNode, PhysNode
from .terms import Term, TriplePattern, pattern_vars


def join_variables(patterns: Sequence[TriplePattern]) -> dict[Term, list[int]]:
    """Variables occurring in at least two patterns, with the (sorted)
    indices of the patterns mentioning them."""
    mentions: dict[Term, list[int]] = {}
    for i, p in enumerate(patterns):
        for v in sorted(pattern_vars(p)):
            mentions.setdefault(v, []).append(i)
    return {v: idxs for v, idxs in mentions.items() if len(idxs) >= 2}


def connected_components(patterns: Sequence[TriplePattern]) -> list[list[int]]:
    """Components of the variable-sharing graph, each sorted by pattern
    index, listed by their smallest member. Ground patterns are singleton
    components."""
    n = len(patterns)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for idxs in join_variables(patterns).values():
        head = idxs[0]
        for other in idxs[1:]:
            union(head, other)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def _build_component(specs: Sequence[SelectionSpec], members: list[int],
                     order: list[tuple[Term, list[int]]]) -> PhysNode:
    if len(members) == 1:
        return specs[members[0]]

    member_set = set(members)
    pending: list[PhysNode] = []
    unconsumed = set(members)

    for v, mention_idxs in order:
        if mention_idxs[0] not in member_set:
            continue
        children: list[PhysNode] = [t for t in pending if v in t.vars]
        leaf_idxs = [i for i in mention_idxs if i in unconsumed]
        children.extend(specs[i] for i in leaf_idxs)
        if len(children) < 2:
            # Variable already closed inside a single subtree.
            continue
        on = children[0].vars
        for child in children[1:]:
            on = on & child.vars
        node = JoinNode(on, tuple(children))
        pending = [t for t in pending if v not in t.vars]
        pending.append(node)
        unconsumed.difference_update(leaf_idxs)

    if len(pending) != 1 or unconsumed:
        raise AssertionError("connected component did not reduce to one tree")
    return pending[0]


def check_cross(components: Sequence[Sequence[int]], allow_cross: bool) -> None:
    """Raise :class:`CartesianProductError` when there is more than one
    component and cross products are not allowed."""
    if len(components) > 1 and not allow_cross:
        raise CartesianProductError(len(components))


@dataclass(frozen=True, slots=True)
class CompiledQuery:
    """A query's planning facts: its grouping ``tree`` (cross products
    allowed), the tree's leaves, one :class:`~sparqlsim.ops.SelectionSpec`
    per pattern in order, the connected components as pattern indices, and
    the indices of the patterns that can share a stored triple with another
    (:func:`~sparqlsim.ops.overlapping_patterns`), which a shared store
    pass counts together."""

    tree: PhysNode
    specs: tuple[SelectionSpec, ...]
    components: tuple[tuple[int, ...], ...]
    overlapping: tuple[int, ...]


def build_logical(patterns: Sequence[TriplePattern]) -> CompiledQuery:
    """Compile a pattern list: one :class:`~sparqlsim.ops.SelectionSpec`
    leaf per pattern, and the canonical grouping tree over them.

    The tree of a disconnected pattern set combines the component trees
    (ordered by first pattern index) under a single cross-product broadcast
    join whose target is the last component; each run decides whether it
    may run (:func:`check_cross`).
    """
    if not patterns:
        raise ValueError("cannot plan an empty pattern list")
    components = connected_components(patterns)
    specs = tuple(SelectionSpec(i, p) for i, p in enumerate(patterns))
    order = sorted(join_variables(patterns).items(),
                   key=lambda item: (item[1][-1], item[1][0], item[0]))
    trees = [_build_component(specs, members, order) for members in components]
    tree = trees[0] if len(trees) == 1 else JoinNode(
        frozenset(), tuple(trees), len(trees) - 1)
    return CompiledQuery(tree, specs, tuple(map(tuple, components)),
                         overlapping_patterns(specs))


class Shape(Enum):
    STAR = "star"
    CHAIN = "chain"
    SNOWFLAKE = "snowflake"
    COMPLEX = "complex"


@dataclass(frozen=True, slots=True)
class ShapeInfo:
    shape: Shape
    center: Term | None = None
    # For stars: "subject" / "object" / "mixed", by where the center sits.
    orientation: str | None = None


def _positions_of(term: Term, pattern: TriplePattern) -> list[int]:
    return [pos for pos, t in enumerate(pattern) if t == term]


def _entity_positions(term: Term, pattern: TriplePattern) -> list[int]:
    """Positions of ``term`` restricted to subject/object."""
    return [pos for pos in _positions_of(term, pattern) if pos != 1]


def _star_center(patterns: Sequence[TriplePattern],
                 used: frozenset[Term] = frozenset()) -> Term | None:
    """Center of a star: an unused variable occurring at subject or object in
    every pattern, with every other variable local to a single pattern. A
    single pattern's center is its first entity variable."""
    occurrences: dict[Term, int] = {}
    for p in patterns:
        for v in pattern_vars(p):
            occurrences[v] = occurrences.get(v, 0) + 1
    common = [v for v, count in occurrences.items() if count == len(patterns)]
    for center in sorted(common):
        if center in used:
            continue
        if not all(_entity_positions(center, p) for p in patterns):
            continue
        if all(count == 1 for v, count in occurrences.items() if v != center):
            return center
    return None


def _star_orientation(center: Term, patterns: Sequence[TriplePattern]) -> str:
    at_subject = all(center == p.s for p in patterns)
    at_object = all(center == p.o for p in patterns)
    if at_subject and not at_object:
        return "subject"
    if at_object and not at_subject:
        return "object"
    return "mixed"


def _is_chain(patterns: Sequence[TriplePattern]) -> bool:
    """Path check on the join graph: every join variable links exactly two
    patterns, at subject or object in both, no pair is linked twice, the
    degrees are 1, 1, 2, ..., 2 (so n >= 2 with n - 1 links), and the graph
    is connected, which with those degrees rules out a cycle."""
    degrees = [0] * len(patterns)
    linked: set[tuple[int, ...]] = set()
    for v, idxs in join_variables(patterns).items():
        pair = tuple(idxs)
        if len(pair) != 2 or pair in linked:
            return False
        if not all(_entity_positions(v, patterns[i]) for i in pair):
            return False
        linked.add(pair)
        for i in pair:
            degrees[i] += 1
    return (sorted(degrees) == [1, 1] + [2] * (len(patterns) - 2)
            and len(connected_components(patterns)) == 1)


def _peel_set(patterns: Sequence[TriplePattern], remaining: frozenset[int],
              center: Term) -> frozenset[int]:
    """Satellite-star arm for ``center``: remaining patterns that hold the
    center at subject/object and whose other variables occur nowhere else
    among the remaining patterns."""
    counts: dict[Term, int] = {}
    for i in remaining:
        for v in pattern_vars(patterns[i]):
            counts[v] = counts.get(v, 0) + 1
    arm = []
    for i in remaining:
        p = patterns[i]
        if not _entity_positions(center, p):
            continue
        if all(counts[v] == 1 for v in pattern_vars(p) if v != center):
            arm.append(i)
    return frozenset(arm)


def _is_snowflake(patterns: Sequence[TriplePattern]) -> bool:
    """Snowflake: repeatedly peel satellite star arms off the outside until a
    central star of at least two patterns remains. Peel choices are searched
    with memoized backtracking, so arm and center roles never depend on a
    lucky greedy order."""
    all_idx = frozenset(range(len(patterns)))
    memo: dict[tuple[frozenset[int], frozenset[Term]], bool] = {}

    def solve(remaining: frozenset[int], used: frozenset[Term]) -> bool:
        key = (remaining, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        subset = [patterns[i] for i in sorted(remaining)]
        if len(subset) >= 2 and _star_center(subset, used) is not None:
            memo[key] = True
            return True
        result = False
        rest_vars: set[Term] = set()
        for i in remaining:
            rest_vars |= pattern_vars(patterns[i])
        for center in sorted(v for v in rest_vars if v not in used):
            arm = _peel_set(patterns, remaining, center)
            if not arm or arm == remaining:
                continue
            outside = remaining - arm
            if not any(center in pattern_vars(patterns[i]) for i in outside):
                continue
            if solve(outside, used | {center}):
                result = True
                break
        memo[key] = result
        return result

    return solve(all_idx, frozenset())


def classify_shape(patterns: Sequence[TriplePattern]) -> ShapeInfo:
    """Classify a connected pattern list, most specific shape first:
    star, then chain, then snowflake, then complex."""
    if not patterns:
        raise ValueError("cannot classify an empty pattern list")

    center = _star_center(patterns)
    if center is not None:
        return ShapeInfo(Shape.STAR, center, _star_orientation(center, patterns))
    if _is_chain(patterns):
        return ShapeInfo(Shape.CHAIN)
    if _is_snowflake(patterns):
        return ShapeInfo(Shape.SNOWFLAKE)
    return ShapeInfo(Shape.COMPLEX)
