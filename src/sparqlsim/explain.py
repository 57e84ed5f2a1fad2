"""Readable plan explanations for the CLI.

Selections are measured against the loaded store (explanation is free in a
simulation), so leaf sizes and layouts are exact. Join steps are listed in
execution (post-) order with their transfer formulas; intermediate sizes
are left symbolic as ``|#k|`` because they are only known once the join
runs. For the adaptive strategy only the opening step is shown: every later
decision depends on measured intermediate sizes.

Selections run through the shared executor, static plans come from the
engine's :func:`~sparqlsim.engine.plan_static`, and the adaptive opening
step from :func:`~sparqlsim.hybrid.hybrid_opening`, so what is explained is
what a run executes.
"""

from .cluster import Cluster, Dataset, PartitionState, Relation, TransferLedger, keyed
from .engine import plan_static
from .executor import Executor
from .hybrid import hybrid_opening
from .logical import build_logical, classify_shape
from .ops import compile_specs
from .physical import (
    BrjoinNode, PhysNode, PjoinNode, SelectionNode, join_key, render_plan,
)
from .sparql import Query


def _join_text(node: PjoinNode | BrjoinNode) -> str:
    name = "Pjoin" if isinstance(node, PjoinNode) else "Brjoin"
    return f"{name} on {{{join_key(node)}}}"


def _render_joins(root: PhysNode, selections: list[Relation], m: int) -> list[str]:
    lines: list[str] = []
    counter = 0

    def walk(node: PhysNode) -> tuple[str, str, PartitionState]:
        nonlocal counter
        if isinstance(node, SelectionNode):
            rel = selections[node.index]
            return node.label, str(rel.count), rel.partition
        info = [walk(child) for child in node.children]
        counter += 1
        ref = f"#{counter}"
        refs = ", ".join(r for r, _, _ in info)
        if isinstance(node, PjoinNode):
            state = keyed(node.on)
            moved = [term for _, term, st in info
                     if not (st.is_keyed_on(node.on) or st.is_replicated)]
            detail = ("repartition: " + " + ".join(moved) + " tuples") if moved \
                else "repartition: none (inputs co-located)"
        else:
            target_ref, _, state = info[node.target]
            moving = [term for k, (_, term, st) in enumerate(info)
                      if k != node.target and not st.is_replicated]
            if moving:
                detail = f"broadcast: {m - 1} x ({' + '.join(moving)}), target {target_ref}"
            else:
                detail = f"broadcast: none (already replicated), target {target_ref}"
        lines.append(f"  {ref} {_join_text(node)} ({refs}) -> {state.render()} | {detail}")
        return ref, f"|{ref}|", state

    walk(root)
    return lines


def _selection_lines(query: Query, selections: list[Relation]) -> list[str]:
    return [f"  t{i + 1}: {pattern.text()} | rows={rel.count} "
            f"| {rel.partition.render()}"
            for i, (pattern, rel) in enumerate(zip(query.patterns, selections))]


def explain_text(query: Query, dataset: Dataset, cluster: Cluster,
                 strategy: str, *, allow_cross: bool = False) -> str:
    shape = classify_shape(query.patterns)
    header = [
        f"strategy: {strategy}",
        f"store: {dataset.size} triples, m={cluster.m}, "
        f"{dataset.base.value}-partitioned",
        f"query shape: {shape.shape.value}"
        + (f" (center {shape.center.nt()}, {shape.orientation})"
           if shape.center is not None else ""),
    ]

    if strategy == "hybrid":
        return "\n".join(header + _explain_hybrid(query, dataset, cluster,
                                                  allow_cross)) + "\n"

    selections = Executor(dataset, cluster, TransferLedger()).run_selections(
        compile_specs(query.patterns))
    sizes = {i: rel.count for i, rel in enumerate(selections)}
    plan = plan_static(strategy, build_logical(query.patterns, allow_cross), sizes)
    lines = header
    lines.append(f"plan: {render_plan(plan.root)}")
    lines.append("selections (one store scan each):")
    lines.extend(_selection_lines(query, selections))
    if not isinstance(plan.root, SelectionNode):
        lines.append("join steps (|#k| = measured size of step k at run time):")
        lines.extend(_render_joins(plan.root, selections, cluster.m))
    return "\n".join(lines) + "\n"


def _explain_hybrid(query: Query, dataset: Dataset, cluster: Cluster,
                    allow_cross: bool) -> list[str]:
    opening = hybrid_opening(query.patterns, dataset, cluster,
                             allow_cross=allow_cross)
    d, n, s = dataset.size, len(query.patterns), opening.subset_size
    shared = f"{d} + {n} x {s} = {d + n * s}"
    if opening.shared_scan:
        labels = ", ".join(f"t{i + 1}" for i in range(n))
        lines = [f"selections (one shared store pass over {labels}: "
                 f"{shared} < {n} x {d} tuples):"]
    else:
        lines = [f"selections (one store scan each: a shared pass would read "
                 f"{shared} >= {n} x {d} tuples):"]
    lines.extend(_selection_lines(query, opening.selections))

    for node, cost in opening.steps:
        first, second = (child.label for child in node.children)
        if isinstance(node, PjoinNode):
            detail = f"repartition: {cost} tuples"
        else:
            detail = (f"broadcast: {cost} tuples, "
                      f"target {node.children[node.target].label}")
        lines.append(f"opening step: {_join_text(node)} ({first}, {second}) | {detail}")
    lines.append("remaining steps are chosen at run time from measured "
                 "intermediate sizes.")
    return lines
