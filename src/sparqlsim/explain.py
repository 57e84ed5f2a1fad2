"""Readable plan explanations for the CLI.

Selections are measured against the loaded store (explanation is free in a
simulation), so leaf sizes and layouts are exact. Join steps are listed in
execution (post-) order with their transfer formulas; intermediate sizes
are left symbolic as ``|#k|`` because they are only known once the join
runs. For the adaptive strategy only the opening step is shown: every later
decision depends on measured intermediate sizes.

Static plans and their selections come from the engine's
:func:`~sparqlsim.engine.plan_static`, and the adaptive selections and
opening steps from the strategy's own :class:`~sparqlsim.hybrid.HybridPlanner`,
both reading the query's compiled facts as a run does, so what is explained
is what a run executes.
"""

from .cluster import Cluster, Dataset, Relation, check_loaded_on, render_key
from .engine import plan_static
from .executor import Executor
from .hybrid import HybridPlanner
from .logical import classify_shape
from .ops import SelectionSpec
from .physical import JoinNode, PhysNode, join_key, render_plan
from .sparql import Query
from .terms import Term, pattern_label


def _join_text(node: JoinNode) -> str:
    name = "Pjoin" if node.target is None else "Brjoin"
    return f"{name} on {{{join_key(node)}}}"


def _render_joins(root: PhysNode, selections: list[Relation], m: int) -> list[str]:
    lines: list[str] = []
    counter = 0

    def walk(node: PhysNode) -> tuple[str, str, frozenset[Term]]:
        nonlocal counter
        if isinstance(node, SelectionSpec):
            rel = selections[node.index]
            return node.label, str(rel.count), rel.key
        info = [walk(child) for child in node.children]
        counter += 1
        ref = f"#{counter}"
        refs = ", ".join(r for r, _, _ in info)
        if node.target is None:
            key = node.on
            moved = [term for _, term, k in info if k != key]
            detail = ("repartition: " + " + ".join(moved) + " tuples") if moved \
                else "repartition: none (inputs co-located)"
        else:
            target_ref, _, key = info[node.target]
            moving = [term for k, (_, term, _) in enumerate(info) if k != node.target]
            detail = f"broadcast: {m - 1} x ({' + '.join(moving)}), target {target_ref}"
        lines.append(f"  {ref} {_join_text(node)} ({refs}) -> {render_key(key)} | {detail}")
        return ref, f"|{ref}|", key

    walk(root)
    return lines


def _selection_lines(query: Query, selections: list[Relation]) -> list[str]:
    return [f"  {pattern_label(i)}: {pattern.text()} | rows={rel.count} "
            f"| {render_key(rel.key)}"
            for i, (pattern, rel) in enumerate(zip(query.patterns, selections))]


def explain_text(query: Query, dataset: Dataset, cluster: Cluster,
                 strategy: str, *, allow_cross: bool = False) -> str:
    check_loaded_on(dataset, cluster)
    shape = classify_shape(query.patterns)
    header = [
        f"strategy: {strategy}",
        f"store: {dataset.size} triples, m={dataset.m}, "
        f"{dataset.base.value}-partitioned",
        f"query shape: {shape.shape.value}"
        + (f" (center {shape.center.nt()}, {shape.orientation})"
           if shape.center is not None else ""),
    ]

    # Explaining measures the selections on a throwaway executor.
    executor = Executor(dataset)
    if strategy == "hybrid":
        return "\n".join(header + _explain_hybrid(query, executor, allow_cross)) + "\n"

    plan, selections = plan_static(strategy, query.compiled, executor,
                                   allow_cross=allow_cross)
    lines = header
    lines.append(f"plan: {render_plan(plan.root)}")
    lines.append("selections (one store scan each):")
    lines.extend(_selection_lines(query, selections))
    if not isinstance(plan.root, SelectionSpec):
        lines.append("join steps (|#k| = measured size of step k at run time):")
        lines.extend(_render_joins(plan.root, selections, dataset.m))
    return "\n".join(lines) + "\n"


def _explain_hybrid(query: Query, executor: Executor, allow_cross: bool) -> list[str]:
    planner = HybridPlanner(query.compiled, executor, allow_cross=allow_cross)
    leaves, shared_scan, s = planner.select()
    d, n = executor.dataset.size, len(query.patterns)
    shared = f"{d} + {n} x {s} = {d + n * s}"
    if shared_scan:
        labels = ", ".join(map(pattern_label, range(n)))
        lines = [f"selections (one shared store pass over {labels}: "
                 f"{shared} < {n} x {d} tuples):"]
    else:
        lines = [f"selections (one store scan each: a shared pass would read "
                 f"{shared} >= {n} x {d} tuples):"]
    lines.extend(_selection_lines(query, [rel for rel, _ in leaves]))

    for members in planner.components:
        if len(members) < 2:
            continue
        first, second, choice = planner.opening([leaves[i] for i in members])
        node = planner.step_node(first, second, choice)
        pair = [child.label for child in node.children]
        if node.target is None:
            detail = f"repartition: {choice.cost} tuples"
        else:
            detail = f"broadcast: {choice.cost} tuples, target {pair[node.target]}"
        lines.append(f"opening step: {_join_text(node)} ({', '.join(pair)}) | {detail}")
    lines.append("remaining steps are chosen at run time from measured "
                 "intermediate sizes.")
    return lines
