"""Top-level query runs: one strategy, one dataset, full accounting.

Static strategies (``pjoin``, ``mono-br``, ``multi-br``) first evaluate and
measure every selection once, build their plan from the grouping tree of
plan nodes (:func:`~sparqlsim.logical.build_logical`) and the measured sizes
(:func:`plan_static`), then execute the joins reusing the measured
selections. The adaptive strategy plans while executing; see
:mod:`sparqlsim.hybrid`.
"""

import time
from dataclasses import dataclass
from typing import Sequence

from .cluster import Cluster, Dataset, Relation, TransferLedger
from .executor import ExecutionTrace, Executor, execute_plan
from .hybrid import plan_and_execute_hybrid
from .logical import ShapeInfo, build_logical
from .ops import compile_specs
from .physical import (
    PhysicalPlan, PhysNode, plan_leaves, plan_mono_brjoin, plan_multi_brjoin,
    plan_pjoin_strategy, render_plan,
)
from .sparql import Query
from .terms import Term

STRATEGIES = ("pjoin", "mono-br", "multi-br", "hybrid")


@dataclass(frozen=True, slots=True)
class RunResult:
    strategy: str
    plan: PhysicalPlan
    relation: Relation           # already projected onto the select list
    ledger: TransferLedger
    trace: ExecutionTrace
    wall_seconds: float
    evaluations: int | None = None   # adaptive strategy only

    @property
    def result_count(self) -> int:
        return self.relation.count


def plan_static(strategy: str, tree: PhysNode,
                sizes: dict[int, int]) -> PhysicalPlan:
    """The plan of a static strategy, from the grouping tree and the measured
    selection sizes by pattern index."""
    if strategy == "pjoin":
        return plan_pjoin_strategy(tree)
    if strategy == "mono-br":
        return plan_mono_brjoin(tree, sizes)
    if strategy == "multi-br":
        return plan_multi_brjoin(tree, sizes)
    raise ValueError(f"unknown strategy {strategy!r}")


def run_strategy(strategy: str, query: Query, dataset: Dataset, cluster: Cluster,
                 *, allow_cross: bool = False,
                 validate: bool = False) -> RunResult:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} "
                         f"(expected one of {', '.join(STRATEGIES)})")
    ledger = TransferLedger()
    trace = ExecutionTrace()
    started = time.perf_counter()

    if strategy == "hybrid":
        run = plan_and_execute_hybrid(
            query.patterns, dataset, cluster, ledger, allow_cross=allow_cross,
            select=query.select, trace=trace, validate=validate)
        wall = time.perf_counter() - started
        return RunResult("hybrid", run.plan, run.relation, ledger, trace, wall,
                         evaluations=run.evaluations)

    tree = build_logical(query.patterns, allow_cross)
    executor = Executor(dataset, cluster, ledger, trace, validate)
    rels = executor.run_selections(compile_specs(query.patterns))
    plan = plan_static(strategy, tree, {i: r.count for i, r in enumerate(rels)})
    relation = execute_plan(plan, dataset, cluster, ledger, select=query.select,
                            trace=trace, validate=validate,
                            leaf_cache=executor.leaf_cache)
    wall = time.perf_counter() - started
    return RunResult(strategy, plan, relation, ledger, trace, wall)


def run_query(query: Query, dataset: Dataset, cluster: Cluster,
              strategy: str = "hybrid", **kwargs) -> list[RunResult]:
    """Run one strategy, or all four with ``strategy='all'``."""
    names = STRATEGIES if strategy == "all" else (strategy,)
    return [run_strategy(name, query, dataset, cluster, **kwargs) for name in names]


def sorted_result_rows(relation: Relation, select: Sequence[Term]) -> list[tuple[Term, ...]]:
    """Result tuples in select-list column order, sorted canonically."""
    order = sorted(relation.schema)
    positions = [order.index(v) for v in select]
    out = [tuple(row[i] for i in positions) for row in relation.tuples()]
    out.sort(key=lambda row: tuple(t.nt() for t in row))
    return out


def result_cell(result: RunResult, *, m: int, partitioning: str,
                shape: ShapeInfo | None = None,
                include_wall: bool = True) -> dict:
    """The per-run metrics record shared by the CLI and the bench reports."""
    totals = result.ledger.totals()
    cell = {
        "strategy": result.strategy,
        "m": m,
        "partitioning": partitioning,
        "result_count": result.result_count,
        "scanned": totals["scanned"],
        "shuffled_modeled": totals["shuffled_modeled"],
        "shuffled_actual": totals["shuffled_actual"],
        "broadcast": totals["broadcast"],
        "plan": render_plan(result.plan.root),
    }
    if include_wall:
        cell["wall_ms"] = round(result.wall_seconds * 1000.0, 3)
    if shape is not None:
        cell["shape"] = shape.shape.value
    if result.plan.shared_scan:
        leaves = sorted(plan_leaves(result.plan.root), key=lambda leaf: leaf.index)
        cell["merged_scan_groups"] = [[leaf.label for leaf in leaves]]
    return cell
