"""Top-level query runs: one strategy, one dataset, full accounting.

A query compiles once, on its first run (:func:`compile_query`): its
grouping tree of plan nodes (:func:`~sparqlsim.logical.build_logical`),
one selection spec per pattern and its connected components depend on the
patterns alone, and every later run reuses them. Compiling precedes a
run's timer, so ``wall_seconds`` times the same work for every strategy.
Static strategies (``pjoin``, ``mono-br``, ``multi-br``) reject a cross
product that is not allowed before any scan, evaluate and measure every
selection once, and build their plan from the tree and the measured
sizes, all in :func:`plan_static`; they then execute the joins on the
measured selections. The adaptive strategy plans while executing; see
:mod:`sparqlsim.hybrid`. Either way a run builds one
:class:`~sparqlsim.executor.Executor` and every step runs on it.
"""

import gc
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .cluster import Cluster, Dataset, Relation, Row, TransferLedger, check_loaded_on
from .executor import ExecutionTrace, Executor, execute_plan
from .hybrid import plan_and_execute_hybrid
from .logical import CompiledQuery, ShapeInfo, build_logical, check_cross
from .ops import cut_rows
from .physical import (
    PhysicalPlan, plan_leaves, plan_mono_brjoin, plan_multi_brjoin,
    plan_pjoin_strategy, render_plan,
)
from .sparql import Query
from .terms import TERMS, Term, TriplePattern

STRATEGIES = ("pjoin", "mono-br", "multi-br", "hybrid")
DEFAULT_STRATEGY = "hybrid"


@dataclass(frozen=True, slots=True)
class RunResult:
    strategy: str
    plan: PhysicalPlan
    relation: Relation           # already projected onto the select list
    trace: ExecutionTrace
    wall_seconds: float
    evaluations: int | None = None   # adaptive strategy only

    @property
    def ledger(self) -> TransferLedger:
        """The run's totals: the sum of its trace entries' charges."""
        return self.trace.ledger()

    @property
    def result_count(self) -> int:
        return self.relation.count


def compile_query(patterns: Sequence[TriplePattern]) -> CompiledQuery:
    """The planning facts of a pattern list, read from its grouping tree
    with cross products allowed; :attr:`Query.compiled` calls this once
    per query."""
    return CompiledQuery(build_logical(patterns, allow_cross=True))


def plan_static(strategy: str, compiled: CompiledQuery, executor: Executor, *,
                allow_cross: bool = False) -> tuple[PhysicalPlan, list[Relation]]:
    """A static strategy's plan and the selections, run on ``executor``,
    whose measured sizes it was built from. A cross product that is not
    allowed fails before any scan."""
    check_cross(compiled.components, allow_cross)
    tree = compiled.tree
    rels = executor.run_selections(compiled.specs)
    sizes = {i: rel.count for i, rel in enumerate(rels)}
    if strategy == "pjoin":
        plan = plan_pjoin_strategy(tree)
    elif strategy == "mono-br":
        plan = plan_mono_brjoin(tree, sizes)
    elif strategy == "multi-br":
        plan = plan_multi_brjoin(tree, sizes)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return plan, rels


def run_strategy(strategy: str, query: Query, dataset: Dataset, cluster: Cluster,
                 *, allow_cross: bool = False,
                 validate: bool = False) -> RunResult:
    """Run one strategy on ``query`` over ``dataset``, loaded on ``cluster``.

    The run, from compiling the query (on its first run) through the
    projection, runs with Python's cyclic garbage collector paused, and
    the caller's setting comes back on every exit, a raise included. A
    run allocates only acyclic containers (id tuples, and lists and dicts
    of them), which reference counting frees at once, so the collector
    would only walk them, and the store, in vain. The setting is process-wide: when two
    threads run at once, one may see collection resume before its own run
    ends, which is harmless.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} "
                         f"(expected one of {', '.join(STRATEGIES)})")
    check_loaded_on(dataset, cluster)
    executor = Executor(dataset, validate)
    collecting = gc.isenabled()
    gc.disable()
    try:
        compiled = query.compiled
        started = time.perf_counter()
        evaluations = None
        if strategy == "hybrid":
            run = plan_and_execute_hybrid(compiled, executor, allow_cross=allow_cross,
                                          select=query.select)
            plan, relation, evaluations = run.plan, run.relation, run.evaluations
        else:
            plan, rels = plan_static(strategy, compiled, executor, allow_cross=allow_cross)
            relation = execute_plan(plan, executor, query.select, rels)
        wall = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    return RunResult(strategy, plan, relation, executor.trace, wall, evaluations)


def run_query(query: Query, dataset: Dataset, cluster: Cluster,
              strategy: str = DEFAULT_STRATEGY, **kwargs) -> list[RunResult]:
    """Run one strategy, or all four with ``strategy='all'``."""
    names = STRATEGIES if strategy == "all" else (strategy,)
    return [run_strategy(name, query, dataset, cluster, **kwargs) for name in names]


def result_tuples(relation: Relation, select: Sequence[Term]) -> list[Row]:
    """A result's id tuples in select-list column order, read from the
    relation's columns; a repeated select variable repeats its id."""
    return list(cut_rows(relation.tuples(), [relation.columns.index(v) for v in select]))


def _sorted_by_nt(counts: Counter[Row]) -> list[tuple[tuple[str, ...], Row, int]]:
    """Each distinct id tuple of ``counts`` after its key (the N-Triples
    forms of its terms, each built once per distinct id) and before its
    multiplicity. Sorted by key; equal keys are equal rows, so a bag is
    sorted by its distinct rows alone."""
    terms = TERMS
    nt = {i: terms[i].nt() for i in set(chain.from_iterable(counts))}.__getitem__
    return sorted((tuple(map(nt, row)), row, n) for row, n in counts.items())


def sorted_result_rows(relation: Relation, select: Sequence[Term]) -> list[tuple[Term, ...]]:
    """Result tuples in select-list column order, decoded to terms and
    sorted canonically, by their terms' N-Triples forms."""
    terms = TERMS
    out: list[tuple[Term, ...]] = []
    for _, row, n in _sorted_by_nt(Counter(result_tuples(relation, select))):
        out += [tuple([terms[i] for i in row])] * n
    return out


def result_lines(counts: Counter[Row]) -> list[str]:
    """A result bag as ``query`` prints it, given the multiplicity of each
    id tuple of :func:`result_tuples`: one line per row of
    :func:`sorted_result_rows`, its terms' N-Triples forms tab-separated."""
    out: list[str] = []
    for key, _, n in _sorted_by_nt(counts):
        out += ["\t".join(key)] * n
    return out


def result_cell(result: RunResult, *, partitioning: str,
                shape: ShapeInfo, include_wall: bool = True) -> dict:
    """The per-run metrics record shared by the CLI and the bench reports;
    its node count is the result relation's."""
    totals = result.ledger.totals()
    cell = {
        "strategy": result.strategy,
        "m": result.relation.m,
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
    cell["shape"] = shape.shape.value
    if result.plan.shared_scan:
        leaves = plan_leaves(result.plan.root)
        cell["merged_scan_groups"] = [[leaf.label for leaf in leaves]]
    return cell
