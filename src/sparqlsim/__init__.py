"""In-memory simulator for distributed basic-graph-pattern evaluation.

The package models an m-node cluster holding a partitioned triple store and
evaluates SPARQL basic graph patterns with four physical strategies —
partitioned joins, one or many broadcast joins, and an adaptive planner that
picks the cheaper movement operator per step from measured sizes. Every
operator charges exact tuple counts (scans, repartitions, broadcasts) to a
ledger, so analytic cost formulas can be checked against executions.
"""

from .bench import BenchCase, run_bench
from .cluster import (
    BasePartition, Cluster, Dataset, TransferLedger, load_partitioned,
)
from .cost import (
    cost_brjoin, cost_pjoin, cost_selection, crossover_prefers_pjoin,
)
from .engine import run_query, run_strategy, sorted_result_rows
from .executor import Executor, execute_plan, trace_cost
from .ntriples import parse_ntriples, serialize_ntriples
from .oracle import as_multiset, oracle_eval
from .physical import render_plan
from .sparql import Query, parse_query, serialize_query
from .workloads import WorkloadSpec, generate, generate_for_query

__version__ = "0.1.0"

# The names the README's "Library" section names or perfbench imports;
# every other name is imported from its module.
__all__ = [
    "BasePartition", "BenchCase", "Cluster", "Dataset", "Executor", "Query",
    "TransferLedger", "WorkloadSpec",
    "as_multiset", "cost_brjoin", "cost_pjoin", "cost_selection",
    "crossover_prefers_pjoin",
    "execute_plan", "generate", "generate_for_query", "load_partitioned",
    "oracle_eval",
    "parse_ntriples", "parse_query", "render_plan", "run_bench", "run_query",
    "run_strategy",
    "serialize_ntriples", "serialize_query", "sorted_result_rows", "trace_cost",
]
