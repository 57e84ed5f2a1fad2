"""In-memory simulator for distributed basic-graph-pattern evaluation.

The package models an m-node cluster holding a partitioned triple store and
evaluates SPARQL basic graph patterns with four physical strategies —
partitioned joins, one or many broadcast joins, and an adaptive planner that
picks the cheaper movement operator per step from measured sizes. Every
operator charges exact tuple counts (scans, repartitions, broadcasts) to a
ledger, so analytic cost formulas can be checked against executions.
"""

from .bench import (
    BenchCase, BenchReport, CSV_COLUMNS, cases_from_suite, run_bench,
    run_suite,
)
from .cluster import (
    BasePartition, Cluster, Dataset, PlacementError, Relation, TransferLedger,
    load_partitioned, node_of,
)
from .cost import (
    CostParams, cost_brjoin, cost_merged_selection, cost_pjoin,
    cost_selection, crossover_prefers_pjoin, merged_scan_beneficial,
)
from .engine import STRATEGIES, run_query, run_strategy, sorted_result_rows
from .errors import (
    CartesianProductError, EngineError, ParseError, ResultSizeLimitError,
    UnsupportedFeatureError,
)
from .executor import ExecutionTrace, Executor, execute_plan, trace_cost
from .explain import explain_text
from .hybrid import plan_and_execute_hybrid
from .logical import Shape, build_logical, classify_shape
from .ntriples import parse_ntriples, serialize_ntriples
from .oracle import as_multiset, oracle_eval
from .physical import PhysicalPlan, render_plan
from .sparql import Query, parse_query, parse_query_file, serialize_query
from .terms import (
    BindingRow, Term, TermKind, Triple, TriplePattern, blank, iri, lit, var,
)
from .workloads import (
    Suite, Workload, WorkloadSpec, generate, generate_for_query, load_suite,
    snowflake_query, snowflake_selection_sizes,
)

__version__ = "0.1.0"

__all__ = [
    "BasePartition", "BenchCase", "BenchReport", "BindingRow",
    "CSV_COLUMNS", "CartesianProductError", "Cluster",
    "CostParams", "Dataset", "EngineError", "ExecutionTrace", "Executor",
    "ParseError", "PhysicalPlan",
    "PlacementError", "Query", "Relation", "ResultSizeLimitError",
    "STRATEGIES", "Shape", "Suite", "Term", "TermKind",
    "TransferLedger", "Triple", "TriplePattern", "UnsupportedFeatureError",
    "Workload", "WorkloadSpec", "as_multiset", "blank", "build_logical",
    "cases_from_suite", "run_bench", "run_suite",
    "classify_shape", "cost_brjoin", "cost_merged_selection", "cost_pjoin",
    "cost_selection", "crossover_prefers_pjoin", "execute_plan",
    "explain_text", "generate", "generate_for_query", "iri", "lit",
    "load_partitioned", "load_suite", "merged_scan_beneficial", "node_of",
    "oracle_eval", "parse_ntriples", "parse_query", "parse_query_file",
    "plan_and_execute_hybrid", "render_plan",
    "run_query", "run_strategy", "serialize_ntriples", "serialize_query",
    "snowflake_query", "snowflake_selection_sizes", "sorted_result_rows",
    "trace_cost", "var",
]
