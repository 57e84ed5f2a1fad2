"""Command-line interface.

Subcommands:

* ``load``    parse an N-Triples file, distribute it, print a JSON summary
* ``query``   run a basic graph pattern and print the solutions as TSV,
              followed by one compact JSON metrics line
* ``explain`` print the physical plan with measured selection sizes and
              per-step transfer formulas, without running the joins
* ``bench``   run a workload suite (or one dataset/query pair) over a grid
              of node counts and strategies; JSON or CSV report

Exit codes: 0 success; 2 bad input (missing file, file that is not UTF-8,
parse error, or an invalid option such as ``-m 0`` or a negative cost
weight); 3 query uses an unsupported feature; 4 the pattern is a cross
product and ``--allow-cross-product`` was not given; 5 ``bench`` verification
stopped because the reference evaluation exceeded its row budget (lower
``--verify-limit`` to skip verifying that dataset).
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .bench import DEFAULT_VERIFY_LIMIT, BenchCase, run_bench, run_suite
from .cluster import BasePartition, Cluster, Dataset, load_partitioned
from .cost import CostParams
from .engine import STRATEGIES, result_cell, run_query, sorted_result_rows
from .errors import (
    CartesianProductError, ParseError, ResultSizeLimitError, UnsupportedFeatureError,
)
from .executor import trace_cost
from .explain import explain_text
from .logical import classify_shape
from .ntriples import parse_ntriples
from .oracle import as_multiset
from .sparql import parse_query_file
from .workloads import load_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_CROSS_PRODUCT = 4
EXIT_RESULT_LIMIT = 5

_PARTITION_KEYS = tuple(b.value for b in BasePartition)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _weight(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}")
    return value


def _add_cluster_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", "--partitions", type=_positive_int, default=4,
                   metavar="N", help="number of simulated nodes (default 4)")
    p.add_argument("--partition-key", choices=_PARTITION_KEYS, default="subject",
                   help="how the triple store is distributed (default subject)")


def _add_planning_options(p: argparse.ArgumentParser, *,
                          default_strategy: str) -> None:
    p.add_argument("--strategy", choices=STRATEGIES + ("all",),
                   default=default_strategy,
                   help=f"join strategy (default {default_strategy})")
    p.add_argument("--allow-cross-product", action="store_true",
                   help="permit patterns whose variable graph is disconnected")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparqlsim",
        description="Distributed basic-graph-pattern engine simulator with "
                    "exact tuple-level transfer accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_load = sub.add_parser("load", help="parse and distribute an N-Triples file")
    p_load.add_argument("data", help="N-Triples (.nt) file")
    _add_cluster_options(p_load)

    p_query = sub.add_parser("query", help="run a query and print solutions")
    p_query.add_argument("data", help="N-Triples (.nt) file")
    p_query.add_argument("query", help="query (.rq) file")
    _add_cluster_options(p_query)
    _add_planning_options(p_query, default_strategy="hybrid")
    p_query.add_argument("--theta-acc", type=_weight, default=1.0, metavar="W",
                         help="cost weight per tuple access (default 1)")
    p_query.add_argument("--theta-comm", type=_weight, default=1.0, metavar="W",
                         help="cost weight per tuple transferred (default 1)")
    p_query.add_argument("--validate", action="store_true",
                         help="check partitioning invariants after every operator")
    p_query.add_argument("--no-header", action="store_true",
                         help="omit the TSV header row")

    p_explain = sub.add_parser("explain", help="print the plan without joining")
    p_explain.add_argument("data", help="N-Triples (.nt) file")
    p_explain.add_argument("query", help="query (.rq) file")
    _add_cluster_options(p_explain)
    _add_planning_options(p_explain, default_strategy="hybrid")

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    src = p_bench.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", metavar="SUITE.json",
                     help="workload suite file (generated datasets)")
    src.add_argument("--data", metavar="DATA.nt",
                     help="single dataset file (pair with --query)")
    p_bench.add_argument("--query", metavar="QUERY.rq",
                         help="query file for --data")
    p_bench.add_argument("-m", "--partitions", type=_positive_int, nargs="+",
                         default=None, metavar="N", help="node-count grid "
                         "(default: suite setting, else 4)")
    p_bench.add_argument("--partition-key", choices=_PARTITION_KEYS, default=None,
                         help="store distribution (default: suite setting, "
                         "else subject)")
    p_bench.add_argument("--strategy", choices=STRATEGIES + ("all",),
                         default=None, help="strategy or 'all' (default: suite "
                         "setting, else all)")
    p_bench.add_argument("--allow-cross-product", action="store_true",
                         help="permit disconnected patterns")
    p_bench.add_argument("--validate", action="store_true",
                         help="check partitioning invariants after every operator")
    p_bench.add_argument("--verify-limit", type=int, default=DEFAULT_VERIFY_LIMIT,
                         metavar="N", help="verify against the single-node "
                         "reference when the dataset has at most N triples "
                         f"(default {DEFAULT_VERIFY_LIMIT})")
    p_bench.add_argument("--report", choices=("json", "csv"), default="json",
                         help="report format (default json)")
    p_bench.add_argument("--out", metavar="PATH",
                         help="write the report to PATH instead of stdout")
    p_bench.add_argument("--no-wall-time", action="store_true",
                         help="zero out wall_ms for byte-reproducible reports")
    return parser


def _load_dataset(path: str, m: int, partition_key: str) -> tuple[Dataset, Cluster]:
    text = Path(path).read_text(encoding="utf-8")
    triples = parse_ntriples(text, source=path)
    cluster = Cluster(m)
    dataset = load_partitioned(triples, cluster, BasePartition(partition_key))
    return dataset, cluster


def _cmd_load(args: argparse.Namespace) -> int:
    dataset, _ = _load_dataset(args.data, args.partitions, args.partition_key)
    print(json.dumps({
        "triples": dataset.size,
        "m": dataset.m,
        "partitioning": dataset.base.value,
        "node_counts": dataset.node_counts(),
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    dataset, cluster = _load_dataset(args.data, args.partitions, args.partition_key)
    query, _ = parse_query_file(args.query)
    shape = classify_shape(query.patterns)
    params = CostParams(args.theta_acc, args.theta_comm)

    results = run_query(query, dataset, cluster, args.strategy,
                        allow_cross=args.allow_cross_product,
                        validate=args.validate)
    baseline = as_multiset(results[0].relation.rows())
    for other in results[1:]:
        if as_multiset(other.relation.rows()) != baseline:
            raise AssertionError(
                f"strategies disagree: {results[0].strategy} vs {other.strategy}")

    if not args.no_header:
        print("\t".join(v.nt() for v in query.select))
    for row in sorted_result_rows(results[0].relation, query.select):
        print("\t".join(term.nt() for term in row))

    runs = []
    for result in results:
        cell = result_cell(result, m=cluster.m, partitioning=dataset.base.value,
                           shape=shape)
        cost = trace_cost(result.trace, cluster.m, params)
        cell["transfer_total"] = result.ledger.total_transfer
        cell["cost_access"] = cost.access
        cell["cost_transfer"] = cost.transfer
        cell["cost_total"] = cost.total
        if result.evaluations is not None:
            cell["evaluations"] = result.evaluations
        runs.append(cell)
    print(json.dumps({
        "m": cluster.m,
        "partitioning": dataset.base.value,
        "result_count": results[0].result_count,
        "runs": runs,
    }, separators=(",", ":"), sort_keys=True))
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    dataset, cluster = _load_dataset(args.data, args.partitions, args.partition_key)
    query, _ = parse_query_file(args.query)
    names = STRATEGIES if args.strategy == "all" else (args.strategy,)
    blocks = [explain_text(query, dataset, cluster, name,
                           allow_cross=args.allow_cross_product)
              for name in names]
    print(("=" * 64 + "\n").join(blocks), end="")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    strategies = None if args.strategy is None else (
        STRATEGIES if args.strategy == "all" else (args.strategy,))
    if args.suite:
        suite = load_suite(args.suite)
        suite = dataclasses.replace(
            suite, m=tuple(args.partitions) if args.partitions else suite.m,
            strategies=strategies or suite.strategies,
            partitioning=args.partition_key or suite.partitioning)
        report = run_suite(suite, include_wall=not args.no_wall_time,
                           validate=args.validate, verify_limit=args.verify_limit)
    else:
        if not args.query:
            raise ParseError("--data needs --query")
        text = Path(args.data).read_text(encoding="utf-8")
        triples = parse_ntriples(text, source=args.data)
        query, meta = parse_query_file(args.query)
        case = BenchCase(name=Path(args.data).stem,
                         query_name=meta.get("label", Path(args.query).stem),
                         triples=triples, query=query)
        report = run_bench(
            [case], ms=tuple(args.partitions) if args.partitions else (4,),
            strategies=strategies or STRATEGIES,
            partitioning=args.partition_key or "subject",
            include_wall=not args.no_wall_time,
            allow_cross=args.allow_cross_product, validate=args.validate,
            verify_limit=args.verify_limit, suite_name="adhoc")

    text = report.render(args.report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.report} report to {args.out} "
              f"({len(report.cells)} cells)")
    else:
        print(text, end="")
    return EXIT_OK


_COMMANDS = {
    "load": _cmd_load,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedFeatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CartesianProductError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CROSS_PRODUCT
    except ResultSizeLimitError as exc:
        print(f"error: {exc}; lower --verify-limit to skip verification",
              file=sys.stderr)
        return EXIT_RESULT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
