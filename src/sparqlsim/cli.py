"""Command-line interface.

Subcommands:

* ``load``    parse an N-Triples file, distribute it, print a JSON summary
* ``query``   run a basic graph pattern and print the solutions as TSV,
              followed by one compact JSON metrics line
* ``explain`` print the physical plan with measured selection sizes and
              per-step transfer formulas, without running the joins
* ``bench``   run a workload suite (or one dataset/query pair) over a grid
              of node counts and strategies; JSON or CSV report

Exit codes: 0 success; 2 bad input (missing file, a path that cannot be
read or written such as a directory, file that is not UTF-8, parse error,
or an invalid option such as ``-m 0``, a negative cost weight, a negative
``bench --verify-limit`` or ``--allow-cross-product`` with ``bench --suite``;
a node count, given with
``-m`` or in a suite's ``m`` list, must lie in 1..1024, ``MAX_NODE_COUNT``,
since the store and every relation hold one table or chunk per node); 3
query uses an unsupported feature (an unsupported keyword anywhere in the
query, as a bare word and not inside an IRI, literal, comment, variable,
blank node or prefixed name, exits 3 before any parse error can; an
expression in the select list, an object or predicate-object list and a
nested group, which have no keyword, exit 3 where the parser meets them, so
an earlier parse error still wins; a property path exits 2); 4 the
pattern is a cross product and ``--allow-cross-product`` was not given; 5
``bench`` verification stopped because the reference evaluation exceeded its row budget (lower
``--verify-limit`` to skip verifying that dataset). Past option parsing,
which argparse reports after a usage message, a failure prints one
``error:`` line to stderr, with any line break from the input escaped.
"""

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from .bench import (
    DEFAULT_VERIFY_LIMIT, BenchCase, BenchReport, run_bench, run_suite,
)
from .cluster import (
    DEFAULT_NODE_COUNT, DEFAULT_PARTITIONING, PARTITIONINGS, BasePartition,
    Cluster, Dataset, load_partitioned, node_count_problem,
)
from .cost import DEFAULT_PARAMS, CostParams
from .engine import (
    DEFAULT_STRATEGY, STRATEGIES, result_cell, result_lines, result_tuples, run_query,
)
from .errors import (
    CartesianProductError, ParseError, ResultSizeLimitError, UnsupportedFeatureError,
)
from .executor import trace_cost
from .explain import explain_text
from .logical import classify_shape
from .ntriples import parse_ntriples
from .sparql import parse_query_file
from .workloads import load_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_CROSS_PRODUCT = 4
EXIT_RESULT_LIMIT = 5


def _node_count(text: str) -> int:
    try:
        value: object = int(text)
    except ValueError:
        value = text
    problem = node_count_problem([value])
    if problem:
        raise argparse.ArgumentTypeError(problem)
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


def _verify_limit(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_cluster_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", "--partitions", type=_node_count, default=DEFAULT_NODE_COUNT,
                   metavar="N",
                   help=f"number of simulated nodes (default {DEFAULT_NODE_COUNT})")
    p.add_argument("--partition-key", choices=PARTITIONINGS, default=DEFAULT_PARTITIONING,
                   help="how the triple store is distributed "
                   f"(default {DEFAULT_PARTITIONING})")


def _add_planning_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGIES + ("all",),
                   default=DEFAULT_STRATEGY,
                   help=f"join strategy (default {DEFAULT_STRATEGY})")
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
    _add_planning_options(p_query)
    p_query.add_argument("--theta-acc", type=_weight, default=DEFAULT_PARAMS.theta_acc,
                         metavar="W", help="cost weight per tuple access "
                         f"(default {DEFAULT_PARAMS.theta_acc:g})")
    p_query.add_argument("--theta-comm", type=_weight, default=DEFAULT_PARAMS.theta_comm,
                         metavar="W", help="cost weight per tuple transferred "
                         f"(default {DEFAULT_PARAMS.theta_comm:g})")
    p_query.add_argument("--validate", action="store_true",
                         help="check partitioning invariants after every operator")
    p_query.add_argument("--no-header", action="store_true",
                         help="omit the TSV header row")

    p_explain = sub.add_parser("explain", help="print the plan without joining")
    p_explain.add_argument("data", help="N-Triples (.nt) file")
    p_explain.add_argument("query", help="query (.rq) file")
    _add_cluster_options(p_explain)
    _add_planning_options(p_explain)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    src = p_bench.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", metavar="SUITE.json",
                     help="workload suite file (generated datasets)")
    src.add_argument("--data", metavar="DATA.nt",
                     help="single dataset file (pair with --query)")
    p_bench.add_argument("--query", metavar="QUERY.rq",
                         help="query file for --data")
    p_bench.add_argument("-m", "--partitions", type=_node_count, nargs="+",
                         default=None, metavar="N", help="node-count grid "
                         f"(default: suite setting, else {DEFAULT_NODE_COUNT})")
    p_bench.add_argument("--partition-key", choices=PARTITIONINGS, default=None,
                         help="store distribution (default: suite setting, "
                         f"else {DEFAULT_PARTITIONING})")
    p_bench.add_argument("--strategy", choices=STRATEGIES + ("all",),
                         default=None, help="strategy or 'all' (default: suite "
                         "setting, else all)")
    p_bench.add_argument("--allow-cross-product", action="store_true",
                         help="permit disconnected patterns (--data only: "
                         "suite queries are connected, and --suite exits 2 "
                         "with this option)")
    p_bench.add_argument("--validate", action="store_true",
                         help="check partitioning invariants after every operator")
    p_bench.add_argument("--verify-limit", type=_verify_limit,
                         default=DEFAULT_VERIFY_LIMIT, metavar="N",
                         help="verify against the single-node reference when "
                         "the dataset has at most N triples, N >= 0 "
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
    # Term ids are canonical, so equal id tuples in select-list order are
    # equal term tuples.
    counts = Counter(result_tuples(results[0].relation, query.select))
    for other in results[1:]:
        if Counter(result_tuples(other.relation, query.select)) != counts:
            raise AssertionError(
                f"strategies disagree: {results[0].strategy} vs {other.strategy}")

    if not args.no_header:
        print("\t".join(v.nt() for v in query.select))
    for line in result_lines(counts):
        print(line)

    runs = []
    for result in results:
        cell = result_cell(result, partitioning=dataset.base.value, shape=shape)
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
    # Open the output first, as a shell redirect does, so a PATH that cannot
    # be written fails before the grid runs.
    with (open(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as sink:
        report = _bench_report(args)
        sink.write(report.render(args.report))
    if args.out:
        print(f"wrote {args.report} report to {args.out} "
              f"({len(report.cells)} cells)")
    return EXIT_OK


def _bench_report(args: argparse.Namespace) -> BenchReport:
    strategies = None if args.strategy is None else (
        STRATEGIES if args.strategy == "all" else (args.strategy,))
    if args.suite:
        if args.allow_cross_product:
            raise ParseError("--allow-cross-product applies to --data only; "
                             "suite queries are connected")
        suite = load_suite(args.suite)
        suite = dataclasses.replace(
            suite, m=tuple(args.partitions) if args.partitions else suite.m,
            strategies=strategies or suite.strategies,
            partitioning=args.partition_key or suite.partitioning)
        return run_suite(suite, include_wall=not args.no_wall_time,
                         validate=args.validate, verify_limit=args.verify_limit)
    if not args.query:
        raise ParseError("--data needs --query")
    text = Path(args.data).read_text(encoding="utf-8")
    triples = parse_ntriples(text, source=args.data)
    query, meta = parse_query_file(args.query)
    case = BenchCase(name=Path(args.data).stem,
                     query_name=meta.get("label", Path(args.query).stem),
                     triples=triples, query=query)
    return run_bench(
        [case], ms=tuple(args.partitions or (DEFAULT_NODE_COUNT,)),
        strategies=strategies or STRATEGIES,
        partitioning=args.partition_key or DEFAULT_PARTITIONING,
        include_wall=not args.no_wall_time,
        allow_cross=args.allow_cross_product, validate=args.validate,
        verify_limit=args.verify_limit, suite_name="adhoc")


_COMMANDS = {
    "load": _cmd_load,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
}


# The characters str.splitlines breaks on, each written as its escape, so
# that every error is one line whatever the input held.
_LINE_BREAKS = {ord(c): c.encode("unicode_escape").decode("ascii")
                for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _error(message: str, code: int) -> int:
    print("error: " + message.translate(_LINE_BREAKS), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        return _error(f"no such file: {exc.filename or exc}", EXIT_INPUT)
    except OSError as exc:
        if exc.filename is None:
            raise
        return _error(f"cannot open {exc.filename}: {exc.strerror}", EXIT_INPUT)
    except UnicodeDecodeError as exc:
        return _error(f"input is not UTF-8: {exc}", EXIT_INPUT)
    except ParseError as exc:
        return _error(str(exc), EXIT_INPUT)
    except UnsupportedFeatureError as exc:
        return _error(str(exc), EXIT_UNSUPPORTED)
    except CartesianProductError as exc:
        return _error(str(exc), EXIT_CROSS_PRODUCT)
    except ResultSizeLimitError as exc:
        return _error(f"{exc}; lower --verify-limit to skip verification",
                      EXIT_RESULT_LIMIT)


if __name__ == "__main__":
    sys.exit(main())
