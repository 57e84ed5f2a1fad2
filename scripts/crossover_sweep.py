#!/usr/bin/env python3
"""Map the repartition-vs-broadcast decision boundary for a two-input join.

For two randomly placed inputs of sizes S (small) and R·S (large) on m nodes,
repartitioning moves S+R·S tuples while broadcasting the small side moves
(m-1)·S, so repartitioning wins exactly when m >= R+2 (ties included) and
broadcasting wins below that. The sweep prints one
row per size ratio with a P/B cell per node count; with --execute each grid
point is also run through the adaptive planner on synthesized relations and
the executed choice is checked against the analytic rule.

Usage: python3 scripts/crossover_sweep.py [--ratios 1..12] [--ms 2,3,...]
       [--small 50] [--execute]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparqlsim import (  # noqa: E402
    BasePartition, Cluster, crossover_prefers_pjoin, generate_for_query,
    load_partitioned, parse_query, plan_and_execute_hybrid, render_plan,
    TransferLedger,
)

QUERY = parse_query(
    "SELECT ?a ?x ?b WHERE { ?a <http://example.org/gen/sweep/p1> ?x . "
    "?x <http://example.org/gen/sweep/p2> ?b . }")


def parse_ints(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def executed_choice(small: int, ratio: int, m: int) -> str:
    """Run the two-pattern join and report which operator opened the plan."""
    matches = small  # every small-side row joins; the large side adds dead rows
    noise = [0, (ratio - 1) * small] if ratio >= 1 else [0, 0]
    triples = generate_for_query(QUERY, solutions=matches, seed=1, noise=noise)
    cluster = Cluster(m)
    # Random placement keeps both inputs unkeyed, as the analytic rule assumes.
    dataset = load_partitioned(triples, cluster, BasePartition.RANDOM)
    run = plan_and_execute_hybrid(QUERY.patterns, dataset, cluster,
                                  TransferLedger())
    return "P" if render_plan(run.plan.root).startswith("Pjoin") else "B"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ratios", default="1..12",
                        help="large/small size ratios, 'lo..hi' or comma list")
    parser.add_argument("--ms", default="2,3,4,6,8,12,16",
                        help="node counts, comma list")
    parser.add_argument("--small", type=int, default=50,
                        help="small-side tuple count (default 50)")
    parser.add_argument("--execute", action="store_true",
                        help="verify each cell against an executed plan")
    args = parser.parse_args()

    ratios = parse_ints(args.ratios)
    ms = parse_ints(args.ms)
    small = args.small

    header = "ratio".rjust(6) + "  " + "  ".join(f"m={m}".rjust(5) for m in ms)
    print(header)
    print("-" * len(header))
    mismatches = 0
    for ratio in ratios:
        cells = []
        for m in ms:
            analytic = "P" if crossover_prefers_pjoin(small, ratio * small, m) else "B"
            if args.execute:
                executed = executed_choice(small, ratio, m)
                if executed != analytic:
                    mismatches += 1
                    analytic = f"{analytic}!{executed}"
            cells.append(analytic.rjust(5))
        print(str(ratio).rjust(6) + "  " + "  ".join(cells))
    print("\nP = repartition both inputs, B = broadcast the small input")
    print("boundary: repartition wins once m >= ratio + 2 "
          "(ties keep the repartition plan)")
    if args.execute:
        print(f"executed plans matched the analytic rule in all cells"
              if mismatches == 0 else f"MISMATCHES: {mismatches}")
        return 1 if mismatches else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
