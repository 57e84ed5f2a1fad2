"""Benchmark grid runner with JSON/CSV reports.

A bench run takes cases (dataset + query), a node-count grid, and a strategy
list, and produces one report cell per (case, m, strategy) with result size,
the four ledger counters, the executed plan, and optionally wall time.
Results are verified against the single-node reference evaluator whenever
the dataset is small enough; a mismatch aborts the run, since the data is
self-generated and disagreement means an engine defect.

Reports are deterministic: cells come out in grid order and JSON keys are
sorted. With wall timing disabled, two runs of the same grid produce
byte-identical bytes.
"""

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .cluster import (
    DEFAULT_NODE_COUNT, DEFAULT_PARTITIONING, BasePartition, Cluster,
    load_partitioned,
)
from .engine import STRATEGIES, result_cell, result_tuples, run_strategy
from .logical import classify_shape
from .oracle import oracle_eval
from .sparql import Query
from .terms import Triple
from .workloads import Suite, generate

DEFAULT_VERIFY_LIMIT = 20_000

CSV_COLUMNS = ("dataset", "query", "shape", "strategy", "m", "partitioning",
               "result_count", "scanned", "shuffled_modeled", "shuffled_actual",
               "broadcast", "wall_ms", "plan", "status")


@dataclass(frozen=True, slots=True)
class BenchCase:
    name: str
    query_name: str
    triples: list[Triple]
    query: Query


@dataclass(frozen=True, slots=True)
class BenchReport:
    suite: str
    partitioning: str
    cells: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "partitioning": self.partitioning,
            "cells": self.cells,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for cell in self.cells:
            writer.writerow({col: cell.get(col, "") for col in CSV_COLUMNS})
        return out.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")


def cases_from_suite(suite: Suite) -> list[BenchCase]:
    cases = []
    for spec in suite.workloads:
        workload = generate(spec)
        cases.append(BenchCase(name=spec.name, query_name=spec.shape,
                               triples=workload.triples, query=workload.query))
    return cases


def run_bench(cases: Sequence[BenchCase], *, ms: Sequence[int] = (DEFAULT_NODE_COUNT,),
              strategies: Sequence[str] = STRATEGIES,
              partitioning: str = DEFAULT_PARTITIONING,
              include_wall: bool = True, allow_cross: bool = False,
              validate: bool = False, verify_limit: int = DEFAULT_VERIFY_LIMIT,
              suite_name: str = "adhoc") -> BenchReport:
    base = BasePartition(partitioning)
    report = BenchReport(suite=suite_name, partitioning=partitioning)
    for case in cases:
        shape = classify_shape(case.query.patterns)
        select = case.query.select
        expected = None
        if len(case.triples) <= verify_limit:
            # Encoded once per case to the id tuples every cell is read as.
            expected = Counter(tuple([row.get(v).id for v in select]) for row in
                               oracle_eval(case.query.patterns, case.triples, select=select))
        for m in ms:
            cluster = Cluster(m)
            dataset = load_partitioned(case.triples, cluster, base)
            for strategy in strategies:
                result = run_strategy(strategy, case.query, dataset, cluster,
                                      allow_cross=allow_cross, validate=validate)
                status = "ok"
                if expected is not None:
                    got = Counter(result_tuples(result.relation, select))
                    if got != expected:
                        raise AssertionError(
                            f"{case.name}/{strategy}/m={m}: result disagrees with "
                            f"reference evaluation ({sum(got.values())} rows vs "
                            f"{sum(expected.values())})")
                    status = "verified"
                cell = result_cell(result, partitioning=partitioning, shape=shape,
                                   include_wall=include_wall)
                cell["dataset"] = case.name
                cell["query"] = case.query_name
                cell["status"] = status
                report.cells.append(cell)
    return report


def run_suite(suite: Suite, *, include_wall: bool = True,
              validate: bool = False,
              verify_limit: int = DEFAULT_VERIFY_LIMIT) -> BenchReport:
    return run_bench(
        cases_from_suite(suite), ms=suite.m, strategies=suite.strategies,
        partitioning=suite.partitioning, include_wall=include_wall,
        validate=validate, verify_limit=verify_limit, suite_name=suite.name)
