"""The measured process of the benchmark: a fresh interpreter per call.

``worker.py JOB.json`` reads a job written by ``run.py`` and prints one JSON
object. With ``"mode": "setup"`` it only parses and loads the workload's
files, cold, and reports the time. With ``"mode": "measure"`` it then runs
every strategy once with placement validation (untimed warm-up), times
repeated warm runs until the job's deadline, times the reference
evaluation of the verification datasets, and reports its peak RSS. With
``"trace": 1`` it also records spans around the program's layers and
reports per-layer numbers instead.

This process never generates data: generation would warm the program's
term intern tables and add to the peak RSS.
"""

import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from specs import (
    BRJOIN_USERS, PJOIN_USERS, STATIC, STRATEGIES, ReferenceClock, digest,
    ledger_problems, row_lines,
)
from sparqlsim import (
    BasePartition, BenchCase, Cluster, Dataset, Query, as_multiset,
    load_partitioned, oracle_eval, parse_ntriples, parse_query, run_bench,
    run_strategy, sorted_result_rows, trace_cost,
)

# A timed section repeats a strategy until it has run this long, so that
# fast strategies are measured over as much machine time as slow ones.
SECTION_S = 0.2
# The warm part of a measurement takes MEASURE_SHARE of ``--seconds``: timed
# verification passes for the first VERIFY_SHARE, then rounds of timed
# sections. Each runs at least its minimum number of times.
MEASURE_SHARE = 0.5
VERIFY_SHARE = 0.1
MIN_VERIFY = 4
MIN_ROUNDS = 4
MIN_TRACED_ROUNDS = 2
# Calls per figure of the traced run's single-call layers (row sorting,
# trace costing); their median is reported.
CALL_REPEATS = 5


@dataclass
class Cell:
    """One (dataset, node count) pair the strategies run on."""

    label: str
    m: int
    expected_rows: int
    query: Query
    dataset: Dataset
    cluster: Cluster


def read_files(entries: list[dict]):
    """Parse each entry's .nt and .rq files. Returns per-entry
    (entry, triples, query) and the time spent in ``parse_ntriples``."""
    parsed = []
    parse_s = 0.0
    for entry in entries:
        text = Path(entry["nt"]).read_text(encoding="utf-8")
        started = time.perf_counter()
        triples = parse_ntriples(text, source=entry["nt"])
        parse_s += time.perf_counter() - started
        query = parse_query(Path(entry["rq"]).read_text(encoding="utf-8"),
                            source=entry["rq"])
        parsed.append((entry, triples, query))
    return parsed, parse_s


def load_cells(parsed) -> tuple[list[Cell], float]:
    cells = []
    load_s = 0.0
    for entry, triples, query in parsed:
        for m in entry["ms"]:
            started = time.perf_counter()
            cluster = Cluster(m)
            dataset = load_partitioned(triples, cluster, BasePartition.SUBJECT)
            load_s += time.perf_counter() - started
            cells.append(Cell(entry["label"], m, entry["expected_rows"],
                              query, dataset, cluster))
    return cells, load_s


class Checker:
    """Counts operations and failures. The validated warm-up of a cell fails
    if its placement checks fail, if its row count differs from the closed
    form or its result from the other strategies', or if its ledger fails
    :func:`ledger_problems`. A timed repetition fails unless its ledger
    repeats the validated one exactly; the last repetition of each timed
    section must also repeat the validated result and pass
    :func:`ledger_problems`. Any other exception from the program ends the
    process: a run that cannot finish has no numbers to report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[tuple[int, str], tuple] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def validated(self, cells: list[Cell]) -> dict:
        """Run every strategy once per cell with placement validation and
        fix the per-cell references. Returns the report for the runner."""
        report = {}
        for ci, cell in enumerate(cells):
            baseline = None
            for strategy in STRATEGIES:
                self.attempted += 1
                problems = []
                try:
                    result = run_strategy(strategy, cell.query, cell.dataset,
                                          cell.cluster, validate=True)
                except AssertionError as exc:   # a placement check failed
                    problems.append(f"validation: {exc}")
                    result = run_strategy(strategy, cell.query, cell.dataset,
                                          cell.cluster)
                rows = as_multiset(result.relation.rows())
                problems += ledger_problems(result, cell.m)
                if result.result_count != cell.expected_rows:
                    problems.append(f"{result.result_count} rows, expected "
                                    f"{cell.expected_rows}")
                if baseline is not None and rows != baseline:
                    problems.append("result differs from pjoin")
                baseline = baseline if baseline is not None else rows
                if problems:
                    self.fail(f"{cell.label}/m={cell.m}/{strategy}: "
                              + "; ".join(problems))
                self.reference[ci, strategy] = (rows, result.ledger.totals())
                report[f"{cell.label}/{cell.m}/{strategy}"] = {
                    "ledger": result.ledger.totals(),
                    "rows": result.result_count,
                    "digest": digest(row_lines(result.relation,
                                               cell.query.select)),
                }
        return report

    def check_section(self, cells: list[Cell], strategy: str,
                      section: "Section") -> None:
        """One operation per cell and repetition of a timed section."""
        for ci, cell in enumerate(cells):
            rows, totals = self.reference[ci, strategy]
            where = f"{cell.label}/m={cell.m}/{strategy}"
            for n, ledgers in enumerate(section.ledgers, 1):
                self.attempted += 1
                if ledgers[ci] != totals:
                    self.fail(f"{where}: ledger of repetition {n} differs "
                              f"from the validated run")
            result = section.results[ci]
            problems = ledger_problems(result, cell.m)
            if as_multiset(result.relation.rows()) != rows:
                problems.append("result of the last repetition differs from "
                                "the validated run")
            if problems:
                self.fail(f"{where}: " + "; ".join(problems))


@dataclass
class Section:
    """One timed section: the mean time of one run over every cell, in
    reference seconds, the ledger totals of every repetition, and the
    results of the last repetition."""

    seconds: float
    ledgers: list[list[dict]]
    results: list


def run_all(strategy: str, cells: list[Cell], clock: ReferenceClock) -> Section:
    """Repeat ``strategy`` over every cell for at least ``SECTION_S`` of
    timed work. Between repetitions, untimed, each ledger's totals are kept
    and the results dropped, so that they do not add to the heap the
    garbage collector walks."""
    gc.collect()
    ledgers = []
    elapsed = 0.0
    while True:
        started = time.perf_counter()
        results = [run_strategy(strategy, c.query, c.dataset, c.cluster)
                   for c in cells]
        elapsed += time.perf_counter() - started
        ledgers.append([r.ledger.totals() for r in results])
        if elapsed >= SECTION_S:
            return Section(elapsed / len(ledgers) * clock.factor(), ledgers,
                           results)


def rounds(deadline: float, minimum: int):
    """Round numbers until the deadline has passed and at least
    ``minimum`` rounds ran."""
    n = 0
    while n < minimum or time.perf_counter() < deadline:
        yield n
        n += 1


def rotated(n: int) -> tuple[str, ...]:
    """Strategy order for round ``n``, rotated so no strategy always runs
    right after the slowest one."""
    k = n % len(STRATEGIES)
    return STRATEGIES[k:] + STRATEGIES[:k]


def verify_inputs(job: dict, parsed_data) -> list:
    """(entry, triples, query) of each verification dataset, reusing the
    parsed measurement data where a dataset is verified directly."""
    by_path = {entry["nt"]: (triples, query) for entry, triples, query in parsed_data}
    out = []
    for entry in job["verify"]:
        if entry["nt"] in by_path:
            triples, query = by_path[entry["nt"]]
        else:
            ([(_, triples, query)], _) = read_files([entry])
        out.append((entry, triples, query))
    return out


def bench_verify(verify, checker: Checker) -> list:
    """One pass of the program's own bench runner over the verification
    datasets. It compares every strategy's result with the oracle and
    raises on a difference; each cell must also be marked verified and
    have the closed-form row count. Returns the reports."""
    reports = []
    for entry, triples, query in verify:
        checker.attempted += len(entry["ms"]) * len(STRATEGIES)
        try:
            report = run_bench([BenchCase(entry["label"], "q", triples, query)],
                               ms=tuple(entry["ms"]), include_wall=False)
        except AssertionError as exc:
            checker.fail(f"{entry['label']}: {exc}")
            continue
        for cell in report.cells:
            if (cell["status"] != "verified"
                    or cell["result_count"] != entry["expected_rows"]):
                checker.fail(f"{entry['label']}/m={cell['m']}/{cell['strategy']}: "
                             f"{cell['status']}, {cell['result_count']} rows, "
                             f"expected {entry['expected_rows']}")
        reports.append(report)
    return reports


def verify_untraced(job: dict, parsed_data, checker: Checker,
                    deadline: float) -> list[float]:
    """Check the strategies against the oracle once, then time the
    reference evaluation (oracle plus multiset) of every verification
    dataset until the deadline."""
    verify = verify_inputs(job, parsed_data)
    bench_verify(verify, checker)
    samples = []
    clock = ReferenceClock()
    for _ in rounds(deadline, MIN_VERIFY):
        gc.collect()
        started = time.perf_counter()
        for _, triples, query in verify:
            as_multiset(oracle_eval(query.patterns, triples, select=query.select))
        samples.append((time.perf_counter() - started) * clock.factor())
    return samples


def layer_metrics(strategy: str, summary, cells: list[Cell], results) -> dict:
    """Per-layer numbers of one traced run of ``strategy`` over all cells."""
    sfx = "." + strategy
    ledgers = [r.ledger for r in results]
    out = {
        "ops.local_join_s" + sfx: summary.dur("local_nary_join"),
        "ops.local_join_rows_out" + sfx: summary.join_rows,
        "ops.project_s" + sfx: summary.dur("project"),
        "ops.node_rows_skew" + sfx: summary.skew,
        "cluster.transfer_tuples" + sfx: sum(lg.total_transfer for lg in ledgers),
    }
    if strategy in STATIC:
        out["ops.selection_s" + sfx] = summary.dur("triple_selection")
        out["physical.plan_s" + sfx] = summary.dur(
            "build_logical", "plan_pjoin_strategy", "plan_mono_brjoin",
            "plan_multi_brjoin")
        out["executor.self_s" + sfx] = summary.own("execute_plan")
    if strategy in PJOIN_USERS:
        modeled = sum(lg.shuffled_tuples_modeled for lg in ledgers)
        actual = sum(lg.shuffled_tuples_actual for lg in ledgers)
        out["cluster.shuffle_s" + sfx] = summary.dur("shuffle")
        out["cluster.shuffle_moved_ratio" + sfx] = actual / modeled if modeled else 0.0
        out["ops.pjoin_self_s" + sfx] = summary.own("pjoin")
    if strategy in BRJOIN_USERS:
        out["cluster.broadcast_s" + sfx] = summary.dur("broadcast")
        out["cluster.broadcast_copies" + sfx] = sum(lg.broadcast_tuples for lg in ledgers)
        out["ops.brjoin_self_s" + sfx] = summary.own("brjoin")
    if strategy == "hybrid":
        merged = [e for r in results for e in r.trace.entries
                  if e.kind == "merged-selection"]
        store = sum(e.dataset_size for e in merged)
        out["ops.merged_selection_s.hybrid"] = summary.dur("merged_selection")
        out["ops.merged_subset_ratio.hybrid"] = (
            sum(e.subset_size for e in merged) / store if store else 0.0)
        out["hybrid.self_s"] = summary.own("plan_and_execute_hybrid")
        out["hybrid.evaluations"] = sum(r.evaluations for r in results)
    return out


def timed_calls(fn, clock: ReferenceClock) -> float:
    """Median time of ``CALL_REPEATS`` calls of ``fn``, in reference seconds."""
    samples = []
    for _ in range(CALL_REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * clock.factor()


def verify_traced(job: dict, parsed_data, checker: Checker) -> dict:
    """One pass of the program's own bench runner over the verification
    datasets, with spans on its oracle and strategy calls, then a JSON
    render of its report."""
    from tracer import Tracer, summarize

    verify = verify_inputs(job, parsed_data)
    clock = ReferenceClock()
    gc.collect()
    tracer = Tracer()
    with tracer, tracer.span("verify"):
        reports = bench_verify(verify, checker)
        with tracer.span("render"):
            for report in reports:
                report.render("json")
    summary = summarize(tracer.spans, clock.factor())
    return {"oracle.eval_s": summary.dur("oracle_eval"),
            "bench.render_s": summary.dur("render")}


def traced_measurement(cells: list[Cell], checker: Checker,
                       deadline: float) -> dict:
    """Alternate untraced and traced runs of each strategy; report the
    median of every per-layer number and the tracing overhead."""
    from tracer import Tracer, summarize

    untraced = {s: [] for s in STRATEGIES}
    traced = {s: [] for s in STRATEGIES}
    layers: dict[str, list[float]] = {}
    last = {}
    clock = ReferenceClock()
    for n in rounds(deadline, MIN_TRACED_ROUNDS):
        for strategy in rotated(n):
            section = run_all(strategy, cells, clock)
            untraced[strategy].append(section.seconds)
            gc.collect()
            tracer = Tracer()
            with tracer, tracer.span("query"):
                results = [run_strategy(strategy, c.query, c.dataset, c.cluster)
                           for c in cells]
            summary = summarize(tracer.spans, clock.factor())
            traced[strategy].append(summary.dur("query"))
            checker.check_section(cells, strategy, section)
            checker.check_section(cells, strategy, Section(
                0.0, [[r.ledger.totals() for r in results]], results))
            for name, value in layer_metrics(strategy, summary, cells,
                                             results).items():
                layers.setdefault(name, []).append(value)
            last[strategy] = results

    out = {name: statistics.median(v) for name, v in layers.items()}
    out["trace.overhead_ratio"] = (
        sum(statistics.median(v) for v in traced.values())
        / sum(statistics.median(v) for v in untraced.values()))
    out["engine.sort_rows_s"] = sum(
        timed_calls(lambda c=c, r=r: sorted_result_rows(r.relation, c.query.select),
                    clock)
        for c, r in zip(cells, last["hybrid"]))
    out["executor.trace_cost_s"] = sum(
        timed_calls(lambda c=c, r=r: trace_cost(r.trace, c.m), clock)
        for s in STRATEGIES for c, r in zip(cells, last[s]))
    return {"layers": out,
            "query_s": {s: statistics.median(v) for s, v in untraced.items()}}


def modeled_counts(cells: list[Cell], report: dict) -> dict:
    """Ledger totals per strategy, summed over cells."""
    out = {}
    for strategy in STRATEGIES:
        total = {"scanned": 0, "shuffled_modeled": 0, "shuffled_actual": 0,
                 "broadcast": 0}
        for cell in cells:
            ledger = report[f"{cell.label}/{cell.m}/{strategy}"]["ledger"]
            for key in total:
                total[key] += ledger[key]
        out[strategy] = total
    return out


def cold_setup_times(t0: float, parse_s: float, load_s: float) -> dict:
    """Set-up, parse and load times in reference seconds. The calibration
    runs only after set-up, so that set-up stays cold; it takes the median
    of three loops, as every other section does."""
    seconds = time.perf_counter() - t0
    clock = ReferenceClock()
    clock.recalibrate()
    scale = clock.factor()
    return {"setup_s": seconds * scale, "parse_s": parse_s * scale,
            "load_s": load_s * scale}


def measure(job: dict, t0: float) -> dict:
    parsed, parse_s = read_files(job["data"])
    cells, load_s = load_cells(parsed)
    setup = cold_setup_times(t0, parse_s, load_s)
    checker = Checker()
    report = checker.validated(cells)

    # Verification first, for at least its minimum number of passes; the
    # warm repetitions then fill the rest of the measurement time.
    started = time.perf_counter()
    deadline = started + MEASURE_SHARE * job["seconds"]
    if job["trace"]:
        verified = verify_traced(job, parsed, checker)
        out = traced_measurement(cells, checker, deadline)
        out["layers"].update(verified)
    else:
        verify = verify_untraced(job, parsed, checker,
                                 started + VERIFY_SHARE * job["seconds"])
        samples = {s: [] for s in STRATEGIES}
        clock = ReferenceClock()
        for n in rounds(deadline, MIN_ROUNDS):
            for strategy in rotated(n):
                section = run_all(strategy, cells, clock)
                samples[strategy].append(section.seconds)
                checker.check_section(cells, strategy, section)
        out = {"query_s": {s: statistics.median(v) for s, v in samples.items()},
               "verify_s": statistics.median(verify),
               "rounds": len(samples[STRATEGIES[0]]),
               "verify_passes": len(verify)}
    out.update(setup)
    out.update({
        "triples": sum(len(t) for _, t, _ in parsed),
        "runs": report, "modeled": modeled_counts(cells, report),
        "attempted": checker.attempted, "failed": checker.failed,
        "errors": checker.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return out


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if job["mode"] == "setup":
        parsed, parse_s = read_files(job["data"])
        _, load_s = load_cells(parsed)
        out = cold_setup_times(t0, parse_s, load_s)
    else:
        out = measure(job, t0)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
