"""sparqlsim benchmark: seeded workloads, host time and modeled cost.

Run from the repository root:

    python3 perfbench/run.py --workload snowflake-q8 --seed 0 --seconds 24 --trace 0

``--workload all`` (the default) runs every workload in turn. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric a value and a unit); the lines
before it list the same metrics as a table. Metric names and units are
those declared in ``BENCHMARK.json`` at the repository root.

One run generates the workload's datasets from the seed, writes them as
N-Triples and query files in a scratch directory inside the checkout, and
evaluates them once in generator order to get the reference ledgers and
results. Everything measured then happens in fresh processes that only read
those files (see ``worker.py``):

* one measurement process: cold set-up, a validated warm-up of each
  strategy, warm repetitions, reference verification, peak RSS;
* set-up-only processes, for the median cold set-up time;
* the workload's command-line call, as a user would type it.

With ``--trace 1`` the measurement process records spans around the
program's layers and the run reports per-layer numbers instead of the
end-to-end ones. Why each workload exists is in ``README.md`` beside this
file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0
# Cold set-up and command-line samples per run, at least. Command-line
# samples then continue until the run's time is up.
MIN_COLD = 5
MIN_CLI = 3
# Every measured process runs with this string-hash seed. The program's
# times depend on it: with a fresh random seed per process, the bench
# command on the 15-branch star took 1.4 to 2.6 s for the same input. A
# fixed seed makes runs compare like with like.
HASH_SEED = "0"


class RunError(Exception):
    """The benchmark itself could not complete a run."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


class Run:
    """One workload at one seed."""

    def __init__(self, workload, seed: int, seconds: int, trace: int,
                 started: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = started
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def child(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run a child process to completion and time it from the parent."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 1.0:
            raise RunError("out of time before starting a child process")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
        begun = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{argv[1:3]} did not finish in time") from exc
        return time.perf_counter() - begun, proc

    def worker(self, job: dict) -> dict:
        path = self.dir / f"job-{job['mode']}.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        _, proc = self.child([sys.executable, str(HERE / "worker.py"), str(path)])
        if proc.returncode != 0:
            raise RunError(f"worker ({job['mode']}) exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # -- inputs -------------------------------------------------------------

    def prepare(self) -> None:
        """Write the seeded files and compute the generator-order reference:
        per (dataset, m, strategy) the ledger totals and the result digest."""
        from sparqlsim import (
            BasePartition, Cluster, generate, load_partitioned, run_strategy,
            serialize_ntriples, serialize_query,
        )
        from specs import STRATEGIES, digest, permuted, row_lines

        self.dir.mkdir(parents=True)
        self.entries = {}
        self.reference = {}
        for spec in self.workload.data + self.workload.verify:
            if spec.label in self.entries:
                continue
            workload = generate(spec.generator_spec())
            nt = self.dir / f"{spec.label}.nt"
            rq = self.dir / f"{spec.label}.rq"
            nt.write_text(serialize_ntriples(permuted(workload.triples, spec.label,
                                                      self.seed)),
                          encoding="utf-8")
            rq.write_text(serialize_query(workload.query), encoding="utf-8")
            self.entries[spec.label] = {
                "label": spec.label, "nt": str(nt), "rq": str(rq),
                "ms": list(spec.ms), "expected_rows": spec.expected_rows}
            if spec not in self.workload.data:
                continue
            for m in spec.ms:
                cluster = Cluster(m)
                dataset = load_partitioned(workload.triples, cluster,
                                           BasePartition.SUBJECT)
                for strategy in STRATEGIES:
                    result = run_strategy(strategy, workload.query, dataset,
                                          cluster)
                    self.reference[f"{spec.label}/{m}/{strategy}"] = {
                        "ledger": result.ledger.totals(),
                        "rows": result.result_count,
                        "digest": digest(row_lines(result.relation,
                                                   workload.query.select)),
                    }

    def data_entries(self) -> list[dict]:
        return [self.entries[s.label] for s in self.workload.data]

    # -- checks -------------------------------------------------------------

    def check_runs(self, runs: dict) -> None:
        """The measured process's results must equal the generator-order
        reference: the seed permutes the files, nothing else."""
        for key, want in self.reference.items():
            got = runs.get(key)
            if got is None:
                self.fail(f"{key}: no result from the measurement process")
            elif got != want:
                self.fail(f"{key}: seeded input gave {got['rows']} rows, ledger "
                          f"{got['ledger']}; generator order gave "
                          f"{want['rows']} rows, ledger {want['ledger']}"
                          + ("" if got["digest"] == want["digest"]
                             else " (result rows differ)"))

    def check_query_cli(self, entry: dict, proc) -> None:
        from specs import digest
        self.attempted += 1
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or len(lines) < 2:
            self.fail(f"query CLI exited with {proc.returncode}: {proc.stderr[-500:]}")
            return
        m = entry["ms"][0]
        want = self.reference[f"{entry['label']}/{m}/hybrid"]
        summary = json.loads(lines[-1])
        run = summary["runs"][0]
        ledger = {k: run[k] for k in want["ledger"]}
        problems = []
        if digest(sorted(lines[1:-1])) != want["digest"]:
            problems.append("printed rows differ from the reference")
        if summary["result_count"] != entry["expected_rows"]:
            problems.append(f"result_count {summary['result_count']}")
        if ledger != want["ledger"] or run["strategy"] != "hybrid":
            problems.append(f"ledger {ledger}")
        if problems:
            self.fail("query CLI: " + "; ".join(problems))

    def check_bench_cli(self, entry: dict, proc) -> None:
        from specs import STRATEGIES
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(f"bench CLI exited with {proc.returncode}: {proc.stderr[-500:]}")
            return
        cells = json.loads(proc.stdout)["cells"]
        problems = []
        if len(cells) != len(entry["ms"]) * len(STRATEGIES):
            problems.append(f"{len(cells)} cells")
        for cell in cells:
            want = self.reference[f"{entry['label']}/{cell['m']}/{cell['strategy']}"]
            ledger = {k: cell[k] for k in want["ledger"]}
            if (cell["status"] != "verified" or ledger != want["ledger"]
                    or cell["result_count"] != entry["expected_rows"]):
                problems.append(f"m={cell['m']}/{cell['strategy']}: {cell['status']}, "
                                f"{cell['result_count']} rows, ledger {ledger}")
        if problems:
            self.fail(f"bench CLI on {entry['label']}: " + "; ".join(problems))

    # -- measurement ----------------------------------------------------------

    def cli_sample(self, clock) -> float:
        """Wall time of the workload's command, as a user types it, in
        reference seconds (calibrated in this process around each call)."""
        total = 0.0
        for entry in self.data_entries():
            ms = [str(m) for m in entry["ms"]]
            if self.workload.cli == "query":
                argv = ["query", entry["nt"], entry["rq"], "-m", *ms]
            else:
                argv = ["bench", "--data", entry["nt"], "--query", entry["rq"],
                        "-m", *ms, "--no-wall-time"]
            seconds, proc = self.child([sys.executable, "-m", "sparqlsim.cli", *argv])
            total += seconds * clock.factor()
            if self.workload.cli == "query":
                self.check_query_cli(entry, proc)
            else:
                self.check_bench_cli(entry, proc)
        return total

    def measure(self) -> dict:
        from specs import ReferenceClock

        began = time.perf_counter()
        self.prepare()
        budget_start = time.perf_counter()
        job = {
            "mode": "measure", "trace": self.trace, "seconds": self.seconds,
            "data": self.data_entries(),
            "verify": [self.entries[s.label] for s in self.workload.verify],
        }
        measured = self.worker(job)
        cold_start = time.perf_counter()
        self.attempted += measured["attempted"]
        self.failed += measured["failed"]
        self.errors.extend(measured["errors"])
        self.check_runs(measured["runs"])

        setups = [measured]
        cli = []
        clock = ReferenceClock()
        deadline = budget_start + self.seconds
        while len(setups) < MIN_COLD:
            setups.append(self.worker({"mode": "setup",
                                       "data": self.data_entries()}))
        while not self.trace and (len(cli) < MIN_CLI
                                  or time.perf_counter() < deadline):
            clock.recalibrate()
            cli.append(self.cli_sample(clock))
        self.phases = (f"prepare {budget_start - began:.1f} s, measurement "
                       f"process {cold_start - budget_start:.1f} s "
                       f"({measured.get('rounds', '-')} rounds, "
                       f"{measured.get('verify_passes', '-')} verify passes), "
                       f"{len(setups) - 1} set-ups and {len(cli)} command "
                       f"lines "
                       f"{time.perf_counter() - cold_start:.1f} s")

        if self.trace:
            parse_s = statistics.median(s["parse_s"] for s in setups)
            metrics = dict(measured["layers"])
            metrics["ntriples.parse_s"] = parse_s
            metrics["ntriples.triples_per_s"] = measured["triples"] / parse_s
            metrics["cluster.load_s"] = statistics.median(s["load_s"] for s in setups)
            return metrics

        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "cli_s": statistics.median(cli),
            "verify_s": measured["verify_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "scanned_tuples.hybrid": measured["modeled"]["hybrid"]["scanned"],
        }
        for strategy, seconds in measured["query_s"].items():
            metrics[f"query_s.{strategy}"] = seconds
        for strategy, ledger in measured["modeled"].items():
            metrics[f"cost_total.{strategy}"] = (
                ledger["scanned"] + ledger["shuffled_modeled"] + ledger["broadcast"])
        return metrics

    def execute(self) -> dict:
        try:
            return self.measure()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:     # another run still uses it
                pass


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "sparqlsim" / "__init__.py").is_file():
        print(f"error: no sparqlsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from specs import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r} (expected all or one "
              f"of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)

    attempted = failed = 0
    combined = {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds, args.trace,
                  started if len(names) == 1 else time.perf_counter())
        try:
            metrics = run.execute()
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: {run.phases}", file=sys.stderr)
        for message in run.errors:
            print(f"FAILED {name}: {message}", file=sys.stderr)
        if set(metrics) != set(units):
            print(f"error: {name}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += run.failed
        for metric in units:
            print(f"{name:14} {metric:40} {metrics[metric]:>16.6g} {units[metric]}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            combined[key] = {"value": metrics[metric], "unit": units[metric]}

    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
