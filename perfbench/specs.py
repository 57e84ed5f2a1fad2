"""Workload definitions and the checks shared by the runner and the worker.

Each workload is a list of datasets, each with the node counts it runs at,
plus a list of verification datasets small enough for the single-node
reference evaluator (the oracle is quadratic in the store size). The data
comes from the program's own generators; the benchmark seed only permutes
the triple order of the files it writes, since the star, chain and
snowflake generators ignore ``WorkloadSpec.seed``. Every ledger counter and
result multiset must therefore be the same for every seed.
"""

import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass

from sparqlsim import WorkloadSpec, trace_cost

STRATEGIES = ("pjoin", "mono-br", "multi-br", "hybrid")

# Strategy-suffixed per-layer metrics exist only for the strategies that can
# reach the layer: static strategies never run a merged scan, broadcast-only
# strategies never shuffle, and so on.
PJOIN_USERS = ("pjoin", "hybrid")
BRJOIN_USERS = ("mono-br", "multi-br", "hybrid")
STATIC = ("pjoin", "mono-br", "multi-br")


@dataclass(frozen=True)
class DataSpec:
    """One generated dataset and the node counts it is loaded at."""

    label: str
    shape: str
    pattern_count: int
    subject_count: int
    ms: tuple[int, ...]
    filler: int = 0

    def generator_spec(self) -> WorkloadSpec:
        return WorkloadSpec(name=self.label, shape=self.shape,
                            pattern_count=self.pattern_count,
                            subject_count=self.subject_count,
                            filler=self.filler)

    @property
    def expected_rows(self) -> int:
        """Result size from the generator's layout arithmetic alone."""
        if self.shape == "snowflake":
            return snowflake_rows(self.subject_count)
        # chain: one full path per subject; star: one triple per branch
        return self.subject_count


@dataclass(frozen=True)
class Workload:
    name: str
    data: tuple[DataSpec, ...]
    verify: tuple[DataSpec, ...]
    cli: str                      # "query" or "bench"


def snowflake_rows(students: int) -> int:
    """Rows of the university query: students of the five departments of
    university0 (every 97th also joins the next department), one row per
    email address (every 50th student has two)."""
    total = 0
    for i in range(students):
        depts = [i % 20] + ([(i + 1) % 20] if i % 97 == 96 else [])
        emails = 2 if i % 50 == 49 else 1
        total += sum(1 for d in depts if d < 5) * emails
    return total


def _star_suite() -> tuple[DataSpec, ...]:
    # The grid of workloads/star-suite.json, fixed here so that an edit to
    # the program's suite file cannot change the benchmark.
    return tuple(DataSpec(f"star-{k}", "star", k, 60, (2, 4, 8))
                 for k in (3, 5, 10, 15))


WORKLOADS = {
    "snowflake-q8": Workload(
        "snowflake-q8",
        data=(DataSpec("snowflake", "snowflake", 5, 1500, (4,)),),
        verify=(DataSpec("snowflake-verify", "snowflake", 5, 100, (4,)),),
        cli="query"),
    "chain-4": Workload(
        "chain-4",
        data=(DataSpec("chain", "chain", 4, 2500, (8,)),),
        verify=(DataSpec("chain-verify", "chain", 4, 100, (8,)),),
        cli="query"),
    "star-filler": Workload(
        "star-filler",
        data=(DataSpec("star", "star", 5, 200, (4,), filler=40_000),),
        verify=(DataSpec("star-verify", "star", 5, 40, (4,), filler=400),),
        cli="query"),
    "star-suite": Workload(
        "star-suite", data=_star_suite(), verify=_star_suite(), cli="bench"),
}


def permuted(triples: list, label: str, seed: int) -> list:
    """A copy of ``triples`` in an order fixed by the dataset and seed."""
    out = list(triples)
    random.Random(f"{label}/{seed}").shuffle(out)
    return out


def row_lines(relation, select) -> list[str]:
    """Result rows as the CLI prints them (tab-separated N-Triples terms in
    select order), sorted, so any row order compares equal."""
    return sorted("\t".join(row.get(v).nt() for v in select)
                  for row in relation.rows())


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def ledger_problems(result, m: int) -> list[str]:
    """Checks every run's ledger must pass: it equals the cost recomputed
    from the execution trace at unit weights, and no shuffle moves more
    rows than it is charged for."""
    totals = result.ledger.totals()
    cost = trace_cost(result.trace, m)
    problems = []
    if cost.access != totals["scanned"]:
        problems.append(f"trace access {cost.access} != scanned {totals['scanned']}")
    if cost.transfer != result.ledger.total_transfer:
        problems.append(f"trace transfer {cost.transfer} != ledger "
                        f"{result.ledger.total_transfer}")
    if totals["shuffled_actual"] > totals["shuffled_modeled"]:
        problems.append("shuffled_actual exceeds shuffled_modeled")
    return problems


# Host times are reported at a reference CPU speed. A shared virtual machine
# can change speed by up to a third within seconds (neighbours, clock
# scaling), far beyond any bound a regression check could use. Every timed
# section is therefore followed by a fixed pure-Python loop, and its time is
# scaled by the loop's nominal time over the loop's measured time. The loop
# does what the simulator spends its time on: dict updates, and building
# small sorted tuples of pairs like binding rows. It touches none of the
# program's state, and runs with the cyclic garbage collector off, so that
# its time does not depend on the size of the program's heap.
CALIBRATION_NOMINAL_S = 0.03
_CALIBRATION_KEYS = tuple(f"http://example.org/c{i}" for i in range(15_002))


def calibration_loop() -> float:
    keys = _CALIBRATION_KEYS
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(150_000):
            key = i % 1000
            table[key] = table.get(key, 0) + i
        rows = []
        for i in range(15_000):
            row = {keys[i]: i, keys[i + 1]: i + 1, keys[i + 2]: i}
            rows.append(tuple(sorted(row.items())))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class ReferenceClock:
    """Scales section times to the reference speed. The machine's speed is
    taken as the median of the last three calibration loops: the one run
    right after the section and the two before it. The median smooths the
    loop's own noise yet follows drifts over a few seconds."""

    WINDOW = 3

    def __init__(self):
        self.recent: list[float] = []
        self.recalibrate()

    def recalibrate(self) -> None:
        """Calibrate without closing a section, e.g. after untimed work."""
        self.recent = (self.recent + [calibration_loop()])[-self.WINDOW:]

    def factor(self) -> float:
        """Close a section: calibrate, and return the scale for its time."""
        self.recalibrate()
        return CALIBRATION_NOMINAL_S / statistics.median(self.recent)
