"""Synthetic datasets with known selection sizes and join behavior.

Three shape families are generated deterministically from a small spec:

* ``star``: one center entity class with one triple per (entity, branch);
  every selection has the same size and joins are key-aligned.
* ``chain``: linear paths; optional profiles skew where the bulk sits:
  ``alternating-frequent-rare`` gives odd patterns a large dead-end
  population, ``front-loaded-large`` makes the two head patterns large while
  mid patterns carry a block of parallel part-chains.
* ``snowflake``: a fixed five-pattern university hierarchy (students with
  type, membership, email; departments with type and affiliation), sized so
  the five selections are pairwise distinct and strictly ordered.

Sizes are exact functions of the spec, so tests can assert ledger totals
against closed-form expectations. :func:`generate_for_query` additionally
synthesizes data for an arbitrary basic graph pattern with a chosen number
of full matches plus per-pattern dead-end noise.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .cluster import (
    DEFAULT_NODE_COUNT, DEFAULT_PARTITIONING, BasePartition, node_count_problem,
)
from .engine import STRATEGIES
from .errors import ParseError
from .sparql import RDF_TYPE, Query
from .terms import Term, Triple, TriplePattern, iri, lit, pattern_vars, var

GEN = "http://example.org/gen/"
UNIV = "http://example.org/univ#"
UNIV_ENT = "http://example.org/univ/"

SHAPES = ("star", "chain", "snowflake")
CHAIN_PROFILES = ("alternating-frequent-rare", "front-loaded-large")

SNOWFLAKE_PATTERN_COUNT = 5
SNOWFLAKE_UNIVERSITIES = 4
SNOWFLAKE_DEPARTMENTS = 20
# Every nth student carries a second membership / second email address, so
# the five selection sizes are strictly ordered: email > membership > type.
SECOND_MEMBER_EVERY = 97
SECOND_EMAIL_EVERY = 50
COURSE_COUNT = 40
# alternating-frequent-rare: dead ends per path on every odd pattern.
NOISE_FACTOR = 100
# front-loaded-large: part-chains on the mid patterns, and dead ends on each
# of the two head patterns.
PARALLEL = 50
HEAD_NOISE = 6 * PARALLEL


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    name: str
    shape: str
    pattern_count: int
    subject_count: int
    profile: str | None = None
    filler: int = 0             # triples matching no pattern

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown workload shape {self.shape!r} "
                             f"(expected one of {', '.join(SHAPES)})")
        for name in ("pattern_count", "subject_count", "filler"):
            value = getattr(self, name)
            if type(value) is not int:   # a bool (JSON true/false) is not a count
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.pattern_count < 1:
            raise ValueError("pattern_count must be >= 1")
        if self.subject_count < 1:
            raise ValueError("subject_count must be >= 1")
        if self.filler < 0:
            raise ValueError("filler must be >= 0")
        if self.shape == "snowflake" and self.pattern_count != SNOWFLAKE_PATTERN_COUNT:
            raise ValueError("the snowflake workload is a fixed five-pattern "
                             f"hierarchy; got pattern_count={self.pattern_count}")
        if self.profile is not None:
            if self.shape != "chain":
                raise ValueError(f"profile {self.profile!r} only applies to chains")
            if self.profile not in CHAIN_PROFILES:
                raise ValueError(f"unknown chain profile {self.profile!r} "
                                 f"(expected one of {', '.join(CHAIN_PROFILES)})")
            if self.profile == "front-loaded-large" and self.pattern_count < 4:
                raise ValueError("front-loaded-large needs at least 4 patterns")


@dataclass(frozen=True, slots=True)
class Workload:
    triples: list[Triple]
    query: Query


def _filler_triples(count: int) -> list[Triple]:
    pred = iri(GEN + "filler/p")
    return [Triple(iri(GEN + f"filler/s{i}"), pred, iri(GEN + f"filler/o{i}"))
            for i in range(count)]


def _generate_star(spec: WorkloadSpec) -> Workload:
    k, n = spec.pattern_count, spec.subject_count
    props = [iri(GEN + f"star/p{j}") for j in range(1, k + 1)]
    triples: list[Triple] = []
    for i in range(n):
        entity = iri(GEN + f"star/e{i}")
        for j, prop in enumerate(props, start=1):
            triples.append(Triple(entity, prop, iri(GEN + f"star/v{i}_{j}")))
    triples.extend(_filler_triples(spec.filler))
    x = var("x")
    branches = [var(f"v{j}") for j in range(1, k + 1)]
    patterns = [TriplePattern(x, prop, branch)
                for prop, branch in zip(props, branches)]
    return Workload(triples, Query(tuple([x] + branches), tuple(patterns)))


def _generate_chain(spec: WorkloadSpec) -> Workload:
    k, b = spec.pattern_count, spec.subject_count
    links = [iri(GEN + f"chain/p{j}") for j in range(1, k + 1)]
    triples: list[Triple] = []
    for r in range(b):
        nodes = [iri(GEN + f"chain/n{r}_{layer}") for layer in range(k + 1)]
        for j in range(1, k + 1):
            triples.append(Triple(nodes[j - 1], links[j - 1], nodes[j]))

    if spec.profile == "alternating-frequent-rare":
        extras = NOISE_FACTOR * b
        for j in range(1, k + 1, 2):
            for i in range(extras):
                triples.append(Triple(iri(GEN + f"chain/dead{j}_{i}s"),
                                      links[j - 1],
                                      iri(GEN + f"chain/dead{j}_{i}o")))
    elif spec.profile == "front-loaded-large":
        for j in (1, 2):
            for i in range(HEAD_NOISE):
                triples.append(Triple(iri(GEN + f"chain/dead{j}_{i}s"),
                                      links[j - 1],
                                      iri(GEN + f"chain/dead{j}_{i}o")))
        # Part-chains run from layer 2 to the end but never reach layer 1,
        # so they inflate every mid selection without joining through.
        for c in range(PARALLEL):
            nodes = {layer: iri(GEN + f"chain/part{c}_{layer}")
                     for layer in range(2, k + 1)}
            for j in range(3, k + 1):
                triples.append(Triple(nodes[j - 1], links[j - 1], nodes[j]))

    triples.extend(_filler_triples(spec.filler))
    hops = [var(f"x{i}") for i in range(k + 1)]
    patterns = [TriplePattern(hops[j - 1], links[j - 1], hops[j])
                for j in range(1, k + 1)]
    return Workload(triples, Query(tuple(hops), tuple(patterns)))


def snowflake_query() -> Query:
    """The bundled five-pattern university query, in its textual order."""
    x, y, z = var("x"), var("y"), var("z")
    patterns = (
        TriplePattern(x, RDF_TYPE, iri(UNIV + "Student")),
        TriplePattern(y, RDF_TYPE, iri(UNIV + "Department")),
        TriplePattern(x, iri(UNIV + "memberOf"), y),
        TriplePattern(y, iri(UNIV + "subOrganizationOf"), iri(UNIV_ENT + "university0")),
        TriplePattern(x, iri(UNIV + "emailAddress"), z),
    )
    return Query((x, y, z), patterns)


def snowflake_selection_sizes(subject_count: int) -> dict[int, int]:
    """Exact selection sizes of the snowflake workload, by pattern index."""
    s = subject_count
    return {
        0: s,
        1: SNOWFLAKE_DEPARTMENTS,
        2: s + s // SECOND_MEMBER_EVERY,
        3: SNOWFLAKE_DEPARTMENTS // SNOWFLAKE_UNIVERSITIES,
        4: s + s // SECOND_EMAIL_EVERY,
    }


def _generate_snowflake(spec: WorkloadSpec) -> Workload:
    s = spec.subject_count
    type_student = iri(UNIV + "Student")
    type_dept = iri(UNIV + "Department")
    member_of = iri(UNIV + "memberOf")
    sub_org = iri(UNIV + "subOrganizationOf")
    email = iri(UNIV + "emailAddress")
    takes = iri(UNIV + "takesCourse")
    depts = [iri(UNIV_ENT + f"dept{d}") for d in range(SNOWFLAKE_DEPARTMENTS)]
    unis = [iri(UNIV_ENT + f"university{u}") for u in range(SNOWFLAKE_UNIVERSITIES)]
    courses = [iri(UNIV_ENT + f"course{c}") for c in range(COURSE_COUNT)]
    per_uni = SNOWFLAKE_DEPARTMENTS // SNOWFLAKE_UNIVERSITIES

    triples: list[Triple] = []
    for d, dept in enumerate(depts):
        triples.append(Triple(dept, RDF_TYPE, type_dept))
        triples.append(Triple(dept, sub_org, unis[d // per_uni]))
    for i in range(s):
        student = iri(UNIV_ENT + f"student{i}")
        triples.append(Triple(student, RDF_TYPE, type_student))
        triples.append(Triple(student, member_of, depts[i % SNOWFLAKE_DEPARTMENTS]))
        if i % SECOND_MEMBER_EVERY == SECOND_MEMBER_EVERY - 1:
            triples.append(Triple(student, member_of,
                                  depts[(i + 1) % SNOWFLAKE_DEPARTMENTS]))
        triples.append(Triple(student, email, lit(f"student{i}@example.org")))
        if i % SECOND_EMAIL_EVERY == SECOND_EMAIL_EVERY - 1:
            triples.append(Triple(student, email,
                                  lit(f"student{i}.alt@example.org")))
        # Enrollment noise matches no query pattern; it keeps the shared
        # scan subset a strict subset of the store.
        triples.append(Triple(student, takes, courses[i % COURSE_COUNT]))
    triples.extend(_filler_triples(spec.filler))
    return Workload(triples, snowflake_query())


def generate(spec: WorkloadSpec) -> Workload:
    if spec.shape == "star":
        return _generate_star(spec)
    if spec.shape == "chain":
        return _generate_chain(spec)
    return _generate_snowflake(spec)


def _instantiate(pattern: TriplePattern, assignment: dict[Term, Term]) -> Triple:
    return Triple(*(assignment[t] if t.is_variable else t for t in pattern))


def generate_for_query(query: Query, solutions: int, seed: int = 0,
                       noise: int | Sequence[int] = 0) -> list[Triple]:
    """Data for an arbitrary basic graph pattern with exactly ``solutions``
    full matches (each binding every variable to a distinct entity) plus
    per-pattern dead-end rows that never complete a match. The triple list
    is shuffled with the given seed."""
    if solutions < 0:
        raise ValueError("solutions must be >= 0")
    patterns = query.patterns
    if isinstance(noise, int):
        noise_counts = [noise] * len(patterns)
    else:
        noise_counts = list(noise)
        if len(noise_counts) != len(patterns):
            raise ValueError(f"noise list has {len(noise_counts)} entries "
                             f"for {len(patterns)} patterns")
    ns = GEN + f"synth{seed}/"
    all_vars = sorted({v for p in patterns for v in pattern_vars(p)})

    triples: list[Triple] = []
    seen: set[Triple] = set()

    def add(t: Triple) -> None:
        if t not in seen:
            seen.add(t)
            triples.append(t)

    for sol in range(solutions):
        assignment = {v: iri(ns + f"m{sol}/{v.lexical}") for v in all_vars}
        for p in patterns:
            add(_instantiate(p, assignment))
    for idx, (p, count) in enumerate(zip(patterns, noise_counts)):
        local_vars = pattern_vars(p)
        if not local_vars:
            continue
        for n in range(count):
            assignment = {v: iri(ns + f"d{idx}/{n}/{v.lexical}") for v in local_vars}
            add(_instantiate(p, assignment))

    random.Random(seed).shuffle(triples)
    return triples


@dataclass(frozen=True, slots=True)
class Suite:
    """A bench suite: workloads plus the grid to run them over."""

    name: str
    workloads: tuple[WorkloadSpec, ...]
    m: tuple[int, ...] = (DEFAULT_NODE_COUNT,)
    partitioning: str = DEFAULT_PARTITIONING
    strategies: tuple[str, ...] = STRATEGIES


_SUITE_KEYS = {"name", "workloads", "m", "partitioning", "strategies"}
_SPEC_KEYS = {"name", "shape", "pattern_count", "subject_count", "profile",
              "filler"}


def _spec_from_dict(raw: dict, where: str) -> WorkloadSpec:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ParseError(f"{where}: unknown keys: {', '.join(sorted(unknown))}")
    missing = {"name", "shape", "pattern_count", "subject_count"} - set(raw)
    if missing:
        raise ParseError(f"{where}: missing keys: {', '.join(sorted(missing))}")
    try:
        return WorkloadSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_suite(path: str | Path) -> Suite:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                         source=str(path)) from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: suite file must hold a JSON object")
    unknown = set(data) - _SUITE_KEYS
    if unknown:
        raise ParseError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")
    raw_workloads = data.get("workloads")
    if not isinstance(raw_workloads, list) or not raw_workloads:
        raise ParseError(f"{path}: suite needs a nonempty 'workloads' list")
    specs = tuple(_spec_from_dict(raw, f"{path}: workloads[{i}]")
                  for i, raw in enumerate(raw_workloads))
    raw_m = data.get("m", [DEFAULT_NODE_COUNT])
    if not isinstance(raw_m, list) or any(type(v) is not int for v in raw_m):
        raise ParseError(f"{path}: 'm' must list integer node counts, got {raw_m!r}")
    raw_strategies = data.get("strategies", list(STRATEGIES))
    if not isinstance(raw_strategies, list) or any(type(s) is not str for s in raw_strategies):
        raise ParseError(f"{path}: 'strategies' must list strategy names, "
                         f"got {raw_strategies!r}")
    for key in ("name", "partitioning"):
        if key in data and not isinstance(data[key], str):
            raise ParseError(f"{path}: '{key}' must be a string, got {data[key]!r}")
    suite = Suite(
        name=data.get("name", path.stem),
        workloads=specs,
        m=tuple(raw_m),
        partitioning=data.get("partitioning", DEFAULT_PARTITIONING),
        strategies=tuple(raw_strategies),
    )
    if not suite.m:
        raise ParseError(f"{path}: 'm' must list at least one node count")
    if not suite.strategies:
        raise ParseError(f"{path}: 'strategies' must list at least one strategy")
    problem = node_count_problem(suite.m)
    if problem:
        raise ParseError(f"{path}: node counts in 'm' {problem}")
    bases = tuple(b.value for b in BasePartition)
    if suite.partitioning not in bases:
        raise ParseError(f"{path}: unknown partitioning {suite.partitioning!r} "
                         f"(expected one of {', '.join(bases)})")
    unknown = [s for s in suite.strategies if s not in STRATEGIES]
    if unknown:
        raise ParseError(f"{path}: unknown strategies: {', '.join(unknown)} "
                         f"(expected some of {', '.join(STRATEGIES)})")
    return suite
