"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS/FAIL line (bypassing pytest's capture) so a full run shows one verdict
per criterion:

1. four-strategy result equivalence with a nested-loop reference over 200
   seeded random connected BGPs, under 60 s;
2. zero transfer for oriented subject stars on subject partitioning, and
   exact full-reshuffle accounting when partitioning is ignored;
3. exact transfer accounting of the five-pattern university query against
   the analytic formulas, with the adaptive strategy strictly cheapest;
4. the partitioned-vs-broadcast crossover law on a 4,650-cell grid, with
   both algorithms executed in every cell;
5. merged-selection scan accounting and the merged-scan decision rule;
6. chain fixtures where greedy adaptivity loses (front-loaded) and wins
   (alternating dead ends), with strict inequalities;
7. byte-identical benchmark reports across repeated runs;
8. a million-triple store queried in bounded time and memory.
"""

import random
import resource
import time
from contextlib import contextmanager

from sparqlsim import (
    BasePartition, BindingRow, Cluster, CostParams, Executor,
    Query, Relation, ResultSizeLimitError, STRATEGIES, TransferLedger, Triple,
    TriplePattern,
    WorkloadSpec, as_multiset, cost_merged_selection, cost_selection,
    crossover_prefers_pjoin, generate, iri, lit, load_partitioned, load_suite,
    merged_scan_beneficial, oracle_eval, plan_and_execute_hybrid, render_plan,
    run_query, run_strategy, run_suite, trace_cost, var,
)
from sparqlsim.hybrid import _price_pair
from sparqlsim.ops import (
    SelectionSpec, brjoin, merged_selection, pjoin, shared_subset_size,
    triple_selection,
)
from sparqlsim.terms import pattern_vars

from conftest import (
    ACCEPTANCE_LINES, WORKLOAD_DIR, binding_row, encode_rows, make_dataset,
    match_binding,
)

UNIT = CostParams(1.0, 1.0)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num} FAIL: {text}")
        print(ACCEPTANCE_LINES[-1])
        raise
    ACCEPTANCE_LINES.append(f"criterion {num} PASS: {text}")
    print(ACCEPTANCE_LINES[-1])


# --------------------------------------------------------------------------
# Criterion 1: strategy/oracle equivalence on random connected BGPs
# --------------------------------------------------------------------------

_ENTITIES = tuple(iri(f"http://acc.example/e{i}") for i in range(12))
_PREDICATES = tuple(iri(f"http://acc.example/p{i}") for i in range(6))
_LITERALS = (lit("a"), lit("b"), lit("7"))
_VARS = tuple(var(f"v{i}") for i in range(8))


def _random_bgp(rng: random.Random) -> Query:
    """A connected random BGP: every pattern binds at least one variable and
    each pattern after the first shares a variable with an earlier one."""
    pattern_count = rng.randint(1, 6)
    patterns: list[TriplePattern] = []
    seen_vars: list = []
    for k in range(pattern_count):
        pool = _VARS[: 2 + k]
        positions: list = [None, None, None]
        for pos in (0, 2):
            roll = rng.random()
            if roll < 0.55:
                positions[pos] = rng.choice(pool)
            elif pos == 2 and roll < 0.65:
                positions[pos] = rng.choice(_LITERALS)
            else:
                positions[pos] = rng.choice(_ENTITIES)
        positions[1] = (rng.choice(pool) if rng.random() < 0.10
                        else rng.choice(_PREDICATES))
        var_slots = [pos for pos in (0, 1, 2) if positions[pos].is_variable]
        if not var_slots:
            positions[0] = rng.choice(pool)
            var_slots = [0]
        if k > 0:
            positions[rng.choice(var_slots)] = rng.choice(seen_vars)
        pattern = TriplePattern(*positions)
        patterns.append(pattern)
        seen_vars.extend(pattern_vars(pattern))
    select = tuple(sorted({v for p in patterns for v in pattern_vars(p)}))
    return Query(select, tuple(patterns))


def _random_triples(rng: random.Random, query: Query) -> list[Triple]:
    """Noise triples plus a few planted full solutions of the query, so a
    healthy share of workloads returns rows."""
    out: list[Triple] = []
    all_vars = {v for p in query.patterns for v in pattern_vars(p)}
    for _ in range(rng.randint(0, 3)):
        assignment = {v: rng.choice(_ENTITIES) for v in all_vars}
        for p in query.patterns:
            out.append(Triple(*(assignment.get(t, t) for t in p)))
    noise = rng.randint(30, 200 - len(out))
    for _ in range(noise):
        obj = (rng.choice(_ENTITIES) if rng.random() < 0.8
               else rng.choice(_LITERALS))
        out.append(Triple(rng.choice(_ENTITIES), rng.choice(_PREDICATES), obj))
    return out


def test_criterion_1_oracle_equivalence_on_random_workloads():
    with criterion(1, "200 random connected BGPs, 4 strategies == reference "
                      "oracle at m in {1,2,4,8}, < 60 s"):
        started = time.perf_counter()
        workloads = []
        attempt = 0
        while len(workloads) < 200:
            attempt += 1
            assert attempt < 3000, "workload generation failed to converge"
            rng = random.Random(41_000 + attempt)
            query = _random_bgp(rng)
            triples = _random_triples(rng, query)
            try:
                expected = oracle_eval(query.patterns, triples,
                                       select=query.select, limit=1500)
            except ResultSizeLimitError:
                continue
            if len(expected) > 800:
                continue
            workloads.append((query, triples, as_multiset(expected)))

        bases = (BasePartition.SUBJECT, BasePartition.PREDICATE,
                 BasePartition.OBJECT, BasePartition.RANDOM)
        nonempty = 0
        for i, (query, triples, expected) in enumerate(workloads):
            m = (1, 2, 4, 8)[i % 4]
            base = bases[(i // 4) % 4]
            dataset, cluster = make_dataset(triples, m=m, base=base)
            for result in run_query(query, dataset, cluster, "all",
                                    validate=True):
                got = as_multiset(result.relation.rows())
                assert got == expected, (
                    f"workload {i} ({result.strategy}, m={m}, {base.value}): "
                    f"{sum(got.values())} rows vs {sum(expected.values())}")
            nonempty += bool(expected)
        elapsed = time.perf_counter() - started
        assert nonempty >= 50, "generator produced too few non-empty results"
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f} s"


# --------------------------------------------------------------------------
# Criterion 2: zero-transfer oriented stars / exact reshuffle when ignored
# --------------------------------------------------------------------------

def test_criterion_2_subject_stars_need_no_transfer():
    with criterion(2, "subject stars (3/5/10/15 branches): zero transfer "
                      "under pjoin+hybrid on subject partitioning; full "
                      "per-pattern reshuffle on random placement"):
        for k in (3, 5, 10, 15):
            wl = generate(WorkloadSpec(name=f"star{k}", shape="star",
                                       pattern_count=k, subject_count=60))
            dataset, cluster = make_dataset(wl.triples, m=4)
            for strategy in ("pjoin", "hybrid"):
                res = run_strategy(strategy, wl.query, dataset, cluster)
                totals = res.ledger.totals()
                assert totals["shuffled_modeled"] == 0, (k, strategy)
                assert totals["shuffled_actual"] == 0, (k, strategy)
                assert totals["broadcast"] == 0, (k, strategy)
                assert res.result_count == 60

            ignored, cluster_r = make_dataset(wl.triples, m=4,
                                              base=BasePartition.RANDOM)
            res = run_strategy("pjoin", wl.query, ignored, cluster_r)
            # one n-ary partitioned join over k unkeyed inputs of 60 rows
            assert res.ledger.totals()["shuffled_modeled"] == k * 60
            assert res.result_count == 60


# --------------------------------------------------------------------------
# Criterion 3: exact accounting on the university snowflake
# --------------------------------------------------------------------------

def test_criterion_3_snowflake_transfer_accounting(q8_workload):
    with criterion(3, "university snowflake at m=4: transfers equal the "
                      "analytic formulas and the adaptive strategy is "
                      "strictly cheapest"):
        wl = q8_workload
        patterns = wl.query.patterns
        dataset, cluster = make_dataset(wl.triples, m=4)
        m = 4

        # independent ingredients, measured off the raw triple list
        def matches(i):
            return sum(match_binding(patterns[i], t) is not None for t in wl.triples)

        gamma_member = matches(2)                                   # t3
        dept_pair = len(oracle_eval([patterns[3], patterns[1]], wl.triples))
        dept_triple = len(oracle_eval([patterns[3], patterns[1], patterns[2]],
                                      wl.triples))
        first_four = sum(matches(i) for i in range(4))
        assert (gamma_member, dept_pair, dept_triple, first_four) == \
            (606, 5, 151, 1231)

        results = {s: run_strategy(s, wl.query, dataset, cluster)
                   for s in STRATEGIES}
        transfer = {s: r.ledger.total_transfer for s, r in results.items()}

        assert transfer["hybrid"] == (m - 1) * dept_pair            # 15
        assert transfer["pjoin"] == gamma_member + dept_triple      # 757
        assert results["pjoin"].ledger.totals()["broadcast"] == 0
        assert transfer["mono-br"] == (m - 1) * first_four          # 3693

        for name, res in results.items():
            cost = trace_cost(res.trace, m, UNIT)
            assert cost.transfer == res.ledger.total_transfer, name
            assert cost.access == res.ledger.totals()["scanned"], name
            assert res.result_count == 151, name

        for name in ("pjoin", "mono-br", "multi-br"):
            assert transfer["hybrid"] < transfer[name], name


# --------------------------------------------------------------------------
# Criterion 4: the crossover law between repartitioning and broadcasting
# --------------------------------------------------------------------------

_GRID = "http://acc.example/grid/"
_GX, _GA, _GB = var("x"), var("a"), var("b")
_GRID_QUERY = Query((_GX, _GA, _GB), (
    TriplePattern(_GX, iri(_GRID + "p1"), _GA),
    TriplePattern(_GX, iri(_GRID + "p2"), _GB),
))


def _grid_rows(count: int, side: str, value_var) -> tuple[BindingRow, ...]:
    # join keys cycle over a small vocabulary: placement hashing and the
    # ledger count rows, not distinct terms, and the two sides stay disjoint
    keys = tuple(iri(f"{_GRID}{side}/x{i}") for i in range(min(count, 256)))
    return tuple(
        binding_row({_GX: keys[i % len(keys)],
                     value_var: iri(f"{_GRID}{side}/v{i}")})
        for i in range(count))


def _round_robin(encoded: tuple, columns: tuple, m: int) -> Relation:
    # Dealt like conftest.make_relation, from rows encoded once for every
    # cluster size.
    return Relation(columns, tuple(encoded[j::m] for j in range(m)), frozenset())


def test_criterion_4_crossover_law():
    with criterion(4, "crossover grid (3 sizes x 50 ratios x 31 cluster "
                      "sizes): adaptive choice matches the size-ratio rule "
                      "in every cell, both algorithms executed, ties to "
                      "the partitioned join"):
        on = frozenset((_GX,))
        pat_small, pat_large = _GRID_QUERY.patterns
        engine_checked = 0
        for gamma1 in (10, 100, 1000):
            small_rows = _grid_rows(gamma1, "s", _GA)
            large_rows = _grid_rows(50 * gamma1, "l", _GB)
            small_triples = [Triple(r.get(_GX), pat_small.p, r.get(_GA))
                             for r in small_rows]
            large_triples = [Triple(r.get(_GX), pat_large.p, r.get(_GB))
                             for r in large_rows]
            small_encoded = encode_rows((_GX, _GA), small_rows)
            large_encoded = encode_rows((_GX, _GB), large_rows)
            for m in range(2, 33):
                small = _round_robin(small_encoded, (_GX, _GA), m)
                full_chunks = tuple(large_encoded[j::m] for j in range(m))
                for ratio in range(1, 51):
                    gamma2 = ratio * gamma1
                    chunks = tuple(c[: (gamma2 - j + m - 1) // m]
                                   for j, c in enumerate(full_chunks))
                    large = Relation((_GX, _GB), chunks, frozenset())
                    assert large.count == gamma2

                    # the planner's own pricing of this pair, smaller side
                    # first, ties to the first pattern
                    (first, _), (second, _) = sorted(
                        ((small, 0), (large, 1)),
                        key=lambda s: (s[0].count, s[1]))
                    option = _price_pair(first, second,
                                         first.schema & second.schema, m)
                    predicted_pjoin = crossover_prefers_pjoin(gamma1, gamma2, m)
                    assert predicted_pjoin == (ratio + 2 <= m)
                    assert (option.target is None) == predicted_pjoin, \
                        (gamma1, ratio, m)

                    # execute both algorithms and compare measured transfer
                    led_p, led_b = TransferLedger(), TransferLedger()
                    pjoin(on, [large, small], led_p)
                    brjoin([large, small], 0, led_b)
                    moved_p = led_p.total_transfer
                    moved_b = led_b.total_transfer
                    assert moved_p == gamma1 + gamma2
                    assert moved_b == (m - 1) * gamma1
                    if predicted_pjoin:
                        assert moved_p <= moved_b, (gamma1, ratio, m)
                    else:
                        assert moved_b <= moved_p, (gamma1, ratio, m)
                    assert option.cost == min(moved_p, moved_b)

                    # end-to-end confirmation through the adaptive engine:
                    # every cell at the smallest size, a fixed diagonal above
                    if gamma1 == 10 or (ratio * 31 + m) % 11 == 0:
                        store = small_triples + large_triples[:gamma2]
                        ds = load_partitioned(store, Cluster(m),
                                              BasePartition.RANDOM)
                        executor = Executor(ds)
                        run = plan_and_execute_hybrid(_GRID_QUERY.compiled, executor)
                        root = render_plan(run.plan.root)
                        chose_pjoin = root.startswith("Pjoin")
                        assert chose_pjoin == predicted_pjoin, \
                            (gamma1, ratio, m, root)
                        assert (executor.trace.ledger().total_transfer
                                == min(moved_p, moved_b))
                        engine_checked += 1
        assert engine_checked > 1800


# --------------------------------------------------------------------------
# Criterion 5: merged-selection accounting
# --------------------------------------------------------------------------

def test_criterion_5_merged_scan_accounting():
    with criterion(5, "5-pattern star over 100k triples: merged scan reads "
                      "105,000 tuples vs 500,000 unmerged, identical rows; "
                      "decision rule matches direct cost comparison on "
                      "10,000 random points"):
        wl = generate(WorkloadSpec(name="wide", shape="star", pattern_count=5,
                                   subject_count=200, filler=99_000))
        assert len(wl.triples) == 100_000
        dataset, _ = make_dataset(wl.triples, m=4)
        specs = [SelectionSpec(i, p) for i, p in enumerate(wl.query.patterns)]

        merged_ledger = TransferLedger()
        subset_size = shared_subset_size(specs, dataset)
        merged_rels = merged_selection(specs, dataset, merged_ledger, subset_size)
        assert subset_size == 1_000
        assert merged_ledger.totals()["scanned"] == 105_000

        single_ledger = TransferLedger()
        single_rels = [triple_selection(s, dataset, single_ledger)
                       for s in specs]
        assert single_ledger.totals()["scanned"] == 500_000

        for merged_rel, single_rel in zip(merged_rels, single_rels):
            assert as_multiset(merged_rel.rows()) == as_multiset(single_rel.rows())
            assert merged_rel.key == single_rel.key

        rng = random.Random(8_855)
        for _ in range(10_000):
            d = rng.randint(1, 1_000_000)
            n = rng.randint(1, 10)
            s = rng.randint(0, d)
            params = CostParams(rng.uniform(0.1, 10.0), 1.0)
            direct = (cost_merged_selection(d, n, s, params).total
                      < n * cost_selection(d, params).total)
            assert merged_scan_beneficial(d, n, s) == direct, (d, n, s)


# --------------------------------------------------------------------------
# Criterion 6: chains where greedy adaptivity loses and wins
# --------------------------------------------------------------------------

def test_criterion_6_chain_counterexamples():
    with criterion(6, "front-loaded chain: adaptive transfer strictly above "
                      "static partitioned joins; alternating chains (4, 6): "
                      "strictly below partitioned and single-broadcast"):
        fll = generate(WorkloadSpec(name="fll", shape="chain", pattern_count=15,
                                    subject_count=2, profile="front-loaded-large"))
        dataset, cluster = make_dataset(fll.triples, m=4)
        hybrid = run_strategy("hybrid", fll.query, dataset, cluster)
        static = run_strategy("pjoin", fll.query, dataset, cluster)
        assert hybrid.ledger.total_transfer > static.ledger.total_transfer
        assert as_multiset(hybrid.relation.rows()) == \
            as_multiset(static.relation.rows())

        for k in (4, 6):
            afr = generate(WorkloadSpec(
                name=f"afr{k}", shape="chain", pattern_count=k,
                subject_count=40, profile="alternating-frequent-rare"))
            dataset, cluster = make_dataset(afr.triples, m=4)
            runs = {s: run_strategy(s, afr.query, dataset, cluster)
                    for s in ("hybrid", "pjoin", "mono-br")}
            t = {s: r.ledger.total_transfer for s, r in runs.items()}
            assert t["hybrid"] < t["pjoin"], (k, t)
            assert t["hybrid"] < t["mono-br"], (k, t)


# --------------------------------------------------------------------------
# Criterion 7: benchmark determinism
# --------------------------------------------------------------------------

def test_criterion_7_bench_reports_are_deterministic():
    with criterion(7, "two full benchmark runs produce byte-identical JSON "
                      "reports"):
        suite = load_suite(WORKLOAD_DIR / "star-suite.json")
        first = run_suite(suite, include_wall=False).to_json()
        second = run_suite(suite, include_wall=False).to_json()
        assert first == second
        assert first.count('"strategy"') == 48


# --------------------------------------------------------------------------
# Criterion 8: scale smoke test
# --------------------------------------------------------------------------

def test_criterion_8_million_triple_store():
    with criterion(8, "million-triple store, m=8: adaptive run finishes "
                      "< 30 s with peak memory < 4 GB"):
        s = 250_000
        wl = generate(WorkloadSpec(name="big", shape="snowflake",
                                   pattern_count=5, subject_count=s))
        assert len(wl.triples) >= 1_000_000
        cluster = Cluster(8)
        dataset = load_partitioned(wl.triples, cluster, BasePartition.SUBJECT)

        # result size, derived from the generator's layout arithmetic alone
        def expected_rows(students: int) -> int:
            total = 0
            for i in range(students):
                depts = [i % 20] + ([(i + 1) % 20] if i % 97 == 96 else [])
                emails = 2 if i % 50 == 49 else 1
                total += sum(1 for d in depts if d < 5) * emails
            return total

        assert expected_rows(600) == 151      # agrees with the small fixture

        started = time.perf_counter()
        result = run_strategy("hybrid", wl.query, dataset, cluster)
        elapsed = time.perf_counter() - started

        assert result.result_count == expected_rows(s)
        assert result.ledger.total_transfer == 7 * 5   # broadcast 5 rows
        assert elapsed < 30.0, f"query took {elapsed:.1f} s"
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 4 * 1024 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"
