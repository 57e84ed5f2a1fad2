"""Benchmark runner: grid ordering, result verification against the
reference evaluator, and reproducible report serialization."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from sparqlsim import (
    BenchCase, BenchReport, CSV_COLUMNS, STRATEGIES, Suite, WorkloadSpec,
    cases_from_suite, generate, load_suite, parse_query, run_bench, run_suite,
)

from conftest import REPO_ROOT, WORKLOAD_DIR

SMALL_SUITE = Suite(
    name="small",
    workloads=(
        WorkloadSpec(name="star-3", shape="star", pattern_count=3,
                     subject_count=12),
        WorkloadSpec(name="chain-4", shape="chain", pattern_count=4,
                     subject_count=5),
    ),
    m=(2, 4),
    partitioning="subject",
    strategies=("pjoin", "hybrid"),
)


@pytest.fixture(scope="module")
def star_report():
    return run_suite(load_suite(WORKLOAD_DIR / "star-suite.json"),
                     include_wall=False)


def test_grid_ordering_case_then_m_then_strategy():
    report = run_bench(cases_from_suite(SMALL_SUITE), ms=SMALL_SUITE.m,
                       strategies=SMALL_SUITE.strategies, suite_name="small")
    key = [(c["dataset"], c["m"], c["strategy"]) for c in report.cells]
    assert key == [
        ("star-3", 2, "pjoin"), ("star-3", 2, "hybrid"),
        ("star-3", 4, "pjoin"), ("star-3", 4, "hybrid"),
        ("chain-4", 2, "pjoin"), ("chain-4", 2, "hybrid"),
        ("chain-4", 4, "pjoin"), ("chain-4", 4, "hybrid"),
    ]
    assert report.suite == "small"


def test_star_suite_cells(star_report):
    assert len(star_report.cells) == 4 * 3 * 4
    assert all(cell["status"] == "verified" for cell in star_report.cells)
    # subject stars on subject partitioning: the two partitioned-join-only
    # strategies never ship a tuple
    for cell in star_report.cells:
        if cell["strategy"] in ("pjoin", "hybrid"):
            assert cell["shuffled_modeled"] == 0, cell
            assert cell["shuffled_actual"] == 0, cell
            assert cell["broadcast"] == 0, cell
    assert all(cell["shape"] == "star" for cell in star_report.cells)
    assert all("wall_ms" not in cell for cell in star_report.cells)


def test_reports_reproduce_byte_identically(star_report):
    again = run_suite(load_suite(WORKLOAD_DIR / "star-suite.json"),
                      include_wall=False)
    assert again.to_json() == star_report.to_json()
    assert again.to_csv() == star_report.to_csv()


def test_json_report_shape(star_report):
    payload = json.loads(star_report.to_json())
    assert set(payload) == {"suite", "partitioning", "cells"}
    assert payload["suite"] == "star-suite"
    assert payload["partitioning"] == "subject"
    cell = payload["cells"][0]
    for field in ("dataset", "query", "strategy", "m", "result_count",
                  "scanned", "shuffled_modeled", "shuffled_actual",
                  "broadcast", "plan", "status"):
        assert field in cell, field


def test_csv_report_shape(star_report):
    text = star_report.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(star_report.cells)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["dataset"] == star_report.cells[0]["dataset"]
    assert rows[0]["wall_ms"] == ""          # wall timing was disabled
    assert rows[0]["status"] == "verified"
    assert star_report.render("csv") == text
    assert star_report.render("json") == star_report.to_json()
    with pytest.raises(ValueError, match="unknown report format"):
        star_report.render("yaml")


def test_wall_time_included_by_default():
    report = run_bench(cases_from_suite(SMALL_SUITE)[:1], ms=(2,),
                       strategies=("hybrid",))
    (cell,) = report.cells
    assert isinstance(cell["wall_ms"], float)
    assert cell["wall_ms"] >= 0.0


def test_cases_from_suite_materializes_workloads():
    cases = cases_from_suite(SMALL_SUITE)
    assert [c.name for c in cases] == ["star-3", "chain-4"]
    assert [c.query_name for c in cases] == ["star", "chain"]
    assert len(cases[0].triples) == 3 * 12
    assert len(cases[1].query.patterns) == 4


def test_verify_limit_skips_the_reference_check():
    report = run_bench(cases_from_suite(SMALL_SUITE)[:1], ms=(2,),
                       strategies=("hybrid",), include_wall=False,
                       verify_limit=0)
    assert report.cells[0]["status"] == "ok"


def test_result_mismatch_raises(monkeypatch):
    import sparqlsim.bench as bench_mod
    monkeypatch.setattr(bench_mod, "oracle_eval", lambda *a, **k: [])
    with pytest.raises(AssertionError, match="disagrees with"):
        run_bench(cases_from_suite(SMALL_SUITE)[:1], ms=(2,),
                  strategies=("hybrid",), include_wall=False)


@pytest.mark.parametrize("change", ["duplicated", "dropped", "duplicated and dropped"])
def test_a_changed_row_multiplicity_raises(monkeypatch, change):
    import sparqlsim.bench as bench_mod
    from sparqlsim.oracle import oracle_eval

    def stub(*args, **kwargs):
        rows = oracle_eval(*args, **kwargs)
        if "duplicated" in change:
            rows = rows + rows[:1]
        if "dropped" in change:
            rows = rows[:1] + rows[2:]
        return rows

    monkeypatch.setattr(bench_mod, "oracle_eval", stub)
    with pytest.raises(AssertionError, match="disagrees with"):
        run_bench(cases_from_suite(SMALL_SUITE)[:1], ms=(2,),
                  strategies=("hybrid",), include_wall=False)


def test_a_repeated_select_variable_verifies(d0_triples):
    query = parse_query("PREFIX ex: <http://example.org/> "
                        "SELECT ?x ?x ?y WHERE { ?x ex:knows ?y . ?x ex:name ?n }")
    report = run_bench([BenchCase("d0", "repeated", d0_triples, query)], ms=(1, 3),
                       include_wall=False)
    assert len(report.cells) == 2 * len(STRATEGIES)
    assert {(c["status"], c["result_count"]) for c in report.cells} == {("verified", 3)}


def test_adhoc_case_from_raw_parts():
    wl = generate(WorkloadSpec(name="w", shape="star", pattern_count=3,
                               subject_count=6))
    case = BenchCase(name="mini", query_name="demo", triples=wl.triples,
                     query=wl.query)
    report = run_bench([case], ms=(3,), strategies=("mono-br",),
                       partitioning="random", include_wall=False)
    (cell,) = report.cells
    assert cell["dataset"] == "mini" and cell["query"] == "demo"
    assert cell["partitioning"] == "random"
    assert cell["result_count"] == 6
    assert isinstance(report, BenchReport)


def test_suite_report_is_independent_of_the_hash_seed():
    # Terms hash to their intern ids, so no report byte may depend on
    # Python's string-hash seed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outputs = []
    for seed in ("0", "1", "12345"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "sparqlsim.cli", "bench",
             "--suite", str(WORKLOAD_DIR / "star-suite.json"), "--no-wall-time"],
            env=env, cwd=REPO_ROOT, capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].startswith(b"{")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
