"""Command line interface: output formats, option round-trips, and the
documented exit codes (0 ok, 2 bad input, 3 unsupported query feature,
4 cross product, 5 reference evaluation over its row budget)."""

import dataclasses
import json
import re

import pytest

from sparqlsim import generate, serialize_ntriples, serialize_query, WorkloadSpec
from sparqlsim import cli
from sparqlsim.cli import main
from sparqlsim.cluster import MAX_NODE_COUNT

from conftest import (
    LITERAL_VIOLATION_QUERIES, NT_GRAMMAR_VIOLATIONS, QUERY_DIR, REPO_ROOT,
)


@pytest.fixture(scope="module")
def university_nt(tmp_path_factory):
    wl = generate(WorkloadSpec(name="uni", shape="snowflake", pattern_count=5,
                               subject_count=600))
    path = tmp_path_factory.mktemp("data") / "university.nt"
    path.write_text(serialize_ntriples(wl.triples), encoding="utf-8")
    return str(path)


Q8 = str(QUERY_DIR / "q8.rq")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- load

def test_load_reports_store_statistics(capsys, university_nt):
    code, out, err = run_cli(capsys, "load", university_nt, "-m", "4")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["triples"] == 2458
    assert payload["m"] == 4
    assert payload["partitioning"] == "subject"
    assert sum(payload["node_counts"]) == 2458
    assert len(payload["node_counts"]) == 4


def test_load_other_partitionings(capsys, university_nt):
    code, out, _ = run_cli(capsys, "load", university_nt, "-m", "2",
                           "--partition-key", "predicate")
    assert code == 0
    assert json.loads(out)["partitioning"] == "predicate"


# ------------------------------------------------------------------- query

def test_query_prints_rows_and_metrics(capsys, university_nt):
    code, out, err = run_cli(capsys, "query", university_nt, Q8,
                             "--strategy", "all")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "?x\t?y\t?z"
    *rows, metrics_line = lines[1:]
    assert len(rows) == 151
    assert rows == sorted(rows)
    assert all(len(r.split("\t")) == 3 for r in rows)

    metrics = json.loads(metrics_line)
    assert metrics["result_count"] == 151
    assert metrics["m"] == 4 and metrics["partitioning"] == "subject"
    by_name = {run["strategy"]: run for run in metrics["runs"]}
    assert set(by_name) == {"pjoin", "mono-br", "multi-br", "hybrid"}
    assert by_name["pjoin"]["transfer_total"] == 757
    assert by_name["mono-br"]["transfer_total"] == 3693
    assert by_name["multi-br"]["transfer_total"] == 936
    assert by_name["hybrid"]["transfer_total"] == 15
    assert by_name["hybrid"]["evaluations"] == 30
    assert "evaluations" not in by_name["pjoin"]
    for run in metrics["runs"]:
        assert run["cost_access"] == run["scanned"]          # unit thetas
        assert run["cost_transfer"] == (run["shuffled_modeled"]
                                        + run["broadcast"])
        assert run["cost_total"] == run["cost_access"] + run["cost_transfer"]
        assert "wall_ms" in run


def test_query_rejects_strategies_that_disagree(capsys, monkeypatch, university_nt):
    # Drop one row from the last strategy's result: the agreement check
    # compares the results as multisets of id tuples.
    run_query = cli.run_query

    def tampered(*args, **kwargs):
        results = run_query(*args, **kwargs)
        last = results[-1]
        rel = last.relation
        chunks = (rel.chunks[0][1:],) + rel.chunks[1:]
        return results[:-1] + [dataclasses.replace(
            last, relation=dataclasses.replace(rel, chunks=chunks))]

    monkeypatch.setattr(cli, "run_query", tampered)
    with pytest.raises(AssertionError, match="strategies disagree: pjoin vs hybrid"):
        main(["query", university_nt, Q8, "--strategy", "all"])


def test_query_single_strategy_no_header(capsys, university_nt):
    code, out, _ = run_cli(capsys, "query", university_nt, Q8,
                           "--strategy", "hybrid", "--no-header")
    assert code == 0
    lines = out.splitlines()
    assert not lines[0].startswith("?")
    assert len(lines) == 151 + 1
    metrics = json.loads(lines[-1])
    assert [run["strategy"] for run in metrics["runs"]] == ["hybrid"]
    assert metrics["runs"][0]["merged_scan_groups"] == [
        ["t1", "t2", "t3", "t4", "t5"]]


def test_query_matches_a_literal_with_carets_in_its_text(capsys, tmp_path):
    data = tmp_path / "carets.nt"
    data.write_text('<http://e/s> <http://e/p> "a^^b" .\n'
                    '<http://e/t> <http://e/p> "a" .\n', encoding="utf-8")
    query = tmp_path / "carets.rq"
    query.write_text('SELECT ?s WHERE { ?s <http://e/p> "a^^b" . }', encoding="utf-8")
    code, out, err = run_cli(capsys, "query", str(data), str(query), "--no-header")
    assert code == 0 and err == ""
    assert out.splitlines()[:-1] == ["<http://e/s>"]


def test_query_theta_scales_cost_not_counts(capsys, university_nt):
    code, out, _ = run_cli(capsys, "query", university_nt, Q8,
                           "--strategy", "pjoin", "--no-header",
                           "--theta-acc", "2.0", "--theta-comm", "0.5")
    assert code == 0
    run = json.loads(out.splitlines()[-1])["runs"][0]
    assert run["scanned"] == 5 * 2458
    assert run["transfer_total"] == 757
    assert run["cost_access"] == 2.0 * run["scanned"]
    assert run["cost_transfer"] == 0.5 * 757


def test_query_merge_scan_flag(capsys, university_nt, tmp_path):
    # the flag is gone: the merged-scan rule decides
    with pytest.raises(SystemExit) as exc:
        main(["query", university_nt, Q8, "--merge-scan", "off"])
    assert exc.value.code == 2
    capsys.readouterr()
    # q8: the shared pass reads 2458 + 5 x 1843 = 11673 < 5 x 2458 tuples
    code, out, _ = run_cli(capsys, "query", university_nt, Q8,
                           "--strategy", "hybrid", "--no-header")
    assert code == 0
    run = json.loads(out.splitlines()[-1])["runs"][0]
    assert run["scanned"] == 2458 + 5 * 1843
    assert run["merged_scan_groups"] == [["t1", "t2", "t3", "t4", "t5"]]
    # a star whose every triple matches a pattern: S is the whole store, so
    # sharing would read 6 x 150 > 5 x 150 tuples and each pattern scans once
    star = generate(WorkloadSpec(name="star", shape="star", pattern_count=5,
                                 subject_count=30))
    data, query = tmp_path / "star.nt", tmp_path / "star.rq"
    data.write_text(serialize_ntriples(star.triples), encoding="utf-8")
    query.write_text(serialize_query(star.query), encoding="utf-8")
    code, out, _ = run_cli(capsys, "query", str(data), str(query),
                           "--strategy", "hybrid", "--no-header")
    assert code == 0
    run = json.loads(out.splitlines()[-1])["runs"][0]
    assert run["scanned"] == 5 * 150
    assert "merged_scan_groups" not in run


# ----------------------------------------------------------------- explain

def test_explain_static_plan(capsys, university_nt):
    code, out, err = run_cli(capsys, "explain", university_nt, Q8,
                             "--strategy", "pjoin")
    assert code == 0 and err == ""
    assert "plan: Pjoin_x(Pjoin_y(t2,t3,t4),t1,t5)" in out
    assert "store: 2458 triples, m=4, subject-partitioned" in out
    assert "repartition:" in out


def test_explain_all_strategies(capsys, university_nt):
    code, out, _ = run_cli(capsys, "explain", university_nt, Q8,
                           "--strategy", "all")
    assert code == 0
    assert out.count("=" * 64) == 3
    assert "Brjoin_x,y(t1,t2,t3,t4,t5)" in out
    assert "opening step: Pjoin on {y} (t4, t2)" in out


# ------------------------------------------------------------------- bench

def test_bench_suite_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "bench",
                             "--suite", str(REPO_ROOT / "workloads" / "star-suite.json"),
                             "--out", str(out_path), "--no-wall-time")
    assert code == 0 and err == ""
    assert "wrote json report" in out
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["suite"] == "star-suite"
    assert len(payload["cells"]) == 48


def test_bench_adhoc_csv_to_stdout(capsys, university_nt):
    code, out, _ = run_cli(capsys, "bench", "--data", university_nt,
                           "--query", Q8, "-m", "2", "4",
                           "--report", "csv", "--no-wall-time")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("dataset,query,shape,strategy,m,")
    assert len(lines) == 1 + 2 * 4
    assert all(",verified" in line for line in lines[1:])
    assert lines[1].split(",")[2] == "snowflake"


def test_bench_suite_overrides(capsys):
    code, out, _ = run_cli(capsys, "bench",
                           "--suite", str(REPO_ROOT / "workloads" / "star-suite.json"),
                           "-m", "2", "--strategy", "hybrid",
                           "--partition-key", "object", "--no-wall-time")
    assert code == 0
    payload = json.loads(out)
    assert payload["partitioning"] == "object"
    assert {c["m"] for c in payload["cells"]} == {2}
    assert {c["strategy"] for c in payload["cells"]} == {"hybrid"}
    assert {c["partitioning"] for c in payload["cells"]} == {"object"}


def test_bench_requires_exactly_one_input_mode(capsys, university_nt):
    with pytest.raises(SystemExit):
        main(["bench"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["bench", "--suite", "x.json", "--data", university_nt,
              "--query", Q8])
    capsys.readouterr()


# -------------------------------------------------------------- exit codes

def test_exit_2_cross_product_option_with_suite(capsys):
    # Suite queries are generated connected, so the option could do nothing.
    code, out, err = run_cli(capsys, "bench",
                             "--suite", str(REPO_ROOT / "workloads" / "star-suite.json"),
                             "--allow-cross-product", "--no-wall-time")
    assert code == 2 and out == ""
    assert "--allow-cross-product applies to --data only" in err


def test_exit_2_missing_file(capsys, university_nt, tmp_path):
    code, _, err = run_cli(capsys, "query", "/nonexistent.nt", Q8)
    assert code == 2 and "no such file" in err
    code, _, err = run_cli(capsys, "query", university_nt, "/nonexistent.rq")
    assert code == 2
    # a directory where a file is read or written
    folder = str(tmp_path)
    suite = str(REPO_ROOT / "workloads" / "star-suite.json")
    for argv in (["load", folder], ["query", university_nt, folder],
                 ["bench", "--suite", folder],
                 ["bench", "--suite", suite, "-m", "2", "--strategy", "pjoin",
                  "--out", folder]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"cannot open {folder}" in err, argv


def test_bench_out_is_opened_before_the_grid_runs(capsys, monkeypatch, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", unreachable)
    suite = str(REPO_ROOT / "workloads" / "star-suite.json")
    code, out, err = run_cli(capsys, "bench", "--suite", suite, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert f"cannot open {tmp_path}" in err


def test_exit_2_malformed_data(capsys, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a> <http://b> .\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "load", str(bad))
    assert code == 2 and "bad.nt:1" in err


@pytest.mark.parametrize("line", NT_GRAMMAR_VIOLATIONS)
def test_exit_2_data_outside_the_n_triples_grammar(capsys, tmp_path, line):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://e/s> <http://e/p> <http://e/o> .\n" + line + "\n",
                   encoding="utf-8")
    for args in (["load", str(bad)], ["query", str(bad), str(QUERY_DIR / "q8.rq")]):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "") and "bad.nt:2" in err, args


@pytest.mark.parametrize("text", LITERAL_VIOLATION_QUERIES)
def test_exit_2_query_literal_outside_the_n_triples_grammar(capsys, university_nt,
                                                           tmp_path, text):
    bad = tmp_path / "bad.rq"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "query", university_nt, str(bad))
    assert (code, out) == (2, "") and "unrecognized token" in err


def test_exit_2_bench_data_without_query(capsys, university_nt):
    code, out, err = run_cli(capsys, "bench", "--data", university_nt)
    assert (code, out) == (2, "") and "--data needs --query" in err


@pytest.mark.parametrize("argv", [
    ["load", "{data}"], ["query", "{data}", Q8], ["explain", "{data}", Q8],
    ["bench", "--data", "{data}", "--query", Q8]])
def test_exit_2_zero_partitions(capsys, university_nt, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(data=university_nt) for a in argv] + ["-m", "0"])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("ran although the node count is out of bounds")


@pytest.mark.parametrize("argv", [
    ["load", "{data}", "-m", "{m}"], ["query", "{data}", Q8, "-m", "{m}"],
    ["explain", "{data}", Q8, "-m", "{m}"],
    ["bench", "--data", "{data}", "--query", Q8, "-m", "2", "{m}"],
    ["bench", "--suite", str(REPO_ROOT / "workloads" / "star-suite.json"),
     "-m", "{m}", "2"]])
@pytest.mark.parametrize("m, message", [
    *[(m, f"must be at most {MAX_NODE_COUNT}, got {m}")
      for m in (str(MAX_NODE_COUNT + 1), "100000000")],
    ("abc", "not an integer: 'abc'")],
    ids=[str(MAX_NODE_COUNT + 1), "100000000", "abc"])
def test_exit_2_node_count_above_the_bound(capsys, monkeypatch, university_nt,
                                           argv, m, message):
    # The option parser refuses the value, so no store or relation of m
    # node tables is ever allocated.
    for name in ("load_partitioned", "run_bench", "run_suite", "load_suite"):
        monkeypatch.setattr(cli, name, _never)
    with pytest.raises(SystemExit) as exc:
        main([a.format(data=university_nt, m=m) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_node_count_bound_is_inclusive_and_documented():
    args = cli.build_parser().parse_args(["load", "x.nt", "-m", str(MAX_NODE_COUNT)])
    assert args.partitions == MAX_NODE_COUNT
    assert f"1..{MAX_NODE_COUNT}" in cli.__doc__
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert f"`-m` above {MAX_NODE_COUNT}" in readme


@pytest.fixture(scope="module")
def star3_files(tmp_path_factory):
    wl = generate(WorkloadSpec(name="star-3", shape="star", pattern_count=3,
                               subject_count=60))
    folder = tmp_path_factory.mktemp("star3")
    (folder / "star-3.nt").write_text(serialize_ntriples(wl.triples), encoding="utf-8")
    (folder / "star-3.rq").write_text(serialize_query(wl.query), encoding="utf-8")
    return str(folder / "star-3.nt"), str(folder / "star-3.rq")


@pytest.mark.parametrize("limit, message", [
    ("-3", "must be at least 0, got -3"), ("x", "not an integer: 'x'")])
def test_exit_2_bad_verify_limit(capsys, monkeypatch, star3_files, limit, message):
    monkeypatch.setattr(cli, "run_bench", _never)
    data, query = star3_files
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", data, "--query", query, "--verify-limit", limit])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "--verify-limit" in errors[0] and message in errors[0]


def test_verify_limit_zero_skips_verification(capsys, star3_files):
    data, query = star3_files
    code, out, err = run_cli(capsys, "bench", "--data", data, "--query", query,
                             "--verify-limit", "0", "--no-wall-time")
    assert (code, err) == (0, "")
    assert {cell["status"] for cell in json.loads(out)["cells"]} == {"ok"}


@pytest.mark.parametrize("weight", ["-1", "nan", "inf", "x"])
def test_exit_2_bad_cost_weight(capsys, university_nt, weight):
    for option in ("--theta-acc", "--theta-comm"):
        with pytest.raises(SystemExit) as exc:
            main(["query", university_nt, Q8, option, weight])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


def test_exit_2_non_utf8_data(capsys, tmp_path):
    bad = tmp_path / "latin1.nt"
    bad.write_bytes('<http://a> <http://b> "caf\u00e9" .\n'.encode("latin-1"))
    for argv in (["load", str(bad)], ["query", str(bad), Q8],
                 ["bench", "--data", str(bad), "--query", Q8]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "not UTF-8" in err


@pytest.mark.parametrize("setting, workload_setting, message", [
    ('"merge_scan": "auto"', "", "unknown keys: merge_scan"),
    ('"partitioning": "diagonal"', "", "unknown partitioning 'diagonal'"),
    ('"strategies": ["pjoin", "zigzag"]', "", "unknown strategies: zigzag"),
    ('"m": [2, 0]', "", "must be at least 1, got 0"),
    ('"m": []', "", "'m' must list at least one node count"),
    ('"strategies": []', "", "'strategies' must list at least one strategy"),
    ('"m": [2]', ', "seed": 1', "workloads[0]: unknown keys: seed"),
    # A repeated key overrides the workload's own count.
    ('"m": [2]', ', "pattern_count": 3.5',
     "workloads[0]: pattern_count must be an integer, got 3.5"),
    ('"m": [2]', ', "filler": true', "workloads[0]: filler must be an integer, got True"),
    ('"m": [2.7]', "", "'m' must list integer node counts, got [2.7]"),
    ('"m": [4, false]', "", "'m' must list integer node counts, got [4, False]"),
    ('"m": [2, 1025, 100000000]', "",
     "must be at most 1024, got 1025, 100000000"),
    ('"strategies": "pjoin"', "", "'strategies' must list strategy names, got 'pjoin'"),
    ('"strategies": ["pjoin", 3]', "",
     "'strategies' must list strategy names, got ['pjoin', 3]"),
    ('"name": null', "", "'name' must be a string, got None"),
    ('"partitioning": null', "", "'partitioning' must be a string, got None"),
    ('"m": [2]', ', "name": 7', "workloads[0]: name must be a string, got 7"),
    ('"workloads": [1]', "", "workloads[0]: expected an object, got int")],
    ids=["unknown-key", "partitioning", "strategy", "m", "empty-m",
         "empty-strategies", "workload-seed", "float-pattern-count",
         "bool-filler", "float-m", "bool-m", "huge-m", "string-strategies",
         "int-strategy", "null-name", "null-partitioning", "int-workload-name",
         "int-workload"])
def test_exit_2_bad_suite_settings(capsys, tmp_path, setting, workload_setting,
                                   message):
    suite = tmp_path / "suite.json"
    suite.write_text('{"workloads": [{"name": "s", "shape": "star", '
                     '"pattern_count": 2, "subject_count": 3' + workload_setting
                     + "}], " + setting + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--suite", str(suite))
    assert code == 2 and out == ""
    assert message in err


def test_exit_2_malformed_query(capsys, university_nt, tmp_path):
    bad = tmp_path / "bad.rq"
    bad.write_text("SELECT ?x WHERE { ?x <http://p> }", encoding="utf-8")
    code, _, err = run_cli(capsys, "query", university_nt, str(bad))
    assert code == 2 and "error:" in err


def test_exit_3_unsupported_feature(capsys, university_nt, tmp_path):
    q = tmp_path / "filter.rq"
    q.write_text("SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y > 3) }",
                 encoding="utf-8")
    code, _, err = run_cli(capsys, "query", university_nt, str(q))
    assert code == 3 and "FILTER" in err


def test_exit_3_syntax_with_no_keyword(capsys, university_nt, tmp_path):
    q = tmp_path / "objects.rq"
    q.write_text("SELECT ?x WHERE { ?x <http://p> ?y , ?z . }", encoding="utf-8")
    code, out, err = run_cli(capsys, "query", university_nt, str(q))
    assert code == 3 and out == ""
    assert "unsupported SPARQL feature: object list at line 1" in err


def test_exit_5_reference_row_budget(capsys, tmp_path):
    # 1,001 x 1,001 star solutions on one subject: the reference evaluator
    # goes over its 1,000,000-row budget while verifying.
    s = "<http://e/s>"
    data = tmp_path / "wide.nt"
    data.write_text("".join(f'{s} <http://e/p{p}> "{i}" .\n'
                            for p in (1, 2) for i in range(1001)), encoding="utf-8")
    query = tmp_path / "star.rq"
    query.write_text("SELECT ?s WHERE { ?s <http://e/p1> ?a . ?s <http://e/p2> ?b . }",
                     encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--data", str(data),
                             "--query", str(query), "--strategy", "pjoin")
    assert code == 5 and out == ""
    assert "1000000 intermediate rows" in err


def test_exit_4_cross_product(capsys, university_nt, tmp_path):
    q = tmp_path / "cross.rq"
    q.write_text("SELECT ?a ?b WHERE { ?a <http://p> ?x . ?b <http://q> ?y . }",
                 encoding="utf-8")
    for command in ("query", "explain"):
        for strategy in ("all", "pjoin", "hybrid"):
            code, out, err = run_cli(capsys, command, university_nt, str(q),
                                     "--strategy", strategy)
            assert code == 4 and out == "" and "cross" in err.lower(), (command, strategy)
    code, out, err = run_cli(capsys, "query", university_nt, str(q),
                             "--allow-cross-product", "--no-header",
                             "--strategy", "hybrid")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["result_count"] == 0


# ------------------------------------------------------- pinned query output

_PINNED_DATA = "".join(
    f'<http://e/s{i}> <http://e/p> <http://e/o{i % 2}> .\n'
    f'<http://e/s{i}> <http://e/q> "v{i}" .\n' for i in range(4)
) + "<http://e/a> <http://e/r> <http://e/b> .\n"

# Two one-subject stars, 3x3 and 1x2 branches, for a bag of duplicate rows.
_DUPLICATE_ROWS_DATA = "".join(
    f'<http://e/{s}> <http://e/{p}> "{i}" .\n'
    for s, branches in (("t", (3, 3)), ("s", (1, 2)))
    for p, n in zip("mn", branches) for i in range(n))

_PINNED_QUERIES = {
    # The select list repeats ?x: the header and every row repeat its column.
    "repeated-select": (
        _PINNED_DATA,
        "SELECT ?x ?x ?y WHERE { ?x <http://e/p> ?y . ?x <http://e/q> ?z . }"),
    # A fully ground pattern selects a relation with no columns, joined
    # with the other pattern as a cross product.
    "ground-cross": (
        _PINNED_DATA,
        "SELECT ?x ?y WHERE { <http://e/a> <http://e/r> <http://e/b> . "
        "?x <http://e/p> ?y . }"),
    # Each subject's row occurs once per pair of branch values: 9 and 2 times.
    "duplicate-rows": (
        _DUPLICATE_ROWS_DATA,
        "SELECT ?s WHERE { ?s <http://e/m> ?a . ?s <http://e/n> ?b . }"),
}


@pytest.mark.parametrize("key", ["subject", "object", "random"])
@pytest.mark.parametrize("case", sorted(_PINNED_QUERIES))
def test_query_all_strategies_pinned_output(capsys, tmp_path, case, key):
    """``query --strategy all --validate`` stdout, less its wall times, is
    exactly ``tests/golden/query-<case>-<key>.txt``."""
    data_text, query_text = _PINNED_QUERIES[case]
    data = tmp_path / "data.nt"
    data.write_text(data_text, encoding="utf-8")
    query = tmp_path / "query.rq"
    query.write_text(query_text, encoding="utf-8")
    code, out, err = run_cli(capsys, "query", str(data), str(query),
                             "--strategy", "all", "--validate",
                             "--allow-cross-product", "--partition-key", key)
    assert code == 0 and err == ""
    got = re.sub(r',"wall_ms":[0-9.e-]+', "", out)
    golden = REPO_ROOT / "tests" / "golden" / f"query-{case}-{key}.txt"
    assert got == golden.read_text(encoding="utf-8")
