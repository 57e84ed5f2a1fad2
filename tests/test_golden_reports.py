"""``bench --no-wall-time`` reports for the checked-in suites are
byte-identical to the golden files in ``tests/golden``.

The reports hold every ledger counter, plan and result count of each suite
cell, so a refactor that moves any of them fails here. A golden file is the
command's stdout, e.g.::

    PYTHONPATH=src python -m sparqlsim.cli bench \\
        --suite workloads/star-suite.json --no-wall-time \\
        > tests/golden/star-suite.json

and any change to one must be recorded in CHANGES.md.
"""

import pytest

from sparqlsim.cli import main

from conftest import REPO_ROOT, WORKLOAD_DIR


@pytest.mark.parametrize("suite", ["star-suite", "shape-suite"])
def test_bench_report_matches_golden(capsys, suite):
    code = main(["bench", "--suite", str(WORKLOAD_DIR / f"{suite}.json"),
                 "--no-wall-time"])
    out = capsys.readouterr().out
    assert code == 0
    golden = REPO_ROOT / "tests" / "golden" / f"{suite}.json"
    assert out == golden.read_text(encoding="utf-8")
