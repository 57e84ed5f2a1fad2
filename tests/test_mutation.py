"""Hostile inputs: mutated ``.nt``, ``.rq`` and suite files run through the
CLI's ``main()`` in process. Whatever the mutation, the run ends in a
documented exit code, and a failing run prints exactly one ``error:`` line
and no traceback.

A mutation inserts, deletes or swaps characters, truncates, or appends a
byte that is not UTF-8; a suite file may also get a value of an odd type.
Inputs stay small: the data has a handful of triples, ``-m`` is at most 4,
and a suite whose parsed integers exceed 64 is skipped, so no example
generates a large workload.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparqlsim.cli import main

EXIT_CODES = (0, 2, 3, 4, 5)

DATA = (b'<http://e/s1> <http://e/p> <http://e/o1> .\n'
        b'<http://e/s1> <http://e/q> "a^^b"@en .\n'
        b'<http://e/s2> <http://e/p> _:b1 .\n'
        b'<http://e/s2> <http://e/q> "2"^^<http://e/int> .\n'
        b'_:b1 <http://e/p> <http://e/s1> .\n')
QUERY = (b'PREFIX e: <http://e/>\n'
         b'SELECT ?s ?v WHERE { ?s e:p ?o . ?s <http://e/q> ?v . ?o e:p ?w }\n')
SUITE = {"name": "hostile", "m": [2], "partitioning": "subject",
         "strategies": ["pjoin", "hybrid"],
         "workloads": [{"name": "w", "shape": "star", "pattern_count": 2,
                        "subject_count": 3, "filler": 1},
                       {"name": "c", "shape": "chain", "pattern_count": 4,
                        "subject_count": 2,
                        "profile": "alternating-frequent-rare"}]}

# Characters a mutation may insert; a suite file gets no digits, so no
# mutation makes one of its numbers larger.
TEXT_CHARS = '<>"\\ .:_@^#?${}()*\n\taeé0'
SUITE_CHARS = '{}[]",: \n\\.-aelnrstué'
ODD_VALUES = (None, True, False, 0, -1, 1.5, "", "pjoin", "star", [], {},
              [None], ["pjoin", 2], {"a": 1})


@st.composite
def mutated(draw, seed: bytes, chars: str) -> bytes:
    """``seed`` after one to three mutations."""
    data = seed
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "swap", "truncate", "xff")))
        i = draw(st.integers(0, len(data)))
        if kind == "insert":
            data = data[:i] + draw(st.sampled_from(chars)).encode() + data[i:]
        elif kind == "delete":
            data = data[:i] + data[i + 1:]
        elif kind == "swap":
            data = data[:i] + data[i + 1:i + 2] + data[i:i + 1] + data[i + 2:]
        elif kind == "truncate":
            data = data[:i]
        else:
            data += b"\xff"
    return data


@st.composite
def odd_suite(draw) -> bytes:
    """The seed suite with one value, at any depth, replaced by a value of
    another type."""
    suite = json.loads(json.dumps(SUITE))
    slots = [(suite, key) for key in suite]
    slots += [(suite["m"], 0), (suite["strategies"], 0)]
    for workload in suite["workloads"]:
        slots += [(workload, key) for key in workload]
    parent, key = draw(st.sampled_from(slots))
    parent[key] = draw(st.sampled_from(ODD_VALUES))
    return json.dumps(suite).encode()


def _integers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _integers(item)
    elif type(value) is int:
        yield value


def _small(suite: bytes) -> bool:
    """Whether every integer of ``suite`` is at most 64, when it parses."""
    try:
        parsed = json.loads(suite.decode("utf-8"))
    except ValueError:   # not UTF-8 or not JSON: nothing is generated
        return True
    return all(v <= 64 for v in _integers(parsed))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile")
    (path / "data.nt").write_bytes(DATA)
    (path / "query.rq").write_bytes(QUERY)
    return path


def _check(argv: list[str]) -> None:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in EXIT_CODES, (code, text)
    assert "Traceback" not in text
    if code:
        lines = text.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), text


_SETTINGS = settings(max_examples=120, deadline=None)


def test_seeds_run_cleanly(workdir):
    suite = workdir / "seed.json"
    suite.write_bytes(json.dumps(SUITE).encode())
    for argv in (["query", "data.nt", "query.rq", "-m", "2"],
                 ["explain", "data.nt", "query.rq", "--strategy", "all"],
                 ["bench", "--suite", "seed.json", "--no-wall-time"]):
        with redirect_stdout(io.StringIO()):
            assert main([str(workdir / a) if a.endswith((".nt", ".rq", ".json"))
                         else a for a in argv]) == 0


@_SETTINGS
@given(data=mutated(DATA, TEXT_CHARS), m=st.integers(1, 4),
       base=st.sampled_from(("subject", "object", "predicate", "random")))
# a form feed splits a line for str.splitlines, not for the parser
@example(data=DATA + b"foo\x0cbar\n", m=2, base="subject")
def test_mutated_data(workdir, data, m, base):
    path = workdir / "mutated.nt"
    path.write_bytes(data)
    _check(["query", str(path), str(workdir / "query.rq"), "-m", str(m),
            "--partition-key", base, "--strategy", "all", "--validate"])


@_SETTINGS
@given(query=mutated(QUERY, TEXT_CHARS), m=st.integers(1, 4),
       command=st.sampled_from(("query", "explain")))
def test_mutated_query(workdir, query, m, command):
    path = workdir / "mutated.rq"
    path.write_bytes(query)
    _check([command, str(workdir / "data.nt"), str(path), "-m", str(m),
            "--strategy", "all"])


@_SETTINGS
@given(suite=st.one_of(mutated(json.dumps(SUITE).encode(), SUITE_CHARS), odd_suite()))
# JSON decodes "\n" in a suite key, and "\u2028" in a strategy name, to a
# line break for str.splitlines
@example(suite=json.dumps(SUITE).replace('"name"', '"\\name"', 1).encode())
@example(suite=json.dumps(SUITE).replace('"filler"', '"\\nfiller"', 1).encode())
@example(suite=json.dumps(SUITE).replace('"hybrid"', '"hybrid\\u2028"', 1).encode())
def test_mutated_suite(workdir, suite):
    assume(_small(suite))
    path = workdir / "mutated.json"
    path.write_bytes(suite)
    _check(["bench", "--suite", str(path), "--no-wall-time"])
