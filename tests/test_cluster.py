"""Hash placement, relation keys, distribution, shuffle/broadcast ledger
accounting, and triple-store loading.

The hash constants below were computed once from the published FNV-1a
offset basis and prime and are frozen; the implementation must keep
producing them so that placements stay stable across releases.
"""

import pytest
from hypothesis import given, strategies as st

from sparqlsim import BasePartition, Cluster, TransferLedger, load_partitioned
from sparqlsim.cluster import (
    PlacementError, Relation, UnboundKeyError, broadcast, check_placement,
    fnv1a_64, key_hash64, node_of, render_key, shuffle, term_hash64,
)
from sparqlsim.ops import pjoin
from sparqlsim.terms import (
    BindingRow, H64, TERMS, Term, TermKind, Triple, blank, id_hash64, iri, lit,
    var,
)

from conftest import (
    D0, binding_row, decode_group, make_dataset, make_relation, node_triples,
)

A = iri("http://example.org/a")
ALICE = lit("Alice")
X, Y = var("x"), var("y")

# Frozen oracle values (FNV-1a over the canonical N-Triples form).
FNV_GOLDEN = {
    b"": 0xcbf29ce484222325,
    b"a": 0xaf63dc4c8601ec8c,
    b"<http://example.org/a>": 0x807d769437963d31,
}
TERM_A_HASH = 9258686787903438129
LITERAL_HASH = 17198266776516520319
PAIR_HASH = 11549084134138720310
NODE_GOLDEN = {  # (key vars, m) -> node for the row {x: A, y: "Alice"}
    (("x",), 1): 0, (("x",), 2): 1, (("x",), 4): 1, (("x",), 8): 1,
    (("x", "y"), 2): 0, (("x", "y"), 4): 2, (("x", "y"), 8): 6,
}


def test_fnv1a_64_matches_published_vectors():
    for data, expected in FNV_GOLDEN.items():
        assert fnv1a_64(data) == expected


def test_term_and_key_hashes_are_frozen():
    assert term_hash64(A) == TERM_A_HASH == fnv1a_64(b"<http://example.org/a>")
    assert term_hash64(ALICE) == LITERAL_HASH
    assert key_hash64((A,)) == term_hash64(A)
    assert key_hash64((A, ALICE)) == PAIR_HASH


def test_node_of_golden_values():
    row = binding_row({X: A, Y: ALICE})
    for (names, m), expected in NODE_GOLDEN.items():
        assert node_of(row, [var(n) for n in names], m) == expected


def test_node_of_is_a_function_of_the_key_set():
    row = binding_row({X: A, Y: ALICE})
    assert node_of(row, [X, Y], 8) == node_of(row, [Y, X], 8)


def test_node_of_errors():
    row = binding_row({X: A})
    with pytest.raises(UnboundKeyError):
        node_of(row, [Y], 4)
    with pytest.raises(ValueError):
        node_of(row, [], 4)
    with pytest.raises(ValueError):
        node_of(row, [X], 0)


def test_partition_states():
    # A layout is its key: a variable set, empty for random placement.
    assert render_key(frozenset({Y, X})) == "keyed{x,y}"
    assert render_key(frozenset()) == "random"
    rel = make_relation([X, Y], _rows(4), 2)
    with pytest.raises(ValueError, match="empty key"):
        shuffle(rel, [], TransferLedger())
    with pytest.raises(ValueError, match="nonempty join variable set"):
        pjoin(frozenset(), [rel, rel], TransferLedger())


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(0)


def _rows(count: int) -> list[BindingRow]:
    return [binding_row({X: iri(f"http://example.org/e{i}"),
                         Y: lit(f"v{i % 7}")})
            for i in range(count)]


def _decoded(chunk) -> list[BindingRow]:
    """A chunk of a relation over {x, y} as binding rows."""
    return [BindingRow(((X, TERMS[x]), (Y, TERMS[y]))) for x, y in chunk]


def test_distribute_keyed_places_rows_on_their_hash_node():
    rel = make_relation([X, Y], _rows(50), 4, key=[X])
    assert rel.count == 50
    assert rel.key == frozenset({X})
    for j, chunk in enumerate(rel.chunks):
        for row in _decoded(chunk):
            assert node_of(row, [X], 4) == j
    check_placement(rel)


def test_distribute_keyed_requires_bound_key():
    with pytest.raises(UnboundKeyError):
        make_relation([X, Y], _rows(5), 2, key=[var("zz")])


def test_shuffle_counts_modeled_and_actual_separately():
    rel = make_relation([X, Y], _rows(40), 4)
    ledger = TransferLedger()
    out = shuffle(rel, [X], ledger)
    assert out.key == frozenset({X})
    assert out.count == 40
    check_placement(out)
    totals = ledger.totals()
    assert totals["shuffled_modeled"] == 40
    # round-robin placement cannot already agree everywhere with the hash
    assert 0 < totals["shuffled_actual"] <= 40
    moved = sum(1 for j, chunk in enumerate(rel.chunks) for row in _decoded(chunk)
                if node_of(row, [X], 4) != j)
    assert totals["shuffled_actual"] == moved


def test_shuffle_of_already_keyed_relation_moves_nothing():
    rel = make_relation([X, Y], _rows(40), 4, key=[X])
    ledger = TransferLedger()
    shuffle(rel, [X], ledger)
    assert ledger.totals()["shuffled_modeled"] == 40   # modeled charges in full
    assert ledger.totals()["shuffled_actual"] == 0     # nothing actually moved


def test_shuffle_validates_key():
    rel = make_relation([X, Y], _rows(4), 2)
    with pytest.raises(ValueError):
        shuffle(rel, [], TransferLedger())
    with pytest.raises(ValueError):
        shuffle(rel, [var("zz")], TransferLedger())


def test_broadcast_charges_m_minus_one_copies():
    rel = make_relation([X, Y], _rows(20), 5)
    ledger = TransferLedger()
    copy = broadcast(rel, ledger)
    assert copy == tuple(rel.tuples())
    assert ledger.totals()["broadcast"] == 4 * 20
    # every broadcast ships its copies again
    broadcast(rel, ledger)
    assert ledger.totals()["broadcast"] == 2 * 4 * 20


def test_check_placement_rejects_misplaced_rows():
    rel = make_relation([X, Y], _rows(20), 4, key=[X])
    # swap two nonempty chunks to force misplacement
    chunks = list(rel.chunks)
    nonempty = [j for j, c in enumerate(chunks) if c]
    j0, j1 = nonempty[0], nonempty[1]
    chunks[j0], chunks[j1] = chunks[j1], chunks[j0]
    broken = type(rel)(rel.columns, tuple(chunks), rel.key)
    with pytest.raises(PlacementError):
        check_placement(broken)


def test_rows_must_bind_the_schema_in_variable_order():
    # Operators read key and output terms by position: a binding row is
    # encoded, in the relation's column order, only when it binds the
    # schema in variable order, and a row whose width differs from the
    # columns' fails the placement check.
    row = binding_row({X: A, Y: ALICE})
    assert make_relation([Y, X], [row], 1).chunks == (((ALICE.id, A.id),),)
    unsorted = BindingRow(((Y, iri("http://e/1")), (X, iri("http://e/2"))))
    for bad in (unsorted, binding_row({X: A})):
        with pytest.raises(ValueError, match="does not bind schema"):
            make_relation([X, Y], [bad], 2)
    narrow = Relation((X, Y), (((A.id,),), ()), frozenset())
    with pytest.raises(PlacementError):
        check_placement(narrow)


def test_ledger_totals_and_dict():
    ledger = TransferLedger()
    ledger.tally(scanned=10, shuffled_modeled=4, shuffled_actual=2)
    ledger.tally(broadcast=6)
    ledger.tally(scanned=5)
    assert ledger.totals() == {
        "scanned": 15, "shuffled_modeled": 4, "shuffled_actual": 2,
        "broadcast": 6}
    assert ledger.total_transfer == 10
    # a ledger is its four counters, so equal charges compare equal
    assert ledger == TransferLedger(15, 4, 2, 6)
    assert ledger != TransferLedger(15, 4, 2, 0)
    with pytest.raises(ValueError):
        ledger.tally(scanned=-1)
    assert ledger.totals()["scanned"] == 15   # a refused delta adds nothing


def test_load_partitioned_subject_places_by_subject_hash():
    dataset, cluster = make_dataset(D0, m=4, base=BasePartition.SUBJECT)
    assert dataset.size == len(D0)
    assert sum(dataset.node_counts()) == len(D0)
    for j, node in enumerate(node_triples(dataset)):
        for t in node:
            assert term_hash64(t.s) % 4 == j
    # same subject always lands on the same node
    a_nodes = {j for j, node in enumerate(node_triples(dataset))
               for t in node if t.s is A}
    assert len(a_nodes) == 1


def test_load_partitioned_other_bases():
    for base, pos in ((BasePartition.PREDICATE, 1), (BasePartition.OBJECT, 2)):
        dataset, _ = make_dataset(D0, m=4, base=base)
        for j, node in enumerate(node_triples(dataset)):
            for t in node:
                assert term_hash64(t[pos]) % 4 == j
    random_ds, _ = make_dataset(D0, m=4, base=BasePartition.RANDOM)
    assert random_ds.size == len(D0)
    assert max(random_ds.node_counts()) - min(random_ds.node_counts()) <= 1


# IRI text over an alphabet with slashes and non-ASCII characters, so the
# namespace split covers no slash, a trailing slash, empty local names and
# multi-byte UTF-8 on either side of the split.
_IRI_TEXT = st.text(alphabet=st.sampled_from("ab:#./é€中"), max_size=12)


@given(st.one_of(_IRI_TEXT, st.builds("{}/{}".format, _IRI_TEXT, _IRI_TEXT),
                 st.builds("{}/".format, _IRI_TEXT)))
def test_iri_hash_resumed_from_its_namespace_equals_the_full_hash(text):
    # A term new to the intern tables has no placement hash yet. The second
    # pass reads the hash kept for the first.
    for _ in range(2):
        term = Term(TermKind.IRI, text)
        assert term_hash64(term) == fnv1a_64(term.nt().encode("utf-8"))


_LITERAL_TEXT = st.text(alphabet=st.sampled_from('ab "\\\n\té€中'), max_size=8)


@given(st.one_of(
    st.builds(iri, st.one_of(_IRI_TEXT, st.builds("{}/".format, _IRI_TEXT))),
    st.builds(blank, st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,6}", fullmatch=True)),
    st.builds(lit, _LITERAL_TEXT),
    st.builds(lambda text, tag: lit(text, lang=tag), _LITERAL_TEXT,
              st.sampled_from(["en", "en-GB"])),
    st.builds(lambda text, iri_text: lit(text, datatype=iri_text), _LITERAL_TEXT,
              _IRI_TEXT)))
def test_kept_placement_hash_is_the_fnv_of_the_serialization(term):
    """The hash kept in H64 equals the reference FNV-1a of the term's
    N-Triples form for every kind: IRIs with no slash, a trailing slash or
    non-ASCII text, blank nodes and literals."""
    id_hash64(term.id)
    assert H64[term.id] == fnv1a_64(term.nt().encode("utf-8"))


def test_fnv1a_64_resumes_from_a_prefix_state():
    for data in FNV_GOLDEN:
        for cut in range(len(data) + 1):
            assert fnv1a_64(data[cut:], fnv1a_64(data[:cut])) == fnv1a_64(data)


_STORE_TERMS = [iri(f"http://example.org/n{i}") for i in range(4)] + [lit("v")]
_STORE_PREDICATES = [iri(f"http://example.org/p{i}") for i in range(4)]


_STORE_TRIPLES = st.lists(st.tuples(st.sampled_from(_STORE_TERMS[:4]),
                                     st.sampled_from(_STORE_PREDICATES),
                                     st.sampled_from(_STORE_TERMS)), max_size=40)


def _expected_placement(triples, m, base):
    """Each node's share of ``triples`` in load order, placed as ``base`` says."""
    pos = base.position
    want = [[] for _ in range(m)]
    for i, t in enumerate(triples):
        want[i % m if pos is None else term_hash64(t[pos]) % m].append(t)
    return want


def _by_first_predicate(triples):
    """``triples`` stably grouped by predicate, in order of first appearance."""
    order = dict.fromkeys(t.p for t in triples)
    return [t for p in order for t in triples if t.p == p]


@given(_STORE_TRIPLES, st.integers(1, 5))
def test_dataset_chunks_decode_to_the_partitioned_input(parts, m):
    """Each node's stored chunk (all its predicate groups) holds exactly the
    triples its base partitioning assigns to it."""
    triples = [Triple(*t) for t in parts]
    for base in BasePartition:
        dataset = load_partitioned(triples, Cluster(m), base)
        want = _expected_placement(triples, m, base)
        assert dataset.m == m and dataset.base is base
        assert dataset.node_counts() == [len(node) for node in want]
        assert dataset.size == len(triples)
        for node, expected in zip(node_triples(dataset), want, strict=True):
            assert node == _by_first_predicate(expected)


@given(_STORE_TRIPLES, st.integers(1, 5), st.sampled_from(list(BasePartition)))
def test_predicate_index_partitions_each_chunk_in_chunk_order(parts, m, base):
    """A node's predicate groups list predicates in order of first appearance
    and keep load order within each group."""
    triples = [Triple(*t) for t in parts]
    dataset = load_partitioned(triples, Cluster(m), base)
    assert len(dataset.groups) == m
    for groups, node in zip(dataset.groups,
                            _expected_placement(triples, m, base), strict=True):
        assert list(groups) == list(dict.fromkeys(t.p.id for t in node))
        for p, group in groups.items():
            assert decode_group(p, group) == [t for t in node if t.p.id == p]
        assert sum(len(subjects) for subjects, _ in groups.values()) == len(node)


@given(st.integers(1, 16), st.integers(0, 200))
def test_single_variable_key_hashes_like_the_bare_term(m, i):
    term = iri(f"http://example.org/e{i}")
    row = binding_row({X: term, Y: lit("pad")})
    assert node_of(row, [X], m) == term_hash64(term) % m


@given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(1, 8))
def test_distribute_keyed_satisfies_check_placement(ids, m):
    rows = [binding_row({X: iri(f"http://example.org/e{i}")})
            for i in ids]
    rel = make_relation([X], rows, m, key=[X])
    check_placement(rel)
    assert rel.count == len(rows)


def test_relation_counts_its_rows_once_outside_equality():
    rel = make_relation([X, Y], _rows(23), 4, start=1)
    assert rel.count == 23 == sum(map(len, rel.chunks))
    same = Relation(rel.columns, rel.chunks, rel.key)
    object.__setattr__(same, "count", 0)
    assert same == rel and hash(same) == hash(rel)
    assert "count" not in repr(rel)


def test_check_placement_rejects_a_stale_row_count():
    rel = make_relation([X, Y], _rows(10), 3, key=[X])
    check_placement(rel)
    object.__setattr__(rel, "count", 11)
    with pytest.raises(PlacementError, match="counts 11 rows, its chunks hold 10"):
        check_placement(rel)
