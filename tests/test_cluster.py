"""Hash placement, partition states, distribution, shuffle/broadcast ledger
accounting, and triple-store loading.

The hash constants below were computed once from the published FNV-1a
offset basis and prime and are frozen; the implementation must keep
producing them so that placements stay stable across releases.
"""

import pytest
from hypothesis import given, strategies as st

from sparqlsim import (
    BasePartition, BindingRow, Cluster, PlacementError, TransferLedger, iri,
    keyed, lit, load_partitioned, node_of, replicated, var,
)
from sparqlsim.cluster import (
    RANDOM_STATE, UnboundKeyError, broadcast, check_placement, distribute_keyed,
    distribute_random, fnv1a_64, key_hash64, replicate_rows, shuffle,
    term_hash64,
)

from conftest import D0, make_dataset

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
    row = BindingRow.from_mapping({X: A, Y: ALICE})
    for (names, m), expected in NODE_GOLDEN.items():
        assert node_of(row, [var(n) for n in names], m) == expected


def test_node_of_is_a_function_of_the_key_set():
    row = BindingRow.from_mapping({X: A, Y: ALICE})
    assert node_of(row, [X, Y], 8) == node_of(row, [Y, X], 8)


def test_node_of_errors():
    row = BindingRow.from_mapping({X: A})
    with pytest.raises(UnboundKeyError):
        node_of(row, [Y], 4)
    with pytest.raises(ValueError):
        node_of(row, [], 4)
    with pytest.raises(ValueError):
        node_of(row, [X], 0)


def test_partition_states():
    st_keyed = keyed([X, Y])
    assert st_keyed.is_keyed_on(frozenset({X, Y}))
    assert not st_keyed.is_keyed_on(frozenset({X}))
    assert not st_keyed.is_replicated
    assert st_keyed.render() == "keyed{x,y}"
    assert RANDOM_STATE.render() == "random"
    assert replicated().is_replicated
    assert "replicated" in replicated().render()


def test_cluster_validation():
    assert list(Cluster(3).nodes) == [0, 1, 2]
    with pytest.raises(ValueError):
        Cluster(0)


def _rows(count: int) -> list[BindingRow]:
    return [BindingRow.from_mapping({X: iri(f"http://example.org/e{i}"),
                                     Y: lit(f"v{i % 7}")})
            for i in range(count)]


def test_distribute_keyed_places_rows_on_their_hash_node():
    cluster = Cluster(4)
    rel = distribute_keyed([X, Y], _rows(50), [X], cluster)
    assert rel.count == 50
    assert rel.partition == keyed([X])
    for j, chunk in enumerate(rel.chunks):
        for row in chunk:
            assert node_of(row, [X], 4) == j
    check_placement(rel)


def test_distribute_keyed_requires_bound_key():
    with pytest.raises(UnboundKeyError):
        distribute_keyed([X, Y], _rows(5), [var("zz")], Cluster(2))


def test_shuffle_counts_modeled_and_actual_separately():
    cluster = Cluster(4)
    rel = distribute_random([X, Y], _rows(40), cluster)
    ledger = TransferLedger()
    out = shuffle(rel, [X], ledger, operator="probe")
    assert out.partition == keyed([X])
    assert out.count == 40
    check_placement(out)
    totals = ledger.totals()
    assert totals["shuffled_modeled"] == 40
    # round-robin placement cannot already agree everywhere with the hash
    assert 0 < totals["shuffled_actual"] <= 40
    moved = sum(1 for j, chunk in enumerate(rel.chunks) for row in chunk
                if node_of(row, [X], 4) != j)
    assert totals["shuffled_actual"] == moved
    assert ledger.per_operator["probe"].shuffled_modeled == 40


def test_shuffle_of_already_keyed_relation_moves_nothing():
    cluster = Cluster(4)
    rel = distribute_keyed([X, Y], _rows(40), [X], cluster)
    ledger = TransferLedger()
    shuffle(rel, [X], ledger)
    assert ledger.totals()["shuffled_modeled"] == 40   # modeled charges in full
    assert ledger.totals()["shuffled_actual"] == 0     # nothing actually moved


def test_shuffle_replicated_input_is_collapse_only():
    cluster = Cluster(3)
    rel = replicate_rows([X, Y], _rows(12), cluster)
    ledger = TransferLedger()
    out = shuffle(rel, [Y], ledger)
    assert out.count == 12
    assert ledger.totals()["shuffled_actual"] == 0
    check_placement(out)


def test_shuffle_validates_key():
    rel = distribute_random([X], _rows(4), Cluster(2))
    with pytest.raises(ValueError):
        shuffle(rel, [], TransferLedger())
    with pytest.raises(ValueError):
        shuffle(rel, [var("zz")], TransferLedger())


def test_broadcast_charges_m_minus_one_copies():
    cluster = Cluster(5)
    rel = distribute_random([X, Y], _rows(20), cluster)
    ledger = TransferLedger()
    out = broadcast(rel, ledger)
    assert out.partition.is_replicated
    assert all(len(chunk) == 20 for chunk in out.chunks)
    assert ledger.totals()["broadcast"] == 4 * 20
    # broadcasting again is free
    again = broadcast(out, ledger)
    assert again is out
    assert ledger.totals()["broadcast"] == 4 * 20
    check_placement(out)


def test_check_placement_rejects_misplaced_rows():
    cluster = Cluster(4)
    rel = distribute_keyed([X, Y], _rows(20), [X], cluster)
    # swap two nonempty chunks to force misplacement
    chunks = list(rel.chunks)
    nonempty = [j for j, c in enumerate(chunks) if c]
    j0, j1 = nonempty[0], nonempty[1]
    chunks[j0], chunks[j1] = chunks[j1], chunks[j0]
    broken = type(rel)(rel.schema, tuple(chunks), rel.partition)
    with pytest.raises(PlacementError):
        check_placement(broken)


def test_ledger_totals_and_dict():
    ledger = TransferLedger()
    ledger.tally("op1", scanned=10, shuffled_modeled=4, shuffled_actual=2)
    ledger.tally("op2", broadcast=6)
    ledger.tally("op1", scanned=5)
    assert ledger.totals() == {
        "scanned": 15, "shuffled_modeled": 4, "shuffled_actual": 2,
        "broadcast": 6}
    assert ledger.total_transfer == 10
    as_dict = ledger.as_dict()
    assert as_dict["scanned"] == 15
    by_op = {entry["operator"]: entry for entry in as_dict["per_operator"]}
    assert by_op["op1"]["scanned"] == 15
    assert by_op["op2"]["broadcast"] == 6
    with pytest.raises(ValueError):
        ledger.tally("op3", scanned=-1)


def test_load_partitioned_subject_places_by_subject_hash():
    dataset, cluster = make_dataset(D0, m=4, base=BasePartition.SUBJECT)
    assert dataset.size == len(D0)
    assert sum(dataset.node_counts()) == len(D0)
    for j, chunk in enumerate(dataset.chunks):
        for t in chunk:
            assert term_hash64(t[0]) % 4 == j
    # same subject always lands on the same node
    a_nodes = {j for j, chunk in enumerate(dataset.chunks)
               for t in chunk if t[0] is A}
    assert len(a_nodes) == 1


def test_load_partitioned_other_bases():
    for base, pos in ((BasePartition.PREDICATE, 1), (BasePartition.OBJECT, 2)):
        dataset, _ = make_dataset(D0, m=4, base=base)
        for j, chunk in enumerate(dataset.chunks):
            for t in chunk:
                assert term_hash64(t[pos]) % 4 == j
    random_ds, _ = make_dataset(D0, m=4, base=BasePartition.RANDOM)
    assert random_ds.size == len(D0)
    assert max(random_ds.node_counts()) - min(random_ds.node_counts()) <= 1


@given(st.integers(1, 16), st.integers(0, 200))
def test_single_variable_key_hashes_like_the_bare_term(m, i):
    term = iri(f"http://example.org/e{i}")
    row = BindingRow.from_mapping({X: term, Y: lit("pad")})
    assert node_of(row, [X], m) == term_hash64(term) % m


@given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(1, 8))
def test_distribute_keyed_satisfies_check_placement(ids, m):
    rows = [BindingRow.from_mapping({X: iri(f"http://example.org/e{i}")})
            for i in ids]
    rel = distribute_keyed([X], rows, [X], Cluster(m))
    check_placement(rel)
    assert rel.count == len(rows)
