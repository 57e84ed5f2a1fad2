"""Physical operators on hand-checked data: selection, merged selection,
partitioned join, broadcast join, projection."""

import itertools

import pytest
from collections import Counter
from hypothesis import given, settings, strategies as st

from sparqlsim import BasePartition, TransferLedger, WorkloadSpec, generate
from sparqlsim.cluster import PlacementError, Relation, check_placement, shuffle
from sparqlsim.cost import brjoin_broadcast_size, pjoin_shuffle_size
from sparqlsim.logical import build_logical
from sparqlsim.ops import (
    SelectionSpec, brjoin, fold_order, merged_selection, pjoin,
    project, selection_state, shared_subset_size, triple_selection,
)
from sparqlsim.physical import plan_mono_brjoin
from sparqlsim.terms import (
    BindingRow, EMPTY_ROW, TERMS, Triple, TriplePattern, iri, lit, var,
)
from sparqlsim.workloads import snowflake_query

from conftest import (
    A, AGE, B, C, D0, EX, KNOWS, NAME, binding_row, encode_group,
    make_dataset, make_relation, match_binding, node_triples,
    snowflake_selection_sizes,
)

X, Y, N, G = var("x"), var("y"), var("n"), var("g")

P_KNOWS = TriplePattern(X, KNOWS, Y)
P_NAME = TriplePattern(X, NAME, N)
P_AGE = TriplePattern(Y, AGE, G)
P_GROUND = TriplePattern(A, KNOWS, Y)
P_SELF = TriplePattern(X, KNOWS, X)


def _specs(patterns) -> list[SelectionSpec]:
    """The plan leaves of ``patterns``, indexed in list order."""
    return [SelectionSpec(i, p) for i, p in enumerate(patterns)]


def rows(rel) -> Counter:
    return Counter(rel.rows())


def expected_knows() -> Counter:
    return Counter([
        binding_row({X: A, Y: B}),
        binding_row({X: A, Y: C}),
        binding_row({X: B, Y: C}),
    ])


def _matching_rows(pattern, triples, columns) -> tuple:
    """The rows the reference matcher finds in ``triples``, in order, as
    the ids of ``columns``."""
    return tuple(tuple(binding[v].id for v in columns)
                 for binding in (match_binding(pattern, t) for t in triples)
                 if binding is not None)


def test_selection_spec_compile():
    spec = SelectionSpec(2, P_KNOWS)
    assert spec.label == "t3"
    assert spec.columns == (X, Y)
    assert SelectionSpec(0, TriplePattern(Y, KNOWS, X)).columns == (Y, X)
    assert spec.predicate == KNOWS.id
    knows = Triple(A, KNOWS, B)
    # x, y: first-position order
    assert tuple(spec.rows_in(KNOWS.id, encode_group([knows]))) \
        == _matching_rows(P_KNOWS, [knows], spec.columns) == ((A.id, B.id),)
    assert _matching_rows(P_KNOWS, [Triple(A, NAME, lit("A"))], spec.columns) == ()
    assert [s.label for s in _specs([P_KNOWS, P_NAME])] == ["t1", "t2"]


def test_selection_same_variable_twice_requires_equality():
    spec = SelectionSpec(0, P_SELF)
    loop = iri(EX + "loop")
    group = [Triple(loop, KNOWS, loop), Triple(A, KNOWS, B)]
    assert spec.columns == (X,)
    assert tuple(spec.rows_in(KNOWS.id, encode_group(group))) \
        == _matching_rows(P_SELF, group, spec.columns) == ((loop.id,),)


def test_triple_selection_rows_and_accounting():
    dataset, _ = make_dataset(D0, m=4)
    ledger = TransferLedger()
    rel = triple_selection(SelectionSpec(0, P_KNOWS), dataset, ledger)
    assert rows(rel) == expected_knows()
    assert rel.key == frozenset({X})       # subject-partitioned store
    check_placement(rel)
    assert ledger.totals() == {"scanned": 6, "shuffled_modeled": 0,
                               "shuffled_actual": 0, "broadcast": 0}
    assert ledger == TransferLedger(scanned_tuples=6)


def test_selection_state_depends_on_base_partition():
    for base, spec, state in [
        (BasePartition.SUBJECT, SelectionSpec(0, P_KNOWS), frozenset({X})),
        (BasePartition.OBJECT, SelectionSpec(0, P_KNOWS), frozenset({Y})),
        (BasePartition.PREDICATE, SelectionSpec(0, P_KNOWS), frozenset()),
        (BasePartition.SUBJECT, SelectionSpec(0, P_GROUND), frozenset()),
        (BasePartition.RANDOM, SelectionSpec(0, P_KNOWS), frozenset()),
    ]:
        dataset, _ = make_dataset(D0, m=4, base=base)
        assert selection_state(spec, dataset) == state, (base, spec.pattern)


def test_selection_with_ground_subject():
    dataset, _ = make_dataset(D0, m=4)
    rel = triple_selection(SelectionSpec(0, P_GROUND), dataset,
                           TransferLedger())
    assert rows(rel) == Counter([binding_row({Y: B}), binding_row({Y: C})])


def test_merged_selection_matches_individual_selections():
    filler = [Triple(iri(EX + f"f{i}"), iri(EX + "other"), iri(EX + f"g{i}"))
              for i in range(4)]
    dataset, _ = make_dataset(D0 + filler, m=4)
    specs = _specs([P_KNOWS, P_NAME, P_AGE])

    merged_ledger = TransferLedger()
    assert shared_subset_size(specs, dataset) == 6   # every D0 triple matches a pattern
    merged = merged_selection(specs, dataset, merged_ledger, 6)
    assert merged_ledger.totals()["scanned"] == 10 + 3 * 6

    plain_ledger = TransferLedger()
    plain = [triple_selection(s, dataset, plain_ledger) for s in specs]
    assert plain_ledger.totals()["scanned"] == 3 * 10
    for got, want in zip(merged, plain):
        assert rows(got) == rows(want)
        assert got.key == want.key


_P = var("p")
_SEL_PREDICATES = [iri(EX + f"sp{i}") for i in range(5)]
_SEL_ABSENT = iri(EX + "absent")                 # never in a store
_SEL_NODES = [iri(EX + f"sn{i}") for i in range(3)] + _SEL_PREDICATES[:2]
_SEL_OBJECTS = _SEL_NODES + [lit("v")]


@st.composite
def _store(draw):
    """A random store over 3-5 predicates (subjects include predicates, so
    ``?x ?x ?o`` can match), loaded under any base partition on 1-5 nodes."""
    preds = draw(st.lists(st.sampled_from(_SEL_PREDICATES), min_size=3,
                          max_size=5, unique=True))
    triples = [Triple(*t) for t in draw(st.lists(
        st.tuples(st.sampled_from(_SEL_NODES), st.sampled_from(preds),
                  st.sampled_from(_SEL_OBJECTS)), max_size=40))]
    base = draw(st.sampled_from(list(BasePartition)))
    return make_dataset(triples, m=draw(st.integers(1, 5)), base=base)


def _pattern(ground_predicate):
    """Patterns with a ground or variable predicate, ground subjects and
    objects, and repeated variables (``?x p ?x``, ``?x ?x ?o``)."""
    if ground_predicate:
        predicate = st.sampled_from(_SEL_PREDICATES + [_SEL_ABSENT])
    else:
        predicate = st.sampled_from([X, _P])
    return st.builds(TriplePattern,
                     st.sampled_from([X, Y] + _SEL_NODES[:3] + _SEL_PREDICATES[:1]),
                     predicate,
                     st.sampled_from([X, Y, N] + _SEL_OBJECTS[:1] + _SEL_OBJECTS[-1:]))


_ANY_PATTERN = st.booleans().flatmap(_pattern)


@settings(max_examples=150, deadline=None)
@given(_store(), _ANY_PATTERN)
def test_triple_selection_reads_the_rows_a_full_scan_finds(store, pattern):
    dataset, _ = store
    spec = SelectionSpec(0, pattern)
    ledger = TransferLedger()
    rel = triple_selection(spec, dataset, ledger)
    # the pattern's variables in first-position order
    assert rel.columns == tuple(dict.fromkeys(
        t for t in pattern if t.is_variable))
    for j, node in enumerate(node_triples(dataset)):
        # every node, predicate groups in order, load order within a group
        assert rel.chunks[j] == _matching_rows(pattern, node, rel.columns)
    assert rel.key == selection_state(spec, dataset)
    check_placement(rel)
    assert ledger.totals()["scanned"] == dataset.size


@settings(max_examples=150, deadline=None)
@given(_store(), _pattern(True), _pattern(False),
       st.lists(_ANY_PATTERN, max_size=3))
def test_merged_selection_equals_independent_selections(store, ground, general, more):
    dataset, _ = store
    specs = _specs([ground, general] + more)
    ledger = TransferLedger()
    size = shared_subset_size(specs, dataset)
    merged = merged_selection(specs, dataset, ledger, size)
    for spec, got in zip(specs, merged):
        want = triple_selection(spec, dataset, TransferLedger())
        assert got.chunks == want.chunks
        assert got.key == want.key
        check_placement(got)
    # |S| counts the stored triples that match at least one pattern.
    assert size == sum(any(match_binding(s.pattern, t) is not None for s in specs)
                       for node in node_triples(dataset) for t in node)
    assert ledger.totals()["scanned"] == dataset.size + len(specs) * size


def test_merged_selection_single_pattern_degenerates_to_plain_scan():
    dataset, _ = make_dataset(D0, m=2)
    ledger = TransferLedger()
    specs = _specs([P_KNOWS])
    assert shared_subset_size(specs, dataset) == 3
    merged = merged_selection(specs, dataset, ledger, 3)
    assert ledger.totals()["scanned"] == 6 + 3
    assert rows(merged[0]) == expected_knows()


def _selections(m=4, base=BasePartition.SUBJECT):
    dataset, _ = make_dataset(D0, m=m, base=base)
    ledger = TransferLedger()
    specs = _specs([P_KNOWS, P_NAME, P_AGE])
    rels = [triple_selection(s, dataset, ledger) for s in specs]
    return ledger, rels


def test_pjoin_colocated_inputs_move_nothing():
    ledger, (knows, name, _) = _selections()
    before = ledger.totals()["scanned"]
    out = pjoin(frozenset({X}), [knows, name], ledger)
    assert rows(out) == Counter([
        binding_row({X: A, Y: B, N: lit("A")}),
        binding_row({X: A, Y: C, N: lit("A")}),
        binding_row({X: B, Y: C, N: lit("B")}),
    ])
    assert out.key == frozenset({X})
    check_placement(out)
    totals = ledger.totals()
    assert totals["shuffled_modeled"] == 0 and totals["broadcast"] == 0
    assert totals["scanned"] == before      # joins never scan the base store


def test_pjoin_shuffles_inputs_not_keyed_on_the_join_set():
    _, (knows, _, age) = _selections()
    charges = TransferLedger()
    out = pjoin(frozenset({Y}), [knows, age], charges)
    assert rows(out) == Counter([
        binding_row({X: A, Y: C, G: lit("7")}),
        binding_row({X: B, Y: C, G: lit("7")}),
    ])
    # knows is keyed{x} and reships in full; age has y at its subject, so it
    # is already keyed on the join set and stays put
    assert charges.shuffled_tuples_modeled == 3
    assert charges.scanned_tuples == charges.broadcast_tuples == 0
    assert out.key == frozenset({Y})
    check_placement(out)


def test_pjoin_requires_join_vars_in_every_schema():
    ledger, (knows, name, age) = _selections()
    with pytest.raises(ValueError, match="not a join variable"):
        pjoin(frozenset({N}), [knows, name], ledger)
    with pytest.raises(ValueError):
        pjoin(frozenset(), [knows, name], ledger)
    with pytest.raises(ValueError):
        pjoin(frozenset({X}), [knows], ledger)


def test_brjoin_broadcasts_non_targets_and_keeps_target_state():
    _, (knows, name, _) = _selections()
    charges = TransferLedger()
    out = brjoin([name, knows], target_index=1, ledger=charges)
    assert rows(out) == Counter([
        binding_row({X: A, Y: B, N: lit("A")}),
        binding_row({X: A, Y: C, N: lit("A")}),
        binding_row({X: B, Y: C, N: lit("B")}),
    ])
    assert out.key == knows.key
    assert charges.broadcast_tuples == (4 - 1) * 2
    assert charges.shuffled_tuples_modeled == 0
    check_placement(out)


def test_brjoin_join_vars_need_not_cover_every_schema():
    ledger, (knows, name, age) = _selections()
    out = brjoin([name, age, knows], target_index=2, ledger=ledger)
    assert rows(out) == Counter([
        binding_row({X: A, Y: C, N: lit("A"), G: lit("7")}),
        binding_row({X: B, Y: C, N: lit("B"), G: lit("7")}),
    ])


def test_brjoin_cross_product_is_opt_in():
    # Planners opt in (logical.check_cross); brjoin itself joins
    # inputs that share no variable as their cross product.
    ledger, (_, name, age) = _selections()
    out = brjoin([name, age], target_index=1, ledger=ledger)
    assert out.count == 2 * 1
    assert out.schema == frozenset({X, N, Y, G})


def test_brjoin_target_index_validated():
    ledger, (knows, name, _) = _selections()
    with pytest.raises(IndexError):
        brjoin([knows, name], target_index=2, ledger=ledger)


def test_joins_reject_inputs_on_different_node_counts():
    # The same star selections read from an m=2 and an m=4 store: a join
    # reads m from its inputs, so mixing them is an error, not a join over
    # whichever node count the driver happens to have.
    star = generate(WorkloadSpec(name="star", shape="star", pattern_count=2,
                                 subject_count=50))
    specs = _specs(star.query.patterns)
    on = frozenset({var("x")})
    by_m = {}
    for m in (2, 4):
        dataset, _ = make_dataset(star.triples, m=m)
        by_m[m] = [triple_selection(s, dataset, TransferLedger()) for s in specs]
    assert pjoin(on, by_m[4], TransferLedger()).count == 50
    mixed = [by_m[2][0], by_m[4][1]]
    with pytest.raises(ValueError, match="different node counts"):
        pjoin(on, mixed, TransferLedger())
    for target in (0, 1):
        with pytest.raises(ValueError, match="different node counts"):
            brjoin(mixed, target, TransferLedger())


_NO_TRANSFER = {"scanned": 0, "shuffled_modeled": 0, "shuffled_actual": 0,
                "broadcast": 0}


def test_a_refused_join_charges_no_transfer():
    # The node counts are checked before any input is staged: a join that
    # raises has shuffled and broadcast nothing.
    star = generate(WorkloadSpec(name="star", shape="star", pattern_count=2,
                                 subject_count=50))
    specs = _specs(star.query.patterns)
    on = frozenset({var("x")})
    by_m = {}
    for m in (2, 4):
        # Random placement: every selection needs a shuffle to join on x.
        dataset, _ = make_dataset(star.triples, m=m, base=BasePartition.RANDOM)
        by_m[m] = [triple_selection(s, dataset, TransferLedger()) for s in specs]
    mixed = [by_m[2][0], by_m[4][1]]
    assert all(rel.key != on for rel in mixed)
    ledger = TransferLedger()
    with pytest.raises(ValueError, match="different node counts"):
        pjoin(on, mixed, ledger)
    assert ledger.totals() == _NO_TRANSFER
    for target in (0, 1):
        ledger = TransferLedger()
        with pytest.raises(ValueError, match="different node counts"):
            brjoin(mixed, target, ledger)
        assert ledger.totals() == _NO_TRANSFER


def test_project_is_bag_semantics_and_tracks_key():
    ledger, (knows, _, _) = _selections()
    onto_x = project(knows, [X])
    assert rows(onto_x) == Counter([binding_row({X: A})] * 2
                                   + [binding_row({X: B})])
    assert onto_x.key == frozenset({X})    # key survives
    onto_y = project(knows, [Y])
    assert onto_y.key == frozenset()   # key projected away
    assert onto_y.count == 3
    with pytest.raises(ValueError, match=r"outside the schema: \?g"):
        project(knows, [X, G])


def test_fold_order_on_q8_mono_brjoin_starts_at_target_and_stays_connected():
    # Inputs t1(x), t2(y), t3(x,y), t4(y) with target t5(x,z): folding in
    # plan order would join t1 with t2 as a cross product on every node.
    query = snowflake_query()
    sizes = snowflake_selection_sizes(1500)
    root = plan_mono_brjoin(build_logical(query.patterns).tree, sizes).root
    schemas = [child.vars for child in root.children]
    counts = [sizes[child.index] for child in root.children]
    order = fold_order(schemas, counts, root.target)

    assert sorted(order) == list(range(len(schemas)))
    assert order[0] == root.target
    folded = set(schemas[order[0]])
    for i in order[1:]:
        assert folded & schemas[i], f"t{root.children[i].index + 1} folded disconnected"
        folded |= schemas[i]
    assert [root.children[i].label for i in order] == ["t5", "t1", "t3", "t4", "t2"]


def test_fold_order_takes_a_disconnected_input_only_when_nothing_else_joins():
    schemas = [frozenset({X}), frozenset(), frozenset({Y}), frozenset({X, Y})]
    assert fold_order(schemas, [5, 1, 1, 9], 0) == [0, 3, 2, 1]
    assert fold_order(schemas, [5, 1, 1, 9], 1) == [1, 2, 3, 0]


_JOIN_VARS = (X, Y, N, G)
_JOIN_TERMS = tuple(iri(EX + f"v{i}") for i in range(3))


@st.composite
def _join_case(draw, kind):
    """A pjoin or brjoin over 2-4 small random relations on m nodes."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    subsets = st.frozensets(st.sampled_from(_JOIN_VARS), max_size=3)
    if kind == "pjoin":
        on = draw(subsets.filter(bool))
        schemas = [on | draw(subsets) for _ in range(k)]
    else:
        schemas = [draw(subsets) for _ in range(k)]
        shared = [a & b for a, b in itertools.combinations(schemas, 2)]
        on = frozenset().union(*shared)
    inputs = []
    for schema in schemas:
        order = sorted(schema)
        values = st.tuples(*[st.sampled_from(_JOIN_TERMS) for _ in order])
        rows = [BindingRow(tuple(zip(order, vals)))
                for vals in draw(st.lists(values, max_size=5))]
        if schema and draw(st.booleans()):
            key = draw(st.frozensets(st.sampled_from(order), min_size=1))
            inputs.append(make_relation(order, rows, m, key=key))
        else:
            inputs.append(make_relation(order, rows, m,
                                        start=draw(st.integers(0, 4))))
    return on, inputs, m


def _nested_loop_join(inputs) -> Counter:
    acc = [{}]
    for rel in inputs:
        acc = [{**left, **dict(right)} for left in acc for right in rel.rows()
               if all(left.get(v, t) == t for v, t in right)]
    return Counter(binding_row(d) for d in acc)


@settings(max_examples=60, deadline=None)
@given(_join_case("pjoin"))
def test_pjoin_is_the_natural_join_in_any_input_order(case):
    on, inputs, m = case
    expected = _nested_loop_join(inputs)
    for perm in itertools.permutations(inputs):
        ledger = TransferLedger()
        out = pjoin(on, list(perm), ledger)
        check_placement(out)
        assert rows(out) == expected
        sized = [(rel.count, rel.key) for rel in perm]
        assert ledger.shuffled_tuples_modeled == pjoin_shuffle_size(sized, on)
        assert ledger.broadcast_tuples == 0


@settings(max_examples=60, deadline=None)
@given(_join_case("brjoin"))
def test_brjoin_is_the_natural_join_for_any_target_and_input_order(case):
    _, inputs, m = case
    expected = _nested_loop_join(inputs)
    for perm in itertools.permutations(inputs):
        sized = [(rel.count, rel.key) for rel in perm]
        for target in range(len(perm)):
            ledger = TransferLedger()
            out = brjoin(list(perm), target, ledger)
            check_placement(out)
            assert rows(out) == expected
            assert ledger.broadcast_tuples == brjoin_broadcast_size(sized, target, m)
            assert ledger.shuffled_tuples_modeled == 0


def test_brjoin_cross_product_with_an_all_ground_pattern():
    # An all-ground pattern selects rows with an empty schema; joining it is
    # a cross product that repeats every row once per match.
    ledger, (knows, _, _) = _selections()
    ground = make_relation((), [EMPTY_ROW, EMPTY_ROW], knows.m)
    for inputs, target in (([ground, knows], 1), ([knows, ground], 0),
                           ([knows, ground], 1)):
        out = brjoin(inputs, target, ledger)
        check_placement(out)
        assert rows(out) == Counter({row: 2 for row in expected_knows()})


def _with_columns(rel, columns) -> Relation:
    """``rel`` laid out over ``columns``, a permutation of its own: the same
    rows on the same nodes, under the same key."""
    positions = [rel.columns.index(v) for v in columns]
    chunks = tuple(tuple(tuple(row[i] for i in positions) for row in chunk)
                   for chunk in rel.chunks)
    return Relation(tuple(columns), chunks, rel.key)


def _by_node(rel) -> list[Counter]:
    """Each node's rows as binding rows, decoded through the columns."""
    return [Counter(binding_row(
                {v: TERMS[i] for v, i in zip(rel.columns, row)}) for row in chunk)
            for chunk in rel.chunks]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_join_case("pjoin"), _join_case("brjoin")), st.data())
def test_operators_give_the_same_result_under_any_column_order(case, data):
    # The inputs are built over sorted columns; the same inputs with every
    # relation's columns permuted must give the same rows on the same
    # nodes, the same ledger and the same key from every
    # operator.
    on, inputs, m = case
    permuted = [_with_columns(rel, data.draw(st.permutations(rel.columns)))
                for rel in inputs]

    def same(run):
        outcomes = []
        for rels in (inputs, permuted):
            ledger = TransferLedger()
            out = run(rels, ledger)
            check_placement(out)
            outcomes.append((_by_node(out), ledger.totals(), out.key))
        assert outcomes[0] == outcomes[1]

    def select_from(variables):
        # a select list over the variables, possibly repeating one
        if not variables:
            return []
        return data.draw(st.lists(st.sampled_from(sorted(variables)), max_size=4))

    for i, rel in enumerate(inputs):
        if rel.schema:
            key = data.draw(st.frozensets(st.sampled_from(rel.columns), min_size=1))
            same(lambda rels, ledger: shuffle(rels[i], key, ledger))
        select = select_from(rel.schema)
        same(lambda rels, ledger: project(rels[i], select))
    union = frozenset().union(*(rel.schema for rel in inputs))
    if on and all(on <= rel.schema for rel in inputs):
        select = select_from(union)
        same(lambda rels, ledger: project(pjoin(on, rels, ledger), select))
    for target in range(len(inputs)):
        select = select_from(union)
        same(lambda rels, ledger: project(
            brjoin(rels, target, ledger), select))


def test_check_placement_rejects_repeated_or_misfit_columns():
    rel = make_relation([X, Y], [binding_row({X: A, Y: B})], 2)
    check_placement(rel)
    repeated = Relation((X, Y, X), tuple(tuple(row + row[:1] for row in chunk)
                                         for chunk in rel.chunks), frozenset())
    with pytest.raises(PlacementError, match="repeat a variable"):
        check_placement(repeated)
    for width in (1, 3):
        misfit = Relation((X, Y), tuple(tuple((row * 2)[:width] for row in chunk)
                                        for chunk in rel.chunks), frozenset())
        with pytest.raises(PlacementError, match="terms for columns"):
            check_placement(misfit)
