"""Grouping trees (grouping by join variable) and shape classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparqlsim import (
    CartesianProductError, Shape, build_logical, classify_shape, iri,
    parse_query, snowflake_query, var,
)
from sparqlsim.logical import connected_components, join_variables
from sparqlsim.physical import (
    BrjoinNode, PjoinNode, SelectionNode, plan_leaves, plan_pjoin_strategy,
)
from sparqlsim.terms import TriplePattern

E = "http://e/"


def pat(s, p, o) -> TriplePattern:
    def term(t):
        return var(t[1:]) if t.startswith("?") else iri(E + t)
    return TriplePattern(term(s), term(p), term(o))


def test_join_variables_orders_by_pattern_mentions():
    patterns = snowflake_query().patterns
    jv = join_variables(patterns)
    assert jv == {var("x"): [0, 2, 4], var("y"): [1, 2, 3]}
    # z appears in only one pattern: not a join variable
    assert var("z") not in jv


def test_connected_components():
    p1 = pat("?a", "p", "?b")
    p2 = pat("?b", "p", "?c")
    p3 = pat("?d", "p", "?e")
    assert connected_components([p1, p2, p3]) == [[0, 1], [2]]
    assert connected_components([p1, p3, p2]) == [[0, 2], [1]]
    assert connected_components([p1]) == [[0]]


def test_build_logical_rejects_cross_products_by_default():
    patterns = [pat("?a", "p", "?b"), pat("?c", "p", "?d")]
    with pytest.raises(CartesianProductError) as err:
        build_logical(patterns)
    assert err.value.components == 2
    root = build_logical(patterns, allow_cross=True)
    assert isinstance(root, BrjoinNode) and root.cross and not root.on
    assert len(root.children) == 2 and root.target == 1


def test_build_logical_snowflake_grouping():
    """The department-side variable finishes being mentioned first, so its
    group joins first and the student-side group consumes it."""
    root = build_logical(snowflake_query().patterns)
    assert isinstance(root, PjoinNode)
    assert root.on == frozenset({var("x")})
    inner, t1, t5 = root.children
    assert isinstance(inner, PjoinNode)
    assert inner.on == frozenset({var("y")})
    assert [leaf.index for leaf in inner.children] == [1, 2, 3]
    assert (t1.index, t5.index) == (0, 4)


def test_build_logical_chain_is_left_deep_from_the_front():
    patterns = [pat("?x1", "p1", "?x2"), pat("?x2", "p2", "?x3"),
                pat("?x3", "p3", "?x4")]
    root = build_logical(patterns)
    # x2 completes first -> join(t1,t2), then x3 joins t3 onto it
    assert isinstance(root, PjoinNode) and root.on == frozenset({var("x3")})
    inner = root.children[0]
    assert isinstance(inner, PjoinNode) and inner.on == frozenset({var("x2")})
    assert [l.index for l in inner.children] == [0, 1]
    assert root.children[1].index == 2


_TERMS = tuple(var(f"v{i}") for i in range(5)) + (iri(E + "c0"), iri(E + "c1"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TERMS),
                          st.sampled_from(_TERMS + (iri(E + "p0"), iri(E + "p1"))),
                          st.sampled_from(_TERMS)),
                min_size=1, max_size=8))
def test_grouping_tree_is_a_pjoin_plan(triples):
    """On any BGP, cross products allowed: the grouping tree holds only plan
    nodes, each pattern is one leaf, a broadcast join appears only as the
    cross-product root, no partitioned join has a child on its own key, and
    the partitioned plan is the tree itself."""
    patterns = [TriplePattern(*t) for t in triples]
    tree = build_logical(patterns, allow_cross=True)
    assert sorted(leaf.index for leaf in plan_leaves(tree)) == list(range(len(patterns)))
    cross = len(connected_components(patterns)) > 1
    assert isinstance(tree, BrjoinNode) == cross

    def walk(node, is_root):
        if isinstance(node, SelectionNode):
            assert node.pattern == patterns[node.index]
            return
        if isinstance(node, BrjoinNode):
            assert is_root and node.cross
        else:
            assert isinstance(node, PjoinNode)
            assert not any(isinstance(child, PjoinNode) and child.on == node.on
                           for child in node.children)
        for child in node.children:
            walk(child, False)

    walk(tree, True)
    assert plan_pjoin_strategy(tree).root is tree


def test_star_classification_and_orientation():
    subject_star = [pat("?c", f"p{i}", f"?v{i}") for i in range(3)]
    info = classify_shape(subject_star)
    assert info.shape is Shape.STAR
    assert info.center == var("c") and info.orientation == "subject"

    object_star = [pat(f"?v{i}", f"p{i}", "?c") for i in range(3)]
    assert classify_shape(object_star).orientation == "object"

    mixed = subject_star[:2] + [pat("?v9", "p9", "?c")]
    info = classify_shape(mixed)
    assert info.shape is Shape.STAR and info.orientation == "mixed"


def test_star_with_repeated_satellite_is_not_a_star():
    # ?v appears in two patterns: the satellites are linked, not a pure star
    patterns = [pat("?c", "p1", "?v"), pat("?c", "p2", "?v"),
                pat("?c", "p3", "?w")]
    assert classify_shape(patterns).shape is not Shape.STAR


def test_chain_classification():
    chain = [pat(f"?x{i}", f"p{i}", f"?x{i + 1}") for i in range(4)]
    assert classify_shape(chain).shape is Shape.CHAIN
    with_branch = chain + [pat("?x1", "q", "?z")]
    assert classify_shape(with_branch).shape is not Shape.CHAIN


def test_snowflake_classification():
    assert classify_shape(snowflake_query().patterns).shape is Shape.SNOWFLAKE
    # two explicit hubs joined by a bridge, two satellites each
    patterns = [
        pat("?a", "p1", "?s1"), pat("?a", "p2", "?s2"), pat("?a", "bridge", "?b"),
        pat("?b", "p3", "?s3"), pat("?b", "p4", "?s4"),
    ]
    assert classify_shape(patterns).shape is Shape.SNOWFLAKE


def test_complex_classification():
    triangle = [pat("?a", "p", "?b"), pat("?b", "p", "?c"), pat("?c", "p", "?a")]
    assert classify_shape(triangle).shape is Shape.COMPLEX


def test_single_pattern_shapes():
    assert classify_shape([pat("?s", "p", "o")]).shape is Shape.STAR
    assert classify_shape([pat("s", "?p", "o")]).shape is Shape.COMPLEX


def test_bundled_query_shapes():
    from conftest import QUERY_DIR
    s1 = parse_query((QUERY_DIR / "watdiv_s1.rq").read_text())
    f5 = parse_query((QUERY_DIR / "watdiv_f5.rq").read_text())
    c3 = parse_query((QUERY_DIR / "watdiv_c3.rq").read_text())
    assert classify_shape(s1.patterns).shape is Shape.STAR
    assert classify_shape(s1.patterns).orientation == "mixed"
    assert classify_shape(f5.patterns).shape is Shape.SNOWFLAKE
    assert classify_shape(c3.patterns).shape is Shape.STAR
    assert classify_shape(c3.patterns).orientation == "subject"
