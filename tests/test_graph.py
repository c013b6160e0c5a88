from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    ForeignEdgeError,
    InvalidConstructionError,
    LoopEdgeError,
    OutOfRangeError,
    SimpleGraph,
    TwoTreeConstruction,
    book,
    edge,
    is_spanning_tree,
    random_two_tree,
)
from twotrees.graph import spanning_forest_components

from oracle import component_count, is_tree_edge_set

seeds = st.integers(0, 2**32 - 1)


def test_edge_canonical():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


@given(st.integers(0, 50), st.integers(0, 50))
def test_edge_orientation_free(u, v):
    if u == v:
        return
    assert edge(u, v) == edge(v, u)
    assert edge(u, v)[0] < edge(u, v)[1]


def test_simple_graph_basics():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.degree(1) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.is_connected()
    assert not SimpleGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()


def test_simple_graph_rejects_bad_edges():
    with pytest.raises(OutOfRangeError):
        SimpleGraph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])


def test_loop_edges_raise_a_typed_value_error():
    from twotrees import TwoTreeError

    for make in (lambda: edge(2, 2), lambda: SimpleGraph.from_edges(3, [(1, 1)])):
        with pytest.raises(LoopEdgeError) as info:
            make()
        assert isinstance(info.value, TwoTreeError) and isinstance(info.value, ValueError)


def test_realize_base_cases():
    k2 = TwoTreeConstruction(2, (0, 1), ()).realize()
    assert k2.n == 2 and k2.m == 1

    k3 = TwoTreeConstruction(3, (0, 1), ((2, (0, 1)),)).realize()
    assert k3.edge_set() == {(0, 1), (0, 2), (1, 2)}

    b4 = book(4).realize()
    assert b4.n == 4 and b4.m == 5  # 2*4 - 3


def test_realize_rejects_missing_attach_edge():
    # the constructor checks the build rule, so nothing invalid reaches realize
    with pytest.raises(InvalidConstructionError, match=r"attach edge \(1, 3\) absent"):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (3, (1, 3))))  # names vertex 3 itself
    with pytest.raises(InvalidConstructionError, match=r"attach edge \(0, 3\) absent"):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (3, (0, 3))))
    # labels outside 0..n-1 are never present, and a negative one must not
    # wrap around to a real vertex
    with pytest.raises(InvalidConstructionError, match=r"attach edge \(0, 7\) absent"):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (3, (0, 7))))
    with pytest.raises(InvalidConstructionError, match=r"attach edge \(-1, 0\) absent"):
        TwoTreeConstruction(5, (0, 1), ((4, (0, 1)), (2, (0, 4)), (3, (-1, 0))))


def test_construction_shape_validation():
    with pytest.raises(OutOfRangeError):
        TwoTreeConstruction(1, (0, 1), ())
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)),))  # missing vertex 3
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (2, (0, 2))))  # repeat


def test_construction_errors_keep_their_precedence():
    # loop, then attachment count, then coverage, then the missing attach edge
    with pytest.raises(LoopEdgeError):
        TwoTreeConstruction(4, (0, 1), ((2, (3, 3)),))
    with pytest.raises(InvalidConstructionError, match="expected 2 attachments"):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 3)),))
    with pytest.raises(InvalidConstructionError, match="exactly once"):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 3)), (2, (0, 1))))


def test_construction_canonicalizes_its_edges():
    attachments = ((2, (0, 1)), (3, (1, 2)))
    for given in ([(2, (1, 0)), (3, (2, 1))], ((2, [0, 1]), (3, [1, 2])), ([2, (0, 1)], [3, (1, 2)])):
        c = TwoTreeConstruction(4, (1, 0), given)
        assert (c.base, c.attachments) == ((0, 1), attachments)
        assert hash(c) == hash(TwoTreeConstruction(4, (0, 1), attachments))


def _attach_edges_present(n, base, attachments):
    """Reference rule: replay the build with an explicit set of present edges."""
    present = {edge(*base)}
    for v, (x, y) in attachments:
        if edge(x, y) not in present:
            return False
        present.update((edge(v, x), edge(v, y)))
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 9), st.data())
def test_constructor_accepts_exactly_the_buildable_orders(n, data):
    # a random introduction order with each attach edge drawn from all pairs
    # of earlier vertices, so most draws break the build rule somewhere
    order = data.draw(st.permutations(range(n)))
    attachments = []
    for i in range(2, n):
        x, y = data.draw(st.lists(st.sampled_from(order[:i]), min_size=2, max_size=2, unique=True))
        attachments.append((order[i], (x, y)))
    if data.draw(st.booleans()):  # and sometimes one on a later or a non-vertex
        i = data.draw(st.integers(0, n - 3))
        v, (x, _) = attachments[i]
        others = [w for w in order if w != x] + [-1, n]
        attachments[i] = (v, (x, data.draw(st.sampled_from(others))))
    base = (order[0], order[1])
    if _attach_edges_present(n, base, attachments):
        c = TwoTreeConstruction(n, base, tuple(attachments))
        assert c.realize().m == 2 * n - 3 and c.realize().is_connected()
    else:
        with pytest.raises(InvalidConstructionError, match="absent when vertex"):
            TwoTreeConstruction(n, base, tuple(attachments))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), seeds)
def test_realize_edge_count_invariant(n, seed):
    g = random_two_tree(n, seed).realize()
    assert g.m == 2 * n - 3
    assert g.is_connected()


def test_is_spanning_tree_examples():
    k3 = TwoTreeConstruction(3, (0, 1), ((2, (0, 1)),)).realize()
    assert is_spanning_tree(k3, [(0, 1), (1, 2)])
    assert not is_spanning_tree(k3, [(0, 1), (1, 2), (0, 2)])

    b4 = book(4).realize()
    assert is_spanning_tree(b4, [(0, 1), (0, 2), (0, 3)])
    assert not is_spanning_tree(b4, [(0, 1), (0, 2)])

    with pytest.raises(ForeignEdgeError):
        is_spanning_tree(b4, [(0, 1), (0, 2), (2, 3)])


@st.composite
def edge_lists(draw):
    """Part of a random 2-tree's edge set, or arbitrary edges with repeats."""
    if draw(st.booleans()):
        g = random_two_tree(draw(st.integers(2, 9)), draw(seeds)).realize()
        return g.n, draw(st.permutations(g.edges()))[: draw(st.integers(0, g.n))]
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=2 * n))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_union_find_matches_the_bfs_oracle(case):
    # repeated edges, cycles, isolated vertices and both orientations occur
    n, edges = case
    g = SimpleGraph.from_edges(n, edges)
    assert is_spanning_tree(g, edges) == is_tree_edge_set(n, edges)
    is_forest = len(edges) == n - component_count(n, edges)
    assert spanning_forest_components(n, edges) == (n - len(edges) if is_forest else None)
