from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    ForeignEdgeError,
    InvalidConstructionError,
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
    from twotrees import LoopEdgeError, TwoTreeError

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
    c = TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (3, (1, 3))))
    # attach edge (1, 3) names the new vertex itself
    with pytest.raises(InvalidConstructionError):
        c.realize()
    c2 = TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (3, (0, 3))))
    with pytest.raises(InvalidConstructionError):
        c2.realize()


def test_construction_shape_validation():
    with pytest.raises(OutOfRangeError):
        TwoTreeConstruction(1, (0, 1), ())
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)),))  # missing vertex 3
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (2, (0, 2))))  # repeat


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
