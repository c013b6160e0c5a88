from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    InvariantError,
    LoopEdgeError,
    NotTwoTreeError,
    NotTwoTreeReason,
    OutOfRangeError,
    TwoTreeConstruction,
    book,
    fan,
    is_book,
    path_ordering_if_two_simplicial,
    path_square,
    random_chain,
    random_two_tree,
    recognize,
    simplicial_vertices,
)
from twotrees.recognition import _path_order

from oracle import (
    NotTwoTree,
    adjacency,
    component_count,
    path_ordering_by_walk,
    recognize_by_rescan,
)

seeds = st.integers(0, 2**32 - 1)


def k3():
    return recognize(3, [(0, 1), (0, 2), (1, 2)])


def test_recognize_k3_exact():
    # smallest-index eligible vertex is eliminated first, so vertex 0 goes
    # and the base is the remaining edge (1, 2)
    c = k3()
    assert c == TwoTreeConstruction(3, (1, 2), ((0, (1, 2)),))
    assert c.edges() == [(0, 1), (0, 2), (1, 2)]


def test_recognize_k2():
    assert recognize(2, [(0, 1)]) == TwoTreeConstruction(2, (0, 1), ())


def test_recognize_rejects_c4():
    with pytest.raises(NotTwoTreeError) as err:
        recognize(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert err.value.reason is NotTwoTreeReason.WRONG_EDGE_COUNT


def test_recognize_rejects_k4():
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert len(k4) == 6  # 6 != 2*4 - 3, and no degree-2 vertex either
    with pytest.raises(NotTwoTreeError) as err:
        recognize(4, k4)
    assert err.value.reason is NotTwoTreeReason.WRONG_EDGE_COUNT


def test_recognize_rejects_disconnected():
    # K5 minus one edge on {0..4} plus an isolated vertex: 9 = 2*6 - 3 edges
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)]
    assert len(edges) == 9 and component_count(6, edges) == 2
    with pytest.raises(NotTwoTreeError) as err:
        recognize(6, edges)
    assert err.value.reason is NotTwoTreeReason.DISCONNECTED


def test_recognize_rejects_nonadjacent_neighbors():
    # C5 plus chords 02 and 13: 7 = 2*5-3 edges; vertex 4 has neighbours 3, 0
    # which are not adjacent.
    with pytest.raises(NotTwoTreeError) as err:
        recognize(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    assert err.value.reason is NotTwoTreeReason.NONADJACENT_NEIGHBORS


def test_recognize_rejects_no_degree_two():
    # K_{3,3}: 9 = 2*6-3 edges, connected, 3-regular
    with pytest.raises(NotTwoTreeError) as err:
        recognize(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    assert err.value.reason is NotTwoTreeReason.NO_DEGREE2_SIMPLICIAL


@pytest.mark.parametrize(
    "n, edges, error, message",
    [
        # the edge count is right, so the edges are read and checked
        (3, [(0, 1), (1, 1), (1, 2)], LoopEdgeError, "loop edge at vertex 1"),
        (3, [(0, 1), (0, 2), (1, 3)], OutOfRangeError, r"edge \(1, 3\) outside vertex range \[0, 3\)"),
        (3, [(0, 1), (0, -1), (1, 2)], OutOfRangeError, r"edge \(0, -1\) outside"),
        (-1, [], OutOfRangeError, "recognition needs n >= 2, got -1"),
        (1, [], OutOfRangeError, "recognition needs n >= 2, got 1"),
    ],
)
def test_recognize_checks_its_edges(n, edges, error, message):
    with pytest.raises(error, match=message):
        recognize(n, edges)


def test_recognize_counts_a_repeated_edge_once():
    triangle = [(0, 1), (0, 2), (1, 2)]
    assert recognize(3, triangle + [(1, 0), (0, 1)]) == k3()
    # five listed edges, three distinct: the distinct count is reported
    with pytest.raises(NotTwoTreeError, match="has 5 edges, this graph has 3"):
        recognize(4, [(0, 1), (1, 2), (1, 0), (2, 3), (1, 2)])


def test_recognize_rejects_a_short_list_before_reading_it():
    # 0 < 2n - 3 edges: no set sized by n is built, so the edges go unread
    with pytest.raises(NotTwoTreeError, match="has 599997 edges, this graph has 1"):
        recognize(300_000, [(5, 5)])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 14), seeds)
def test_round_trip(n, seed):
    edges = random_two_tree(n, seed).edges()
    assert recognize(n, edges).edges() == edges


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 10), seeds)
def test_perturbed_graphs_fail_or_are_two_trees(n, seed):
    rng = random.Random(seed)
    c = random_two_tree(n, seed)
    edges, adj = c.edges(), c.adjacency()
    non_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if b not in adj[a]]

    with pytest.raises(NotTwoTreeError) as err:
        recognize(n, edges[: len(edges) - 1])
    assert err.value.reason is NotTwoTreeReason.WRONG_EDGE_COUNT

    if non_edges:
        with pytest.raises(NotTwoTreeError) as err:
            recognize(n, edges + [rng.choice(non_edges)])
        assert err.value.reason is NotTwoTreeReason.WRONG_EDGE_COUNT

        # swap keeps the edge count; the result is either a genuine 2-tree
        # (accepted with a matching realization) or rejected with a reason
        swapped = edges[1:] + [rng.choice(non_edges)]
        try:
            c = recognize(n, swapped)
        except NotTwoTreeError as err:
            assert isinstance(err.reason, NotTwoTreeReason)
        else:
            assert c.edges() == sorted(swapped)


def test_simplicial_vertices_families():
    assert simplicial_vertices(book(5)) == [2, 3, 4]
    assert simplicial_vertices(path_square(6)) == [0, 5]
    assert simplicial_vertices(k3()) == [0, 1, 2]
    assert simplicial_vertices(fan(6)) == [1, 5]
    with pytest.raises(OutOfRangeError):
        simplicial_vertices(book(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 12), seeds)
def test_family_simplicial_counts(n, seed):
    assert len(simplicial_vertices(book(n))) == n - 2
    assert len(simplicial_vertices(path_square(n))) == 2
    assert len(simplicial_vertices(fan(n))) == 2
    assert len(simplicial_vertices(random_chain(n, seed))) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 10), seeds)
def test_at_least_two_simplicial(n, seed):
    assert len(simplicial_vertices(random_two_tree(n, seed))) >= 2


def test_is_book():
    assert is_book(book(7))
    assert is_book(k3())
    assert is_book(book(4))  # the unique 4-vertex 2-tree
    assert not is_book(path_square(5))
    assert not is_book(fan(6))
    with pytest.raises(OutOfRangeError):
        is_book(book(2))


def test_path_ordering_families():
    assert path_ordering_if_two_simplicial(path_square(6)) == (0, 1, 2, 3, 4, 5)

    assert path_ordering_if_two_simplicial(book(5)) is None
    assert path_ordering_if_two_simplicial(k3()) is None

    four = path_ordering_if_two_simplicial(book(4))
    assert four is not None

    assert path_ordering_if_two_simplicial(book(2)) == (0, 1)


@pytest.mark.parametrize(
    "adj, goal, step",
    [
        # the peel deletes 0 on {1, 2}, then 3 on {4, 5}: 0 -> 3 is off 0's attach edge
        ([{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}, set()], 6, (0, 3)),
        # the peel leaves 1-2 beside a goal nothing touches: the closing step is
        # checked against 2's live neighbours, not an edge made from the pair
        ([{1, 2}, {0, 2}, {0, 1}, set()], 3, (2, 3)),
    ],
)
def test_path_order_rejects_a_step_off_the_graph(adj, goal, step):
    with pytest.raises(InvariantError, match=re.escape(f"non-edge {step}")):
        _path_order(adj, goal)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 12), seeds)
def test_path_ordering_is_hamiltonian_elimination(n, seed):
    c = random_chain(n, seed)
    order = path_ordering_if_two_simplicial(c)
    assert order is not None
    assert sorted(order) == list(range(n))
    # consecutive vertices adjacent: a Hamiltonian path
    adj = adjacency(n, c.edges())
    for a, b in zip(order, order[1:]):
        assert b in adj[a]
    # valid elimination: every prefix deletion has degree 2 with adjacent ends
    for v in order[:-2]:
        assert len(adj[v]) == 2
        a, b = adj[v]
        assert b in adj[a]
        for w in adj[v]:
            adj[w].discard(v)
        adj[v].clear()
    assert order == path_ordering_by_walk(n, c.edges())


def _relabelled(n, seed):
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    return [
        (min(label[u], label[v]), max(label[u], label[v]))
        for u, v in random_two_tree(n, seed).edges()
    ]


def _same_as_rescan(n, edges):
    try:
        want = recognize_by_rescan(n, edges)
    except NotTwoTree as rejected:
        with pytest.raises(NotTwoTreeError) as err:
            recognize(n, edges)
        assert err.value.reason.value == rejected.reason
        assert str(err.value) == str(rejected)
    else:
        c = recognize(n, edges)
        assert (c.base, c.attachments) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recognize_matches_rescan_on_arbitrary_graphs(data):
    n = data.draw(st.integers(2, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=2 * n - 3, max_size=2 * n - 3, unique=True))
    _same_as_rescan(n, edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300), seeds)
def test_recognize_matches_rescan_on_random_two_trees(n, seed):
    _same_as_rescan(n, _relabelled(n, seed))


def test_recognize_matches_rescan_on_each_failure_reason():
    for n, edges in [
        (6, [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)]),
        (6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
    ]:
        _same_as_rescan(n, edges)


def test_path_ordering_matches_walk_on_corpus(corpus):
    for n in range(3, 8):
        for c in corpus[n]:
            assert path_ordering_if_two_simplicial(c) == path_ordering_by_walk(n, c.edges())


def test_recognize_at_scale():
    edges = path_square(10**5).edges()
    assert recognize(10**5, edges).edges() == edges
    n = 5 * 10**4
    edges = _relabelled(n, 1)
    assert recognize(n, edges).edges() == sorted(edges)
