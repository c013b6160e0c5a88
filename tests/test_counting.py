from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twotrees import (
    CyclicRequirementError,
    ForeignEdgeError,
    InvalidConstructionError,
    OutOfRangeError,
    SimpleGraph,
    TooLargeError,
    book,
    brute_force_count,
    chain_edge_counts,
    count_book,
    count_containing,
    count_two_simplicial,
    count_via_construction,
    fibonacci,
    kirchhoff_count,
    path_square,
    random_two_tree,
    verify_bounds,
)
from twotrees import counting
from twotrees.counting import _det_bareiss
from twotrees.graph import TwoTreeConstruction, edge, spanning_forest_components

from oracle import (
    brute_force_by_subsets,
    det_by_cofactors,
    fib_by_recurrence,
    tree_count_by_enumeration,
)

seeds = st.integers(0, 2**32 - 1)


def test_fibonacci_values():
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1
    assert fibonacci(-1) == 1
    assert fibonacci(10) == 55
    assert [fibonacci(k) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    with pytest.raises(OutOfRangeError):
        fibonacci(-2)


@given(st.integers(-1, 200))
def test_fibonacci_matches_recurrence(k):
    assert fibonacci(k) == fib_by_recurrence(k)


def test_count_book_values():
    assert count_book(2) == 1
    assert count_book(3) == 3
    assert count_book(4) == 8
    assert count_book(10) == 1280
    assert count_book(20) == 2_621_440
    with pytest.raises(OutOfRangeError):
        count_book(1)


def test_count_two_simplicial_values():
    assert count_two_simplicial(2) == 1
    assert count_two_simplicial(4) == 8
    assert count_two_simplicial(5) == 21
    assert count_two_simplicial(6) == 55
    assert count_two_simplicial(16) == 832_040  # F(30)
    with pytest.raises(OutOfRangeError):
        count_two_simplicial(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_chain_closed_form_to_fifty_steps(a, b):
    # t_p = 2 t_{p-1} + s_{p-1}, s_p = t_{p-1} + s_{p-1}, seeded with (alpha, beta)
    alpha, beta = max(a, b), min(a, b)
    total, tip = alpha, beta
    for p in range(1, 51):
        total, tip = 2 * total + tip, total + tip
        assert total == fibonacci(2 * p + 1) * alpha + fibonacci(2 * p) * beta
        assert tip == fibonacci(2 * p) * alpha + fibonacci(2 * p - 1) * beta


def test_chain_edge_counts_examples():
    assert chain_edge_counts(1, 1, 1) == (2, 2, 2)
    assert chain_edge_counts(3, 2, 1) == (4, 5, 5)
    through_start, through_side, through_tip = chain_edge_counts(3, 2, 2)
    assert (through_start, through_side, through_tip) == (10, 12, 13)
    assert through_tip > through_start and through_tip > through_side
    with pytest.raises(OutOfRangeError):
        chain_edge_counts(3, 2, 0)
    with pytest.raises(OutOfRangeError, match=r"need 0 <= beta <= alpha, got \(2, 3\)"):
        chain_edge_counts(2, 3, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10**4), st.integers(1, 10**4), st.integers(1, 12))
def test_chain_edge_count_comparisons(alpha, delta, p):
    beta = max(alpha - delta, 1)
    through_start, through_side, through_tip = chain_edge_counts(alpha, beta, p)
    if alpha > beta:
        assert through_tip > through_start
        if p >= 2:
            assert through_tip > through_side
        else:
            assert through_tip == through_side
    else:
        assert through_tip == through_start == through_side


def test_kirchhoff_small():
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert kirchhoff_count(k3) == 3
    assert kirchhoff_count(SimpleGraph.from_edges(1, [])) == 1
    assert kirchhoff_count(SimpleGraph.from_edges(2, [(0, 1)])) == 1
    assert kirchhoff_count(book(8)) == 256
    assert kirchhoff_count(path_square(7)) == 144  # F(12)
    # disconnected input counts zero rather than erroring
    assert kirchhoff_count(SimpleGraph.from_edges(4, [(0, 1), (2, 3)])) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), seeds)
def test_kirchhoff_matches_enumeration_oracle(n, seed):
    g = random_two_tree(n, seed)
    assert kirchhoff_count(g) == tree_count_by_enumeration(g.n, g.edges())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_bareiss_matches_cofactor_expansion(rows):
    assert _det_bareiss([r[:] for r in rows]) == det_by_cofactors(rows)


def test_count_containing_examples():
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert count_containing(k3, [(0, 1)]) == 2
    assert count_containing(k3, [(1, 0)]) == 2  # either orientation
    assert count_containing(k3, []) == kirchhoff_count(k3)
    b4 = book(4)
    assert count_containing(b4, [(0, 1)]) == 4  # 2^(4-2) through the spine
    # a spanning tree leaves one class, and is the only tree containing it
    assert count_containing(k3, [(0, 1), (1, 2)]) == 1
    assert count_containing(b4, [(0, 2), (1, 2), (1, 3)]) == 1
    with pytest.raises(CyclicRequirementError):
        count_containing(k3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ForeignEdgeError):
        count_containing(b4, [(2, 3)])


def test_brute_matches_kirchhoff_n10():
    for seed in (0, 1, 2):
        g = random_two_tree(10, seed)
        assert brute_force_count(g) == kirchhoff_count(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10), seeds)
def test_count_containing_matches_enumeration(n, seed):
    from oracle import spanning_trees_by_enumeration

    rng = random.Random(seed)
    g = random_two_tree(n, seed)
    all_trees = spanning_trees_by_enumeration(g.n, g.edges())
    e = g.edges()[rng.randrange(g.m)]
    f = g.edges()[rng.randrange(g.m)]
    assert count_containing(g, [e]) == sum(1 for t in all_trees if e in t)
    required = {e, f}
    if e != f and not _is_cyclic_pair(g, required):
        by_filter = sum(1 for t in all_trees if required <= t)
        assert count_containing(g, list(required)) == by_filter


def _is_cyclic_pair(g, required):
    from twotrees.graph import spanning_forest_components

    return spanning_forest_components(g.n, required) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), seeds)
def test_deletion_contraction(n, seed):
    rng = random.Random(seed)
    g = random_two_tree(n, seed)
    e = g.edges()[rng.randrange(g.m)]
    without = SimpleGraph.from_edges(g.n, [f for f in g.edges() if f != e])
    assert kirchhoff_count(g) == count_containing(g, [e]) + kirchhoff_count(without)


def test_brute_force_values_and_guard():
    assert brute_force_count(SimpleGraph.from_edges(2, [(0, 1)])) == 1
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert brute_force_count(k3) == 3
    assert brute_force_count(book(6)) == 48 == count_book(6)
    with pytest.raises(TooLargeError):
        brute_force_count(book(15))  # 27 edges


@st.composite
def simple_graphs(draw, n_max=8, m_max=14):
    n = draw(st.integers(1, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=m_max)) if pairs else []
    return SimpleGraph.from_edges(n, chosen)


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
@example(SimpleGraph.from_edges(1, []))
@example(SimpleGraph.from_edges(6, [(0, 1), (2, 3)]))  # sparse: m < n - 1
@example(SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))  # K4 + isolated
@example(SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))  # two triangles
def test_brute_force_matches_subset_filter(g):
    assert brute_force_count(g) == brute_force_by_subsets(g)


def test_brute_force_rejects_empty_graph():
    with pytest.raises(OutOfRangeError):
        brute_force_count(SimpleGraph.from_edges(0, []))


def test_count_via_construction_families():
    assert count_via_construction(book(2)) == 1
    assert count_via_construction(book(2), [(0, 1)]) == 1
    assert count_via_construction(book(3)) == 3
    assert count_via_construction(book(5)) == 20
    assert count_via_construction(path_square(5)) == 21


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), seeds)
def test_count_via_construction_matches_kirchhoff(n, seed):
    c = random_two_tree(n, seed)
    assert count_via_construction(c) == kirchhoff_count(c)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 10), seeds)
def test_count_via_construction_on_recognized_labels(n, seed):
    from twotrees import recognize

    g = random_two_tree(n, seed)
    relabeled = SimpleGraph.from_edges(
        g.n, [edge(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]
    )
    c = recognize(relabeled.n, relabeled.edges())
    assert count_via_construction(c) == kirchhoff_count(relabeled)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 120), seeds, st.integers(0, 4))
def test_engine_matches_count_containing_with_requirements(n, seed, k):
    rng = random.Random(seed)
    c = random_two_tree(n, seed)
    required: list = []
    for e in rng.sample(c.edges(), min(k, c.m)):
        if spanning_forest_components(c.n, required + [e]) is not None:
            required.append(e)
    assert count_via_construction(c, required) == count_containing(c, required)


def test_engine_rejects_requirements_like_count_containing():
    c = random_two_tree(9, 4)
    v, (x, y) = c.attachments[-1]
    triangle = [edge(v, x), edge(v, y), (x, y)]
    adj = c.adjacency()
    missing = next((u, w) for u in range(c.n) for w in range(u + 1, c.n) if w not in adj[u])
    for required, error in ((triangle, CyclicRequirementError), ([missing], ForeignEdgeError)):
        with pytest.raises(error):
            count_containing(c, required)
        with pytest.raises(error):
            count_via_construction(c, required)
    # the required edges may come in either orientation and repeat
    e = (x, y)
    assert count_via_construction(c, [e[::-1], e]) == count_containing(c, [e])


def test_engine_rejects_a_missing_attach_edge():
    # the constructor rejects it, so the engine never sees a missing attach edge
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(5, (0, 1), ((2, (0, 1)), (3, (0, 1)), (4, (2, 3))))


def test_engine_at_ten_thousand_vertices():
    n = 10**4
    assert count_via_construction(book(n)) == count_book(n)
    assert count_via_construction(path_square(n)) == fibonacci(2 * n - 2)


def test_kirchhoff_skips_the_matrix_without_enough_edges(monkeypatch):
    def boom(edges, cls, k):
        pytest.fail("Laplacian built for a graph that cannot be connected")

    monkeypatch.setattr(counting, "_laplacian_cofactor", boom)
    assert kirchhoff_count(SimpleGraph.from_edges(10_000, [])) == 0
    assert kirchhoff_count(SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])) == 0


def test_kirchhoff_caps_n_after_its_early_returns(monkeypatch):
    def boom(edges, cls, k):
        pytest.fail(f"Laplacian built on {k} classes, over the cap")

    monkeypatch.setattr(counting, "KIRCHHOFF_MAX_N", 6)
    assert kirchhoff_count(path_square(6)) == fibonacci(10)  # at the cap
    monkeypatch.setattr(counting, "_laplacian_cofactor", boom)
    with pytest.raises(TooLargeError, match="kirchhoff capped at 6 vertices, graph has 7"):
        kirchhoff_count(path_square(7))
    assert kirchhoff_count(SimpleGraph.from_edges(10_000, [])) == 0
    assert kirchhoff_count(SimpleGraph.from_edges(1, [])) == 1


def test_count_containing_caps_n_before_it_builds(monkeypatch):
    def boom(*args):
        pytest.fail("count_containing built a union-find or a matrix past the cap")

    monkeypatch.setattr(counting, "_union_find", boom)
    monkeypatch.setattr(counting, "_laplacian_cofactor", boom)
    big = random_two_tree(3000, 1)  # an (n - 1)^2 matrix would be 9 * 10^6 entries
    with pytest.raises(TooLargeError, match="count_containing capped at 400 vertices, graph has 3000"):
        count_containing(big, [])
    monkeypatch.undo()  # the real helpers again, under a cap of 6
    monkeypatch.setattr(counting, "KIRCHHOFF_MAX_N", 6)
    assert count_containing(path_square(6), [(0, 1)]) == count_via_construction(path_square(6), [(0, 1)])
    with pytest.raises(TooLargeError, match="capped at 6 vertices, graph has 7"):
        count_containing(path_square(7), [(0, 1)])


def test_oracles_read_a_construction_as_its_edge_list(corpus):
    # each oracle reads n, m and edges(), so a 2-tree and its checked edge
    # list give the same answer
    rng = random.Random(16)
    for n in range(3, 8):
        for c in corpus[n]:
            g = SimpleGraph.from_edges(c.n, c.edges())
            assert (g.n, g.m, g.edges()) == (c.n, c.m, c.edges())
            assert kirchhoff_count(c) == kirchhoff_count(g)
            assert brute_force_count(c) == brute_force_count(g)
            required: list = []
            for e in rng.sample(c.edges(), rng.randrange(n)):
                if spanning_forest_components(n, required + [e]) is not None:
                    required.append(e)
            assert count_containing(c, required) == count_containing(g, required)


def test_verify_bounds_examples():
    assert verify_bounds(book(5)) == (True, True)  # 8 <= 20 <= 27
    assert verify_bounds(path_square(5)) == (True, True)  # 8 <= 21 <= 27
    assert verify_bounds(book(3)) == (True, True)  # 2 <= 3 <= 3


def test_golden_ratio_square_limit():
    # F(2n-2)/F(2n-4) at n=30 sits within 1e-6 of (3+sqrt(5))/2, checked in
    # integers: |a/b - phi^2| < eps iff |d^2 - 5 b^2| < eps*2b*(d + sqrt5 b),
    # and d + sqrt5 b > 2b makes 250000*|d^2-5b^2| < b*b sufficient.
    a, b = fibonacci(58), fibonacci(56)
    d = 2 * a - 3 * b
    assert 250_000 * abs(d * d - 5 * b * b) < b * b
