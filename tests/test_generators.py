from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    OutOfRangeError,
    TooLargeError,
    TwoTreeConstruction,
    all_labeled_two_trees,
    book,
    extend_with_chain,
    fan,
    generators,
    kirchhoff_count,
    path_square,
    random_chain,
    random_two_tree,
    recognize,
)

seeds = st.integers(0, 2**32 - 1)


def test_book_shapes():
    assert book(3).realize().edge_set() == {(0, 1), (0, 2), (1, 2)}
    b6 = book(6).realize()
    assert all(b6.has_edge(0, k) and b6.has_edge(1, k) for k in range(2, 6))
    with pytest.raises(OutOfRangeError):
        book(1)


def test_path_square_shape():
    g = path_square(6).realize()
    expected = {(i, j) for i in range(6) for j in range(i + 1, 6) if j - i <= 2}
    assert g.edge_set() == expected


def test_fan_shape():
    g = fan(6).realize()
    assert all(g.has_edge(0, k) for k in range(1, 6))
    assert all(g.has_edge(k, k + 1) for k in range(1, 5))
    assert g.m == 9


def test_four_vertex_families_coincide():
    assert book(4).realize().m == path_square(4).realize().m == fan(4).realize().m == 5


def test_random_chain_properties():
    assert random_chain(3, 99).realize().edge_set() == book(3).realize().edge_set()
    for seed in range(20):
        g = random_chain(10, seed).realize()
        assert kirchhoff_count(g) == 2584  # F(18)
    with pytest.raises(OutOfRangeError):
        random_chain(2, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 14), seeds)
def test_generators_recognized(n, seed):
    for c in (book(n), path_square(n), fan(n), random_two_tree(n, seed)):
        g = c.realize()
        assert g.m == 2 * n - 3
        assert recognize(g).realize().edge_set() == g.edge_set()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 14), seeds)
def test_determinism(n, seed):
    assert random_two_tree(n, seed) == random_two_tree(n, seed)
    if n >= 3:
        assert random_chain(n, seed) == random_chain(n, seed)


def test_all_labeled_counts(corpus):
    # vertex k's attach pair is readable from the final edge set, so attach
    # sequences biject with edge sets: (2n-5)!! distinct graphs
    assert len(corpus[3]) == 1
    assert len(corpus[4]) == 3
    assert len(corpus[5]) == 15
    assert len(corpus[6]) == 105
    assert len(corpus[7]) == 945
    assert len(corpus[8]) == 10395


def test_all_labeled_distinct_and_valid(corpus):
    for n in range(3, 9):
        assert all(c.base == (0, 1) for c in corpus[n])
        assert len({c.realize().edge_set() for c in corpus[n]}) == len(corpus[n])


def test_all_labeled_is_the_choice_product_in_order():
    # vertex k on edge i of those present before it, in arrival order; the
    # choice vectors run lexicographically
    for n in range(3, 8):
        expected = []
        for choice in itertools.product(*(range(2 * k - 3) for k in range(2, n))):
            edges, attachments = [(0, 1)], []
            for k, i in enumerate(choice, 2):
                x, y = edges[i]
                attachments.append((k, (x, y)))
                edges += [(x, k), (y, k)]
            expected.append(tuple(attachments))
        assert [c.attachments for c in all_labeled_two_trees(n)] == expected


def test_all_labeled_guards():  # raised at the call, with no next()
    with pytest.raises(OutOfRangeError):
        all_labeled_two_trees(2)
    with pytest.raises(TooLargeError):
        all_labeled_two_trees(10)


def test_all_labeled_builds_one_construction_per_next(monkeypatch):
    first = book(9)  # built before the patch counts constructions
    built = []

    def counted(*args):
        built.append(TwoTreeConstruction(*args))
        return built[-1]

    monkeypatch.setattr(generators, "TwoTreeConstruction", counted)
    stream = all_labeled_two_trees(9)  # 135,135 constructions in all
    assert built == []
    assert next(stream) == first and len(built) == 1
    next(stream)
    assert len(built) == 2


def test_draining_the_corpus_holds_one_construction_at_a_time():
    stream = all_labeled_two_trees(8)  # 10,395 constructions
    tracemalloc.start()
    try:
        for _ in stream:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_extend_with_chain_records():
    host = book(4)
    grown = extend_with_chain(host, (0, 1), 3, seed=5)
    assert grown.n == 7 and grown.base == host.base
    assert grown.attachments[:2] == host.attachments  # the chain is appended
    records = grown.attachments[2:]
    assert records[0] == (4, (0, 1))
    for (w, attach), (w_next, attach_next) in zip(records, records[1:]):
        assert w_next == w + 1
        assert w in attach_next  # each attach edge touches the previous vertex
    assert recognize(grown.realize()).realize().edge_set() == grown.realize().edge_set()
    assert extend_with_chain(path_square(5), (2, 4), 2, seed=1).attachments[-2] == (5, (2, 4))
    for absent in [(2, 3), (2, 9), (7, 9)]:  # not an edge, or not even vertices
        with pytest.raises(OutOfRangeError, match="not in graph"):
            extend_with_chain(host, absent, 1, seed=0)
