from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    TwoTreeConstruction,
    book,
    count_stream,
    enumerate_spanning_trees,
    kirchhoff_count,
    path_square,
    random_two_tree,
)
from twotrees.enumeration import tree_stream_blocks

from oracle import spanning_trees_by_enumeration, spanning_trees_levelwise

seeds = st.integers(0, 2**32 - 1)

K3 = TwoTreeConstruction(3, (0, 1), ((2, (0, 1)),))


def test_k2_single_tree():
    trees = list(enumerate_spanning_trees(TwoTreeConstruction(2, (0, 1), ())))
    assert trees == [frozenset({(0, 1)})]


def test_k3_streaming_order_golden():
    trees = list(enumerate_spanning_trees(K3))
    assert trees == [
        frozenset({(0, 1), (0, 2)}),
        frozenset({(0, 1), (1, 2)}),
        frozenset({(0, 2), (1, 2)}),
    ]


def test_book4_levelwise_order_golden():
    # parents in list order: each contributes leaf-x, leaf-y, then the swap
    lvl = spanning_trees_levelwise(book(4))
    expected = [
        {(0, 1), (0, 2), (0, 3)},
        {(0, 1), (0, 2), (1, 3)},
        {(0, 2), (0, 3), (1, 3)},
        {(0, 1), (1, 2), (0, 3)},
        {(0, 1), (1, 2), (1, 3)},
        {(1, 2), (0, 3), (1, 3)},
        {(0, 2), (1, 2), (0, 3)},
        {(0, 2), (1, 2), (1, 3)},
    ]
    assert lvl == [frozenset(t) for t in expected]


def test_streaming_order_prefix_golden():
    # depth-first: all extensions of the first K3 tree come before the rest
    from itertools import islice

    first = list(islice(enumerate_spanning_trees(book(5)), 4))
    assert first == [
        frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
        frozenset({(0, 1), (0, 2), (0, 3), (1, 4)}),
        frozenset({(0, 2), (0, 3), (0, 4), (1, 4)}),
        frozenset({(0, 1), (0, 2), (1, 3), (0, 4)}),
    ]


def test_validation_happens_at_call_time():
    from twotrees import InvalidConstructionError

    # an invalid construction never exists, so no walk can start on one
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), (3, (0, 3))))


def test_modes_agree_as_multisets():
    # the walk against the list-growing oracle; both visit the choice
    # vectors in lexicographic order, so the orders agree as well
    for c in (book(6), random_two_tree(7, 5), random_two_tree(8, 11)):
        stream = list(enumerate_spanning_trees(c))
        lst = spanning_trees_levelwise(c)
        assert sorted(stream, key=sorted) == sorted(lst, key=sorted)
        assert stream == lst


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), seeds)
def test_stream_is_exactly_the_tree_set(n, seed):
    c = random_two_tree(n, seed)
    emitted = list(enumerate_spanning_trees(c))
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == spanning_trees_by_enumeration(c.n, c.edges())


@settings(max_examples=10, deadline=None)
@given(st.integers(10, 12), seeds)
def test_stream_length_matches_determinant_midsize(n, seed):
    c = random_two_tree(n, seed)
    assert count_stream(enumerate_spanning_trees(c)) == kirchhoff_count(c)


def test_stream_length_matches_brute_force_n9():
    from twotrees import brute_force_count

    for seed in (0, 7, 19):
        c = random_two_tree(9, seed)
        emitted = count_stream(enumerate_spanning_trees(c))
        assert emitted == brute_force_count(c) == kirchhoff_count(c)


def test_streaming_memory_stays_flat():
    c = book(14)  # 28672 trees; materialised they would be tens of MB
    stream = enumerate_spanning_trees(c)
    tracemalloc.start()
    total = count_stream(stream)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert total == 28672
    assert peak < 200_000  # bytes beyond the consumer: O(n) state only


def test_a_stream_block_holds_a_few_lines_at_n_20000():
    # 3^K (n - 1) <= 2^16 tokens gives K = 1 here: blocks of at most 3 lines
    blocks = tree_stream_blocks(path_square(20000))
    text, lines = next(blocks)  # the first block also pays for the set-up
    line = len(text) / lines
    del text
    tracemalloc.start()
    text, lines = next(blocks)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert lines <= 3
    assert peak < 6 * line  # the block, plus one line's worth of runs
