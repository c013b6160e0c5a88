from __future__ import annotations

import hashlib
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    LoopEdgeError,
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
    simplicial_vertices,
)

from oracle import adjacency, extend_with_chain_by_pairs, random_chain_by_steps

seeds = st.integers(0, 2**32 - 1)


NON_INT_N = {  # a call with a non-int vertex or step count -> its OutOfRangeError message
    "TwoTreeConstruction('5', ...)": (
        lambda: TwoTreeConstruction("5", (0, 1), []), "a construction needs n >= 2, got '5'"
    ),
    "TwoTreeConstruction(None, ...)": (
        lambda: TwoTreeConstruction(None, (0, 1), []), "a construction needs n >= 2, got None"
    ),
    "TwoTreeConstruction(4.0, ...)": (
        lambda: TwoTreeConstruction(4.0, (0, 1), [(2, 0), (3, 0)]),
        "a construction needs n >= 2, got 4.0",
    ),
    "book('5')": (lambda: book("5"), "need n >= 2, got '5'"),
    "book(5.0)": (lambda: book(5.0), "need n >= 2, got 5.0"),
    "path_square(5.0)": (lambda: path_square(5.0), "need n >= 2, got 5.0"),
    "fan(5.0)": (lambda: fan(5.0), "need n >= 2, got 5.0"),
    "random_chain(5.0, 1)": (lambda: random_chain(5.0, 1), "need n >= 3, got 5.0"),
    "random_two_tree(5.5, 1)": (lambda: random_two_tree(5.5, 1), "need n >= 2, got 5.5"),
    "all_labeled_two_trees('5')": (
        lambda: all_labeled_two_trees("5"), "all_labeled_two_trees needs n >= 3, got '5'"
    ),
    "extend_with_chain(book(4), (0, 1), 2.0, 1)": (
        lambda: extend_with_chain(book(4), (0, 1), 2.0, 1), "need at least one chain step, got 2.0"
    ),
}


@pytest.mark.parametrize("make, message", NON_INT_N.values(), ids=list(NON_INT_N))
def test_a_vertex_count_that_is_not_an_int_is_out_of_range(make, message):
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
        make()


def test_book_shapes():
    assert set(book(3).edges()) == {(0, 1), (0, 2), (1, 2)}
    b6 = adjacency(6, book(6).edges())
    assert all(k in b6[0] and k in b6[1] for k in range(2, 6))
    with pytest.raises(OutOfRangeError):
        book(1)


def test_path_square_shape():
    g = path_square(6)
    expected = {(i, j) for i in range(6) for j in range(i + 1, 6) if j - i <= 2}
    assert set(g.edges()) == expected


def test_fan_shape():
    g = fan(6)
    adj = adjacency(6, g.edges())
    assert all(k in adj[0] for k in range(1, 6))
    assert all(k + 1 in adj[k] for k in range(1, 5))
    assert g.m == len(g.edges()) == 9


def test_families_equal_their_pair_form_constructions():
    # the families replay attach-edge ids; the pair forms name each attach edge by its ends
    for n in range(2, 61):
        steps = range(2, n)
        assert book(n) == TwoTreeConstruction(n, (0, 1), [(k, (0, 1)) for k in steps])
        assert path_square(n) == TwoTreeConstruction(n, (0, 1), [(k, (k - 2, k - 1)) for k in steps])
        assert fan(n) == TwoTreeConstruction(n, (0, 1), [(k, (0, k - 1)) for k in steps])


def test_four_vertex_families_coincide():
    assert book(4).m == path_square(4).m == fan(4).m == 5


def test_random_chain_properties():
    assert set(random_chain(3, 99).edges()) == set(book(3).edges())
    for seed in range(20):
        assert kirchhoff_count(random_chain(10, seed)) == 2584  # F(18)
    with pytest.raises(OutOfRangeError):
        random_chain(2, 0)


def test_random_chain_is_a_chain_grown_from_one_edge():
    # the former per-vertex loop gives the same construction, coin for coin
    for n in range(3, 40):
        for seed in range(30):
            c = random_chain(n, seed)
            assert c == random_chain_by_steps(n, seed)
            assert len(simplicial_vertices(c)) == (3 if n == 3 else 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 14), seeds)
def test_generators_recognized(n, seed):
    for c in (book(n), path_square(n), fan(n), random_two_tree(n, seed)):
        edges = c.edges()
        assert len(edges) == 2 * n - 3
        assert recognize(n, edges).edges() == edges


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
        assert len({frozenset(c.edges()) for c in corpus[n]}) == len(corpus[n])


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


def _attachments_sha256(constructions) -> str:
    digest = hashlib.sha256()
    for c in constructions:
        digest.update(f"{c.attachments}\n".encode())
    return digest.hexdigest()


# sha256 of each construction's attachments, one repr per line, in stream
# order; recorded from the recursive corpus walk and the per-step random draw
# that the choice replay replaced.
CORPUS_SHA256 = {
    3: "04e87ad3cceabd9b642db4e4d25b08aabc3531012ec6edb82b535b73032e8b73",
    4: "7b5a660bbb34036218640284794438e2d91f1b578c7dcd8d8b9fa34060cbe74c",
    5: "efe3ff617f05b3c9673799d39c4c827688e3472a24e093acdc953913534d3d65",
    6: "a6f97472628c8ee2e06bbec5c4b9be61284818e7ddab46f4bcb986ac8033e43f",
    7: "019cd988a43e1ca1329a22dbec1e19d22a37f01bddb6bf7e5f30b88f5f8a983a",
    8: "455265db2d5ba4eed04e6f7c86b6cfe9f493ce2b3e30b847f0782e5f223c0ead",
    9: "a544255edcc474b5f3555e1223957fb677e98c4f466645d957f31294715c4ac1",
}
RANDOM_SHA256 = {  # n -> random_two_tree(n, seed) for seeds 0, 1 and 2
    2: "bf7189515ec1aa14f2dff58050b715ef1b6c6bfc32a4cc822237d73f44d980ae",
    3: "f05fb47ba5becc55448988233f89c9ca20e2cbe0f6634dfc2f2e1f30011c5718",
    4: "52f4346b5c608b008acbbc0e9966596df84cd41fcbe3aa5d911d077862178994",
    7: "53a657c4e7b003da77d8d9ee602caf5b9fcb8614117574b4eb325fa4b49162a9",
    24: "17dc4b41fe5a47cf82ae1a94bcca0ca0798aedea8a281054db0215436c9019f3",
    100: "2a093159fd2ed099466e6ffebd0b90900ef9f02b74eb2f5e1ef2ebc59830eed8",
    1000: "4c93fca60590163ae293ecbc9995341c937d9c952c82c10c84bd9c42406d84e9",
}


@pytest.mark.parametrize("n", CORPUS_SHA256)
def test_all_labeled_stream_golden(n):
    assert _attachments_sha256(all_labeled_two_trees(n)) == CORPUS_SHA256[n]


@pytest.mark.parametrize("n", RANDOM_SHA256)
def test_random_two_tree_golden(n):
    assert _attachments_sha256(random_two_tree(n, seed) for seed in range(3)) == RANDOM_SHA256[n]


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
    assert recognize(7, grown.edges()).edges() == grown.edges()
    assert extend_with_chain(path_square(5), (2, 4), 2, seed=1).attachments[-2] == (5, (2, 4))
    with pytest.raises(OutOfRangeError, match="need at least one chain step, got 0"):
        extend_with_chain(host, (0, 1), 0, seed=0)
    for absent in [(2, 3), (2, 9), (7, 9)]:  # not an edge, or not even vertices
        with pytest.raises(OutOfRangeError, match="not in graph"):
            extend_with_chain(host, absent, 1, seed=0)


@pytest.mark.parametrize("start", [("x", 1), (0, 1.0), 3, (0, 1, 2), (0, True)], ids=repr)
def test_a_start_edge_that_is_not_two_int_ends_is_out_of_range(start):
    # no edge of the graph, so out of range like an absent pair, never a bare TypeError
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(f'start edge {start!r} not in graph')}$"):
        extend_with_chain(book(4), start, 2, seed=0)


def test_a_loop_start_edge_is_a_loop():
    with pytest.raises(LoopEdgeError, match="loop edge at vertex 1"):
        extend_with_chain(book(4), (1, 1), 2, seed=0)


def test_extend_with_chain_matches_the_pair_loop():
    # the chain is appended by attach-edge id; the former loop tracked each
    # attach edge's ends, with the same coin per step
    for seed in range(300):
        host = random_two_tree(2 + seed % 13, seed)
        edges = host.edges()
        start = edges[seed % len(edges)][:: 1 - 2 * (seed % 2)]
        steps = 1 + seed % 9
        grown = extend_with_chain(host, start, steps, seed)
        assert grown == extend_with_chain_by_pairs(host, start, steps, seed)
