from __future__ import annotations

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twotrees import (
    CyclicRequirementError,
    ForeignEdgeError,
    InvalidConstructionError,
    LoopEdgeError,
    OutOfRangeError,
    SimpleGraph,
    TooLargeError,
    TwoTreeError,
    book,
    brute_force_count,
    chain_edge_counts,
    count_book,
    count_containing,
    count_two_simplicial,
    count_via_construction,
    enumerate_spanning_trees,
    extend_with_chain,
    fan,
    fibonacci,
    glue_identity_check,
    kirchhoff_count,
    path_square,
    random_two_tree,
    recognize,
    survey_extremal,
    verify_bounds,
)
from twotrees import counting, graph
from twotrees.counting import _count, _det_bareiss
from twotrees.graph import TwoTreeConstruction, _union_find, edge

from oracle import (
    brute_force_by_backtracking,
    brute_force_by_subsets,
    component_count,
    count_by_edge_dict,
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


@given(st.integers(-1, 5000))
def test_fibonacci_matches_recurrence(k):
    assert fibonacci(k) == fib_by_recurrence(k)


def test_fibonacci_matches_the_engine_past_the_recurrence_range():
    # fast doubling against the series-parallel engine: F(2n - 2) trees of a path square
    assert fibonacci(19_998) == count_via_construction(path_square(10**4))


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


NON_INT_ARGUMENT = {  # a closed form called with a non-int -> its OutOfRangeError message
    "count_book(3.0)": (lambda: count_book(3.0), "count_book needs n >= 2, got 3.0"),
    "count_book(5.5)": (lambda: count_book(5.5), "count_book needs n >= 2, got 5.5"),
    "count_book(True)": (lambda: count_book(True), "count_book needs n >= 2, got True"),
    "count_two_simplicial(4.0)": (
        lambda: count_two_simplicial(4.0), "count_two_simplicial needs n >= 2, got 4.0"
    ),
    "fibonacci(2.0)": (lambda: fibonacci(2.0), "fibonacci index must be >= -1, got 2.0"),
    "fibonacci('3')": (lambda: fibonacci("3"), "fibonacci index must be >= -1, got '3'"),
    "chain_edge_counts(5, 3, 2.0)": (
        lambda: chain_edge_counts(5, 3, 2.0), "chain_edge_counts needs p >= 1, got 2.0"
    ),
    "chain_edge_counts(5.0, 3, 2)": (
        lambda: chain_edge_counts(5.0, 3, 2), "need 0 <= beta <= alpha, got (5.0, 3)"
    ),
    "chain_edge_counts(5, False, 2)": (
        lambda: chain_edge_counts(5, False, 2), "need 0 <= beta <= alpha, got (5, False)"
    ),
    "survey_extremal('5')": (lambda: survey_extremal("5"), "survey_extremal needs n >= 4, got '5'"),
    "survey_extremal(5.0)": (lambda: survey_extremal(5.0), "survey_extremal needs n >= 4, got 5.0"),
}


@pytest.mark.parametrize("call, message", NON_INT_ARGUMENT.values(), ids=list(NON_INT_ARGUMENT))
def test_a_closed_form_argument_that_is_not_an_int_is_out_of_range(call, message):
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
        call()


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
    return _union_find(g.n, required) is None


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


def test_brute_force_exact_values_at_the_edge_cap():
    k7 = SimpleGraph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    grid = SimpleGraph.from_edges(  # 4 x 4, vertex 4r + c
        16, [(v, v + 1) for v in range(16) if v % 4 < 3] + [(v, v + 4) for v in range(12)]
    )
    path = SimpleGraph.from_edges(26, [(v, v + 1) for v in range(25)])
    cycle = SimpleGraph.from_edges(25, [(v, (v + 1) % 25) for v in range(25)])
    assert fibonacci(26) == 121_393
    cases = [
        (book(14), 28_672),
        (fan(14), 121_393),
        (path_square(14), 121_393),
        (k7, 16_807),
        (grid, 100_352),
        (path, 1),
        (cycle, 25),
    ]
    for g, expected in cases:
        assert g.m <= counting.BRUTE_FORCE_EDGE_LIMIT
        assert brute_force_count(g) == expected


@st.composite
def capped_graphs(draw):
    """Up to 26 vertices and 25 edges on shuffled labels: a random spanning
    tree on each side of a drawn cut, plus up to eight more edges inside the
    sides.  A cut inside the range leaves the graph disconnected, and a side
    of one vertex leaves it isolated; the shuffle puts the largest degree
    anywhere."""
    n = draw(st.integers(1, 26))
    cut = draw(st.one_of(st.just(n), st.integers(1, n)))  # no edge joins [0, cut) to [cut, n)
    more = draw(st.integers(0, 8))
    rng = random.Random(draw(seeds))
    tree = [(rng.randrange(0 if v < cut else cut, v), v) for v in range(1, n) if v != cut]
    rest = [(u, v) for u, v in itertools.combinations(range(n), 2) if (u < cut) == (v < cut)]
    rest = [e for e in rest if e not in tree]
    extra = rng.sample(rest, min(more, len(rest), 25 - len(tree)))
    label = rng.sample(range(n), n)
    return SimpleGraph.from_edges(n, [(label[u], label[v]) for u, v in tree + extra])


def _k(vertices):
    return [(u, v) for u in vertices for v in vertices if u < v]


@settings(max_examples=100, deadline=None)
@given(capped_graphs())
# disconnected with m >= n - 1: two K4s; a 25-cycle and an isolated vertex
@example(SimpleGraph.from_edges(8, _k(range(4)) + _k(range(4, 8))))
@example(SimpleGraph.from_edges(26, [(v, (v + 1) % 25) for v in range(25)]))
# isolated vertices: K5 on 1..5 beside vertex 0; a 5-cycle among 9 vertices
@example(SimpleGraph.from_edges(6, _k(range(1, 6))))
@example(SimpleGraph.from_edges(9, [(2, 4), (4, 6), (6, 8), (8, 3), (3, 2)]))
# largest degree away from vertex 0: a 12-wheel with hub 12; a tie at 5 and 7
@example(
    SimpleGraph.from_edges(13, [e for v in range(12) for e in ((v, (v + 1) % 12), (v, 12))])
)
@example(SimpleGraph.from_edges(8, [(5, 0), (5, 1), (5, 2), (7, 3), (7, 4), (7, 6), (5, 7)]))
def test_brute_force_matches_the_edge_subset_walk(g):
    assert brute_force_count(g) == brute_force_by_backtracking(g)


def test_count_via_construction_families():
    assert count_via_construction(book(2)) == 1
    assert count_via_construction(book(2), [(0, 1)]) == 1
    assert count_via_construction(book(3)) == 3
    assert count_via_construction(book(5)) == 20
    assert count_via_construction(path_square(5)) == 21


def test_a_count_with_no_required_edges_looks_no_id_up(monkeypatch):
    # the id lookup builds a step per vertex; a plain count has nothing to look up
    def refuse(*args):
        pytest.fail("a count with no required edges looked an edge id up")

    monkeypatch.setattr(graph, "_edge_ids", refuse)
    assert count_via_construction(path_square(12)) == fibonacci(22)
    assert count_via_construction(random_two_tree(30, 4), []) == kirchhoff_count(random_two_tree(30, 4))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), seeds)
def test_count_via_construction_matches_kirchhoff(n, seed):
    c = random_two_tree(n, seed)
    assert count_via_construction(c) == kirchhoff_count(c)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 10), seeds)
def test_count_via_construction_on_recognized_labels(n, seed):
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
        if _union_find(c.n, required + [e]) is not None:
            required.append(e)
    assert count_via_construction(c, required) == count_containing(c, required)


def _acyclic_sample(rng: random.Random, c: TwoTreeConstruction, k: int) -> list:
    """Up to k edges of c drawn at random, each kept when it closes no cycle."""
    required: list = []
    for e in rng.sample(c.edges(), min(k, c.m)):
        if component_count(c.n, required + [e]) == c.n - len(required) - 1:
            required.append(e)
    return required


def test_engine_matches_the_edge_dict_loop_on_the_corpus(corpus):
    rng = random.Random(21)
    for n in range(3, 8):
        for c in corpus[n]:
            assert count_via_construction(c) == count_by_edge_dict(c)
            required = _acyclic_sample(rng, c, rng.randrange(1, n))
            assert count_via_construction(c, required) == count_by_edge_dict(c, required)


def test_engine_matches_the_edge_dict_loop_up_to_n_200():
    rng = random.Random(200)
    for seed in range(120):
        n = 2 + rng.randrange(199)
        for c in (random_two_tree(n, seed), recognize(n, random_two_tree(n, seed).edges()[::-1])):
            assert count_via_construction(c) == count_by_edge_dict(c)
            required = _acyclic_sample(rng, c, rng.randrange(n))
            assert count_via_construction(c, required) == count_by_edge_dict(c, required)


def _prefix_counts_agree(c: TwoTreeConstruction, rng: random.Random) -> None:
    """For every k, the id-level count of ``c.parent[:k]`` through a random
    forest S matches ``count_containing`` on the 2-tree that the first k steps
    build, whose k + 2 vertices are relabelled densely here."""
    by_id = c.edges_by_id()
    for k in range(c.n - 1):
        ids = [i for i in range(2 * k + 1) if rng.random() < 0.5]
        rng.shuffle(ids)
        forest: list[int] = []
        for i in ids:
            if _union_find(c.n, [by_id[j] for j in forest + [i]]) is not None:
                forest.append(i)
        kept = sorted([*c.base, *(v for v, _ in c.attachments[:k])])
        label = {v: new for new, v in enumerate(kept)}
        edges = [edge(label[x], label[y]) for x, y in by_id[: 2 * k + 1]]
        prefix = SimpleGraph.from_edges(k + 2, edges)
        assert _count(c.parent[:k], forest) == count_containing(prefix, [edges[i] for i in forest])


def test_a_prefix_of_parent_counts_the_2_tree_it_builds(corpus):
    rng = random.Random(23)
    for n in range(3, 8):
        for c in corpus[n]:
            _prefix_counts_agree(c, rng)
    for seed in range(100):
        n = 3 + rng.randrange(58)
        perm = list(range(n))
        rng.shuffle(perm)
        c = recognize(n, [(perm[a], perm[b]) for a, b in random_two_tree(n, seed).edges()])
        _prefix_counts_agree(c, rng)


def _count_matches_the_walk(c: TwoTreeConstruction, rng: random.Random, draws: int) -> None:
    """``_count`` through random id sets, cyclic ones included, equals the
    number of walk trees that hold those edges; ``count_via_construction``
    raises CyclicRequirementError exactly when a union-find finds a cycle."""
    by_id = c.edges_by_id()
    trees = list(enumerate_spanning_trees(c))
    for _ in range(draws):
        ids = rng.sample(range(c.m), rng.randrange(min(c.m, c.n + 1) + 1))
        required = {by_id[i] for i in ids}
        want = sum(1 for t in trees if required <= t)
        assert _count(c.parent, ids) == want
        if _union_find(c.n, required) is None:
            with pytest.raises(CyclicRequirementError, match="^required edges contain a cycle$"):
                count_via_construction(c, required)
        else:
            assert count_via_construction(c, required) == want > 0


def test_count_is_exact_for_any_required_ids(corpus):
    rng = random.Random(25)
    for n in range(3, 8):
        for c in corpus[n]:
            _count_matches_the_walk(c, rng, 3)
    for seed in range(200):
        n = 3 + rng.randrange(7)
        perm = list(range(n))
        rng.shuffle(perm)
        c = recognize(n, [(perm[a], perm[b]) for a, b in random_two_tree(n, seed).edges()])
        _count_matches_the_walk(c, rng, 5)


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


# Each function that reads a required edge set, with the words its foreign-edge message ends in.
REQUIRED_EDGE_READERS = [
    (count_via_construction, "not in graph"),
    (count_containing, "not in graph"),
    (glue_identity_check, "not in the graph"),
]


@pytest.mark.parametrize(
    "read, where", REQUIRED_EDGE_READERS, ids=[read.__name__ for read, _ in REQUIRED_EDGE_READERS]
)
@pytest.mark.parametrize(
    "record",
    [("x", 1), (0, 1.0), (0, 1, 2), 3, (0, True), (True, 2), None, "01", (0,), [0.0, 1]],
    ids=repr,
)
def test_a_required_record_that_is_not_two_int_ends_names_no_edge(read, where, record):
    # (0, True) == (0, 1) and 1.0 == 1, but a bool or a float is no vertex
    message = f"^required edge {re.escape(repr(record))} {where}$"
    for required in ([record], [(0, 2), record], [(2, 9), record]):  # checked before any lookup
        with pytest.raises(ForeignEdgeError, match=message):
            read(book(5), required)
    with pytest.raises(LoopEdgeError):  # records are read in input order
        read(book(5), [(0, 2), (3, 3), record])


@st.composite
def _required_records(draw):
    """Edges of a random 2-tree as tuples or lists, either way round, with up
    to two ends swapped for atoms and maybe a record of another shape."""
    ends = st.integers(-1, 7)
    atoms = st.one_of(ends, ends.map(float), st.booleans(), st.none(), st.text(max_size=2))
    shapes = st.one_of(atoms, st.lists(atoms, max_size=3).map(tuple), st.lists(atoms, max_size=3))
    c = random_two_tree(draw(st.integers(3, 7)), draw(seeds))
    edges = draw(st.lists(st.sampled_from(c.edges()), max_size=4))
    records = [list(e if draw(st.booleans()) else e[::-1]) for e in edges]
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        draw(st.sampled_from(records))[draw(st.integers(0, 1))] = draw(atoms)
    records = [tuple(e) if draw(st.booleans()) else e for e in records]
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(shapes))
    return c, records


@settings(max_examples=300, deadline=None)
@given(_required_records())
def test_any_required_record_counts_or_raises_a_typed_error(case):
    c, records = case
    for read, _ in REQUIRED_EDGE_READERS:
        try:
            got = read(c, records)
        except TwoTreeError:
            continue
        assert all(type(u) is type(v) is int for u, v in records), (read.__name__, records)
        assert got == read(c, [edge(u, v) for u, v in records])


def test_engine_rejects_a_missing_attach_edge():
    # the constructor rejects it, so the engine never sees a missing attach edge
    with pytest.raises(InvalidConstructionError):
        TwoTreeConstruction(5, (0, 1), ((2, (0, 1)), (3, (0, 1)), (4, (2, 3))))


def test_engine_at_ten_thousand_vertices():
    n = 10**4
    assert count_via_construction(book(n)) == count_book(n)
    assert count_via_construction(path_square(n)) == fibonacci(2 * n - 2)


def test_engine_lets_go_of_each_piece_it_folds():
    parent = path_square(20_000).parent
    tracemalloc.start()
    try:
        t = _count(parent)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two lists of 39,999 slots take 0.7 MB; a folded piece of a path
    # square holds Θ(n) bits, so keeping them all takes 76 MB
    assert peak < 4_000_000, f"peak {peak} bytes"
    assert t == fibonacci(39_998)


def test_engine_counts_required_edges_at_twenty_thousand_vertices():
    # a path square is a chain grown from its base edge, with its tip edge last
    n = 20_000
    c = path_square(n)
    assert count_via_construction(c, [(0, 1)]) == fibonacci(2 * n - 3)
    assert count_via_construction(c, [(n - 2, n - 1)]) == chain_edge_counts(1, 1, n - 2)[2]


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
                if _union_find(n, required + [e]) is not None:
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


def test_a_required_edge_is_looked_up_without_listing_every_edge(monkeypatch):
    # one required edge, or a start edge, reads the attach edges above its own
    # step alone: no call lists all 2n - 3 edges
    for c in (random_two_tree(3000, 1), path_square(3000)):
        by_id = c.edges_by_id()
        edges = [c.base, by_id[2 * (c.n // 2) + 1], by_id[2 * (c.n - 4) + 2]]
        want = [
            (count_via_construction(c, [e]), glue_identity_check(c, [e]), extend_with_chain(c, e, 3, 7))
            for e in edges
        ]

        def refuse(self):
            raise AssertionError("edges_by_id called")

        monkeypatch.setattr(TwoTreeConstruction, "edges_by_id", refuse)
        got = [
            (count_via_construction(c, [e]), glue_identity_check(c, [e]), extend_with_chain(c, e, 3, 7))
            for e in edges
        ]
        with pytest.raises(ForeignEdgeError, match=r"required edge \(0, 3000\) not in graph"):
            count_via_construction(c, [(0, c.n)])
        monkeypatch.undo()
        assert got == want
