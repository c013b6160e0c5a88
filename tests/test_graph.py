from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotrees
from twotrees import (
    InvalidConstructionError,
    LoopEdgeError,
    OutOfRangeError,
    SimpleGraph,
    TwoTreeConstruction,
    TwoTreeError,
    book,
    edge,
    path_square,
    random_two_tree,
    recognize,
)
from twotrees.formats import serialize_edge_list
from twotrees.graph import _union_find

from oracle import adjacency, component_count

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
    assert (g.n, g.m) == (4, 3)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.sorted_edges == ((0, 1), (1, 2), (2, 3))
    # either orientation, in any order, and a repeat counts once
    assert SimpleGraph.from_edges(4, [(3, 2), (1, 0), (2, 1), (0, 1)]) == g
    g.edges().append((0, 3))  # a fresh list each call
    assert g.m == 3
    with pytest.raises(OutOfRangeError, match="nonnegative"):
        SimpleGraph.from_edges(-1, [])


def test_from_edges_builds_nothing_per_vertex():
    edges = [(0, v) for v in range(1, 27)]
    SimpleGraph.from_edges(27, edges)  # warm
    # 26 edges take a few kB at any n; n = 10^5 goes first, so a build per
    # vertex fails there at megabytes, before 10^9 could exhaust memory
    for n in (10**5, 10**9):
        tracemalloc.start()
        try:
            g = SimpleGraph.from_edges(n, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000, f"n={n}: peak {peak} bytes"
        assert (g.n, g.m, g.edges()) == (n, 26, edges)


def test_simple_graph_rejects_bad_edges():
    with pytest.raises(OutOfRangeError):
        SimpleGraph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    # an end that is no int, a bool included, is no vertex, however it compares
    for record in ((0, 1.5), (1.0, 1), (True, 2), (0, "1")):  # the ends shown by repr
        with pytest.raises(OutOfRangeError, match=re.escape(f"edge {record!r} outside vertex range")):
            SimpleGraph.from_edges(3, [(1, 2), record, (0, 2)])
    for record in ((0, 1, 2), (0,), 5, None):
        with pytest.raises(OutOfRangeError, match=re.escape(f"edge record {record!r} is not a pair")):
            SimpleGraph.from_edges(3, [(1, 2), record])
    for n in (None, 3.0, "3", True):
        with pytest.raises(OutOfRangeError, match=re.escape(f"must be nonnegative, got {n!r}")):
            SimpleGraph.from_edges(n, [])


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
    assert set(k3.edges()) == {(0, 1), (0, 2), (1, 2)}

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


def test_id_records_keep_their_error_precedence():
    # attachment count, then coverage, then a non-int label, then the build rule
    for attachments, wrong in (
        (((2, 9), (2.0, 7), (3, 0)), "expected 2 attachments"),
        (((2, 9), (2.0, 0)), "exactly once"),
        (((2, 9), (3.0, 0)), "a vertex label is not an int"),
        (((2, 9), (3, 0)), "id 9 absent when vertex 2"),
    ):
        with pytest.raises(InvalidConstructionError, match=wrong):
            TwoTreeConstruction(4, (0, 1), attachments)


def test_a_third_field_is_malformed_in_its_turn():
    # a record of three fields among two-field ones is malformed in both forms
    # (a transposing unpack, zip(*records), would cut it to two), but only where
    # it is read: after the cover and the labels, and by id after every earlier record
    for attachments in ([(2, 0, 9), (3, 1)], [(2, (0, 1), 9), (3, (1, 2))], [(2, 0), (3, 1, 9)]):
        with pytest.raises(InvalidConstructionError, match="too many values to unpack"):
            TwoTreeConstruction(4, (0, 1), attachments)
    for attachments, wrong in (
        ([(2, 0, 9), (2, 1)], "exactly once"),
        ([(2, (0, 1), 9), (2, (1, 2))], "exactly once"),
        ([(2, 0, 9), (3.0, 1)], "a vertex label is not an int"),
        ([(2, (0, 1), 9), (3, (1.0, 2))], "a vertex label is not an int"),
        ([(2, 9), (3, 1, 9)], "id 9 absent when vertex 2"),
    ):
        with pytest.raises(InvalidConstructionError, match=wrong):
            TwoTreeConstruction(4, (0, 1), attachments)


def test_only_graph_binds_the_edge_id_lookup():
    # every caller asks the construction for ids; graph alone turns ends into them
    for info in pkgutil.iter_modules(twotrees.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"twotrees.{info.name}")
        assert hasattr(module, "_edge_ids") == (info.name == "graph"), info.name
        assert not hasattr(module, "_attach_ends"), info.name
    assert not hasattr(TwoTreeConstruction, "_attach_ends")


def test_construction_canonicalizes_its_edges():
    attachments = ((2, (0, 1)), (3, (1, 2)))
    for given in ([(2, (1, 0)), (3, (2, 1))], ((2, [0, 1]), (3, [1, 2])), ([2, (0, 1)], [3, (1, 2)])):
        c = TwoTreeConstruction(4, (1, 0), given)
        assert (c.base, c.attachments) == ((0, 1), attachments)
        assert hash(c) == hash(TwoTreeConstruction(4, (0, 1), attachments))


def test_construction_keeps_canonical_pairs_and_normalizes_the_rest():
    canonical = TwoTreeConstruction(5, (0, 1), ((2, (0, 1)), (3, (1, 2)), (4, (2, 3))))
    mixed = TwoTreeConstruction(5, [1, 0], [canonical.attachments[0], (3, [1, 2]), [4, (3, 2)]])
    assert mixed == canonical and hash(mixed) == hash(canonical)
    assert repr(mixed) == repr(canonical)
    assert (mixed.order, mixed.parent) == (canonical.order, canonical.parent)
    assert all(type(a) is tuple and type(a[1]) is tuple for a in mixed.attachments)
    with pytest.raises(LoopEdgeError):
        TwoTreeConstruction(4, (0, 1), ((2, (0, 1)), [3, [2, 2]]))


def test_a_construction_keeps_its_build_order_once():
    # n, base, each step's vertex and attach-edge id: attachments is read off
    # the ids, not kept (it held 18.0 and 24.4 MB at n = 10^5)
    assert TwoTreeConstruction.__slots__ == ("n", "base", "order", "parent")
    for make in (lambda: random_two_tree(10**5, 1), lambda: path_square(10**5)):
        tracemalloc.start()
        try:
            c = make()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 10 * 2**20, f"{kept / 2**20:.1f} MB kept by {c.n} vertices"


def test_value_types_are_frozen_and_compare_by_field():
    c = TwoTreeConstruction(3, (0, 1), ((2, (0, 1)),))
    g = c.realize()
    assert repr(c) == "TwoTreeConstruction(n=3, base=(0, 1), attachments=((2, (0, 1)),))"
    assert repr(g) == "SimpleGraph(n=3, m=3)"
    for value, field in ((c, "base"), (g, "sorted_edges")):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert g == SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]) != c
    match c:
        case TwoTreeConstruction(n, base, _):
            assert (n, base) == (3, (0, 1))
    assert len({c, TwoTreeConstruction(3, (1, 0), [(2, (1, 0))]), g}) == 2


def _refuse_edges_by_id(monkeypatch):
    """Make listing every edge fail the test."""

    def refuse(self):
        raise AssertionError("edges_by_id called")

    monkeypatch.setattr(TwoTreeConstruction, "edges_by_id", refuse)


class _PairForm:
    """Pickles as a construction did before: its ``(vertex, (x, y))`` records."""

    def __init__(self, c):
        self.c = c

    def __reduce__(self):
        return TwoTreeConstruction, (self.c.n, self.c.base, self.c.attachments)


def test_a_construction_hashes_and_pickles_by_its_stored_fields(monkeypatch):
    # hash, pickle and deepcopy read n, base, order and parent, and list no edge
    for c in (random_two_tree(300, 3), recognize(5, book(5).edges()[::-1]), book(2)):
        old_pickle = pickle.dumps(_PairForm(c))
        _refuse_edges_by_id(monkeypatch)
        h = hash(c)
        copies = [pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)]
        monkeypatch.undo()
        for x in copies:
            assert x == c and hash(x) == h and x.order == c.order and x.parent == c.parent
        assert pickle.loads(old_pickle) == c  # a pickle in the former pair form still loads


def _id_layout_holds(c: TwoTreeConstruction) -> bool:
    """Edge 0 is the base; step i's edges from its vertex to the smaller and
    the larger end of its attach edge are 2i + 1 and 2i + 2; parent[i] names
    the attach edge and was made before step i."""
    by_id = c.edges_by_id()
    ok = by_id[0] == c.base and sorted(by_id) == c.edges() and len(c.parent) == c.n - 2
    for i, (v, (x, y)) in enumerate(c.attachments):
        ok = ok and by_id[2 * i + 1] == edge(v, x) and by_id[2 * i + 2] == edge(v, y)
        ok = ok and 0 <= c.parent[i] < 2 * i + 1 and by_id[c.parent[i]] == (x, y)
    return ok


def test_edge_ids_follow_the_build_order(corpus):
    assert all(_id_layout_holds(c) for n in range(3, 8) for c in corpus[n])
    for seed in range(20):
        c = random_two_tree(2 + seed * 7, seed)
        relabelled = [edge(c.n - 1 - u, c.n - 1 - v) for u, v in c.edges()]
        assert _id_layout_holds(c) and _id_layout_holds(recognize(c.n, relabelled))
    assert book(2).parent == () and book(5).parent == (0, 0, 0)
    assert path_square(6).parent == (0, 2, 4, 6)  # each vertex on its predecessor's edge to its larger end


def test_a_construction_from_ids_equals_the_one_from_tuples():
    for seed in range(20):
        by_id = random_two_tree(3 + seed, seed)  # made from its drawn ids
        c = recognize(by_id.n, by_id.edges()[::-1])  # made from tuples, in another order
        for x, y in (
            (by_id, TwoTreeConstruction(by_id.n, by_id.base, by_id.attachments)),
            (c, TwoTreeConstruction(c.n, list(c.base), [[v, p] for (v, _), p in zip(c.attachments, c.parent)])),
        ):
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
            assert x.parent == y.parent and x.attachments == y.attachments
            for copied in (pickle.loads(pickle.dumps(y)), copy.deepcopy(y)):
                assert copied == x and copied.parent == x.parent


def test_attach_edge_ids_must_name_an_earlier_edge():
    assert TwoTreeConstruction(4, (0, 1), ((2, 0), (3, 2))).attachments == ((2, (0, 1)), (3, (1, 2)))
    for attachments, wrong in (  # step 0 may name only the base, step 1 ids 0..2
        (((2, -1), (3, 0)), r"id -1 absent when vertex 2"),
        (((2, 1), (3, 0)), r"id 1 absent when vertex 2"),
        (((2, 0), (3, 3)), r"id 3 absent when vertex 3"),
        (((2, 0), (3, (0, 1))), r"id \(0, 1\) absent when vertex 3"),
        (((2, (0, 1)), (3, 1)), r"edge 1 absent when vertex 3"),  # a pair first, then an id
    ):
        with pytest.raises(InvalidConstructionError, match=wrong):
            TwoTreeConstruction(4, (0, 1), attachments)
    with pytest.raises(InvalidConstructionError, match="exactly once"):
        TwoTreeConstruction(4, (0, 1), ((2, 0), (2, 0)))  # the cover is checked first



@pytest.mark.parametrize(
    "base, record",
    [
        ((0, 1), (2, True)),
        ((0, 1), (2, None)),
        ((0, 1), ("2", (0, 1))),
        ((0, 1, 2), (2, (0, 1))),
        ((0, 1), (2, (0, 1, 2))),
        ((0, 1), (2, (0,))),
        ((0, 1), (2,)),
        ((0, 2), (True, (0, 2))),  # every label an int: no bool, no float
        ((0, 1), (2.0, 0)),
        ((True, 0), (2, (0, 1))),
        ((0, 1), (2, (False, True))),
        ((0, 1), [2, (0, 1), 99]),  # two fields, whatever the container
    ],
)
def test_malformed_records_raise_invalid_construction(base, record):
    with pytest.raises(InvalidConstructionError, match="malformed construction record"):
        TwoTreeConstruction(3, base, [record])


_atoms = st.one_of(
    st.integers(-1, 4), st.integers(-1, 4).map(float), st.booleans(), st.none(), st.text(max_size=2)
)
_shapes = st.one_of(_atoms, st.lists(_atoms, max_size=3).map(tuple))
_records = st.one_of(_shapes, st.lists(_shapes, max_size=3).map(tuple), st.lists(_shapes, max_size=3))


@st.composite
def _perturbed_constructions(draw):
    """A random 2-tree's base and records, attach edges by ends or by id, with
    up to two labels swapped for atoms: an equal float or bool among them."""
    n = draw(st.integers(2, 6))
    c = random_two_tree(n, draw(seeds))
    by_id = draw(st.booleans())
    base = list(c.base)
    records = [[v, p if by_id else list(e)] for (v, e), p in zip(c.attachments, c.parent)]
    labels = [(base, 0), (base, 1), *((r, 0) for r in records)]
    if not by_id:
        labels += [(r[1], k) for r in records for k in (0, 1)]
    for _ in range(draw(st.integers(0, 2))):
        row, k = draw(st.sampled_from(labels))
        row[k] = draw(_atoms)
    return n, base, records


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(2, 5), _shapes, st.lists(_records, max_size=4)),
        _perturbed_constructions(),
    )
)
def test_any_record_shape_builds_or_raises_a_typed_error(case):
    n, base, records = case
    try:
        c = TwoTreeConstruction(n, base, records)
    except TwoTreeError:
        return
    labels = [*c.base, *(x for v, ends in c.attachments for x in (v, *ends))]
    assert {type(x) for x in labels} == {int}, c


@st.composite
def _perturbed_edge_lists(draw):
    """A random 2-tree's n and edges, as lists, with up to two ends swapped for
    atoms, an equal float or bool among them, and maybe one record for a shape."""
    n = draw(st.integers(2, 6))
    edges = [list(e) for e in random_two_tree(n, draw(seeds)).edges()]
    for _ in range(draw(st.integers(0, 2))):
        draw(st.sampled_from(edges))[draw(st.integers(0, 1))] = draw(_atoms)
    if draw(st.booleans()):
        edges[draw(st.integers(0, len(edges) - 1))] = draw(_shapes)
    return n, edges


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.one_of(st.integers(-1, 5), _atoms), st.lists(_shapes, max_size=8)),
        _perturbed_edge_lists(),
    )
)
def test_any_edge_record_reads_or_raises_a_typed_error(case):
    n, edges = case
    for read in (SimpleGraph.from_edges, recognize):
        try:
            g = read(n, edges)
        except TwoTreeError:
            continue
        ends = [x for e in g.edges() for x in e]
        assert {type(x) for x in ends} <= {int} and all(0 <= x < n for x in ends), g


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
        assert c.realize().m == 2 * n - 3 and component_count(n, c.realize().edges()) == 1
    else:
        with pytest.raises(InvalidConstructionError, match="absent when vertex"):
            TwoTreeConstruction(n, base, tuple(attachments))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), seeds)
def test_realize_edge_count_invariant(n, seed):
    c = random_two_tree(n, seed)
    g = c.realize()
    assert g.m == 2 * n - 3
    assert component_count(n, g.edges()) == 1
    # recognize keeps a shuffled graph's labels, so vertices arrive out of order
    label = list(range(n))
    random.Random(seed).shuffle(label)
    shuffled = [(label[u], label[v]) for u, v in g.edges()]
    relabelled = recognize(n, shuffled)
    assert relabelled.realize() == SimpleGraph.from_edges(n, shuffled)
    for built in (c, relabelled):
        assert built.realize() == SimpleGraph.from_edges(n, built.edges())
        assert built.edges() == built.realize().edges()
        assert built.m == len(built.edges()) == built.realize().m
        assert built.adjacency() == adjacency(n, built.edges())
        assert serialize_edge_list(built) == serialize_edge_list(built.realize())


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
    components = component_count(n, edges)
    find = _union_find(n, edges)
    if len(edges) == n - components:  # a forest: find names its components
        assert find is not None and len({find(v) for v in range(n)}) == components
    else:
        assert find is None
