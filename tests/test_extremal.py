from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    AlreadyTwoSimplicialError,
    CyclicRequirementError,
    ForeignEdgeError,
    InvariantError,
    IsBookError,
    OutOfRangeError,
    SimpleGraph,
    TooLargeError,
    TwoTreeConstruction,
    TwoTreeError,
    all_labeled_two_trees,
    book,
    count_book,
    count_stream,
    count_two_simplicial,
    counting,
    enumerate_spanning_trees,
    extend_with_chain,
    extremal,
    fan,
    glue_identity_check,
    improve_max,
    improve_min,
    is_book,
    kirchhoff_count,
    path_ordering_if_two_simplicial,
    path_square,
    random_chain,
    random_two_tree,
    recognize,
    simplicial_vertices,
    survey_extremal,
    verify_bounds,
)
from twotrees import cli, graph, recognition
from twotrees.enumeration import tree_stream_blocks
from twotrees.formats import serialize_edge_list
from twotrees.graph import _union_find
from twotrees.recognition import _Live, _peel

from oracle import crucial_edge_by_positions, peel_to_core_by_rescan

seeds = st.integers(0, 2**32 - 1)


def test_improve_min_worked_example():
    rep = improve_min(path_square(5))
    assert set(rep.graph_h.edges()) == {(0, 1), (0, 2), (1, 2)}  # K3
    assert (rep.beta1, rep.beta2, rep.gamma) == (2, 2, 1)
    assert (rep.t_g, rep.t_g1, rep.t_g2) == (21, 20, 20)
    assert rep.winner == 1  # tie goes to the first re-homing
    assert rep.winner_count == 20 == count_book(5)


def test_improve_min_fan():
    rep = improve_min(fan(6))
    assert rep.t_g == 55
    assert rep.winner_count < 55
    assert kirchhoff_count(rep.winner_graph) == rep.winner_count


def test_improve_min_rejects_books():
    with pytest.raises(IsBookError):
        improve_min(book(6))
    with pytest.raises(IsBookError):
        improve_min(book(3))
    with pytest.raises(IsBookError):
        improve_min(book(4))
    with pytest.raises(OutOfRangeError, match="improve_min needs n >= 5, got 2"):
        improve_min(book(2))  # no degree-2 vertex to call it a book by


def test_improve_min_split_identity():
    for seed in range(10):
        c = random_two_tree(8, seed)
        if is_book(c):
            continue
        rep = improve_min(c)
        assert 2 * rep.t_g == rep.t_g1 + rep.t_g2 + 2 * rep.gamma
        assert rep.gamma >= 1
        assert min(rep.t_g1, rep.t_g2) < rep.t_g


def test_improve_min_iterates_to_book():
    c = path_square(7)
    counts = [kirchhoff_count(c)]
    while not is_book(c):
        c = improve_min(c).winner_graph
        counts.append(kirchhoff_count(c))
    assert counts[-1] == count_book(7) == 112
    assert all(a > b for a, b in zip(counts, counts[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 40), seeds)
def test_surgery_counts_match_the_determinant(n, seed):
    c = random_two_tree(n, seed)
    t_g = kirchhoff_count(c)
    if not is_book(c):
        rep = improve_min(c)
        assert rep.t_g == t_g
        assert rep.t_g1 == kirchhoff_count(rep.graph_g1)
        assert rep.t_g2 == kirchhoff_count(rep.graph_g2)
    if len(simplicial_vertices(c)) > 2:
        rep = improve_max(c)
        assert (rep.t_g, rep.t_gprime) == (t_g, kirchhoff_count(rep.g_prime))


def test_wrong_counts_raise_invariant_error(monkeypatch):
    real = extremal.count_via_construction
    monkeypatch.setattr(
        extremal, "count_via_construction", lambda c, required=(): real(c, required) + 1
    )
    with pytest.raises(InvariantError):
        improve_min(path_square(6))
    monkeypatch.undo()
    real_by_id = extremal._count
    monkeypatch.setattr(extremal, "_count", lambda parent, ids=(): real_by_id(parent, ids) + 1)
    with pytest.raises(InvariantError):  # H's four counts, which go by edge id
        improve_min(path_square(6))
    monkeypatch.setattr(extremal, "count_via_construction", lambda c, required=(): 7)
    with pytest.raises(InvariantError):
        improve_max(book(6))


def test_invariant_error_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from twotrees import InvariantError, extremal, path_square

        if not sys.flags.optimize:
            sys.exit("expected to run under python -O")
        real = extremal.count_via_construction
        extremal.count_via_construction = lambda c, required=(): real(c, required) + 1
        try:
            extremal.improve_min(path_square(6))
        except InvariantError:
            sys.exit(0)
        sys.exit("improve_min accepted a wrong count")
        """
    )
    src = str(Path(extremal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_improve_max_book5():
    rep = improve_max(book(5))
    assert rep.t_g == 20
    assert rep.t_gprime == 21  # the only larger count at n=5 is F(8)
    assert isinstance(rep.g_prime, TwoTreeConstruction)
    assert rep.g_prime.n == 5
    assert kirchhoff_count(rep.g_prime) == 21


def test_core_peel_matches_rescan_on_corpus(corpus):
    for n in range(3, 8):
        for c in corpus[n]:
            edges = c.edges()
            for v in range(n):
                for w in range(v + 1, n):
                    g = _Live.of(c)
                    deletions = [(u, g.ends(u)) for u in _peel(g, keep={v, w})]
                    alive = set(range(n)).difference(u for u, _ in deletions)
                    assert (alive, deletions) == peel_to_core_by_rescan(n, edges, v, w)


SURGERY_REPORTS_SHA256 = "5470ce564e4946766981fae864147021e7c57f44e829e333e3f0184ef1faa36a"
# the same reports with each construction as its stored build order, which the
# edge sets above cannot see: a changed order or changed ids
SURGERY_BUILD_ORDERS_SHA256 = "3a1f68aefbf86c5406873ff3f1140638c8ae7730133e3836a5f1dfdf34de75e5"


def _surgery_digests(graphs) -> tuple[str, str]:
    """sha256 over every field of both surgeries' reports, or their errors, once
    with each construction as ``(n, edges())`` and once as ``(n, base, order, parent)``."""
    digests = hashlib.sha256(), hashlib.sha256()
    for g in graphs:
        for surgery in (improve_min, improve_max):
            try:
                rep = surgery(recognize(g.n, g.edges()))
            except TwoTreeError as exc:
                lines = [f"{type(exc).__name__}: {exc}"] * 2
            else:
                lines = [
                    repr([
                        (name, view(val) if isinstance(val, TwoTreeConstruction) else val)
                        for name, val in rep._asdict().items()
                    ])
                    for view in (lambda c: (c.n, c.edges()), lambda c: (c.n, c.base, c.order, c.parent))
                ]
            for digest, line in zip(digests, lines):
                digest.update(line.encode() + b"\n")
    return digests[0].hexdigest(), digests[1].hexdigest()


def _relabelled_random(count: int, n_max: int):
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randrange(5, n_max + 1)
        label = list(range(n))
        rng.shuffle(label)
        edges = random_two_tree(n, seed).edges()
        yield SimpleGraph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def test_surgery_reports_match_golden(corpus):
    graphs = []
    for n in (5, 6, 7):  # pinned on each n's graphs in edge-tuple order, through recognize
        graphs.extend(sorted(corpus[n], key=TwoTreeConstruction.edges))
    graphs.extend(_relabelled_random(200, 200))
    assert _surgery_digests(graphs) == (SURGERY_REPORTS_SHA256, SURGERY_BUILD_ORDERS_SHA256)


def test_neither_surgery_calls_recognize(monkeypatch, tmp_path):
    # both take G's construction and build every other graph from its peel;
    # they, the path ordering, both enumeration views, the edge-list writer
    # and the CLI commands built on them read the construction, not a graph
    def refuse(g):
        pytest.fail("a surgery ran recognize")

    def refuse_realize(c):
        pytest.fail("a 2-tree path ran TwoTreeConstruction.realize")

    monkeypatch.setattr(recognition, "recognize", refuse)
    monkeypatch.setattr(TwoTreeConstruction, "realize", refuse_realize)
    assert not hasattr(extremal, "recognize")
    improve_min(path_square(7))
    improve_max(book(7))
    assert path_ordering_if_two_simplicial(path_square(7)) == tuple(range(7))
    c = random_two_tree(7, 3)
    assert count_stream(enumerate_spanning_trees(c)) == sum(
        lines for _, lines in tree_stream_blocks(c)
    )
    assert serialize_edge_list(c).startswith("7 11\n")
    for argv in (
        ["gen", "random", "9", "--format", "edges"],
        ["improve", "min", "--family", "path-square", "--n", "7", "--out", str(tmp_path / "min")],
        ["improve", "max", "--family", "book", "--n", "7", "--out", str(tmp_path / "max")],
        ["enumerate", "--family", "random", "--n", "9", "--limit", "50"],
    ):
        assert cli.main(argv) == 0, argv



def test_constructions_are_handed_over_by_id(monkeypatch):
    # recognize, both surgeries and the families give the constructor each
    # step's attach-edge id, so no attach edge is looked up by its ends
    c = random_two_tree(40, 2)
    edges = c.edges()

    def refuse(*args):
        pytest.fail("an attach edge was looked up by its ends")

    monkeypatch.setattr(graph, "_edge_ids", refuse)  # graph alone binds it
    recognize(c.n, edges)
    improve_min(c)
    improve_max(c)
    for family in (book, path_square, fan):
        family(30)


def test_improve_min_builds_one_live_state(monkeypatch):
    # the pair is chosen, peeled and re-appended in the live state of G that H is peeled in
    built, real = [], _Live.__init__

    def counted(self, n, codes):
        built.append(n)
        real(self, n, codes)

    monkeypatch.setattr(_Live, "__init__", counted)
    for c in (random_two_tree(40, 2), path_square(9), random_chain(12, 3)):
        built.clear()
        improve_min(c)
        assert built == [c.n]

def test_oracle_callers_pass_the_construction_as_is(monkeypatch, capsys):
    # Kirchhoff, brute force and count_containing read n, m and edges(), so
    # no library or CLI caller turns a 2-tree into a graph first
    def refuse_realize(c):
        pytest.fail("an oracle caller ran TwoTreeConstruction.realize")

    monkeypatch.setattr(TwoTreeConstruction, "realize", refuse_realize)
    c = random_two_tree(9, 4)
    assert glue_identity_check(c, [c.base])
    assert survey_extremal(5).max_count == 21
    for argv in (
        ["count", "--family", "random", "--n", "30"],
        ["count", "--method", "kirchhoff", "--family", "book", "--n", "9"],
        ["count", "--method", "brute", "--family", "fan", "--n", "9"],
        ["verify", "oracle", "--n-max", "5"],
        ["verify", "extremal", "--n-max", "5"],
        ["verify", "identities", "--trials", "5"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_improve_max_rejects_two_simplicial():
    with pytest.raises(AlreadyTwoSimplicialError):
        improve_max(path_square(7))
    with pytest.raises(AlreadyTwoSimplicialError):
        improve_max(book(4))
    with pytest.raises(OutOfRangeError):
        improve_max(book(3))


def test_improve_max_strict_on_corpus_subset(corpus):
    for c in corpus[6]:
        if len(simplicial_vertices(c)) > 2:
            rep = improve_max(c)
            assert rep.t_gprime > rep.t_g
            assert rep.g_prime.n == c.n
            assert rep.subtree_j.n >= 3


def test_improve_max_iterates_to_two_simplicial():
    c = book(7)
    count = kirchhoff_count(c)
    while len(simplicial_vertices(c)) > 2:
        rep = improve_max(c)
        assert rep.t_gprime > count
        c, count = rep.g_prime, rep.t_gprime
    assert count == count_two_simplicial(7) == 144


def test_improve_max_multiple_hanging_pieces():
    # a path-square core with three extra leaves hung on interior edges
    base = path_square(5)
    edges = base.edges() + [
        (1, 5), (2, 5),   # piece at (1, 2)
        (2, 6), (3, 6),   # piece at (2, 3)
        (1, 7), (3, 7),   # piece at (1, 3)
    ]
    c = recognize(8, edges)
    rep = improve_max(c)
    # the first path triangle, {0, 1, 2}, holds only its attach edge, which wins
    assert (rep.crucial_edge, rep.p) == ((1, 2), 1)
    assert rep.subtree_j.edges() == [(0, 1), (0, 2), (1, 2)]
    assert (rep.t_g, rep.t_gprime) == (320, 344)
    assert rep.g_prime.n == 8
    # pure function: identical reports on identical input
    assert improve_max(c) == rep


def _max_surgery_inputs(count: int, n_max: int):
    """Relabelled random 2-trees and chains with extra pieces, n <= n_max."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randrange(6, n_max + 1)
        if seed % 2:
            c = random_two_tree(n, seed)
        else:  # a chain, then pieces grown out of random edges up to n vertices
            c = random_chain(rng.randrange(4, n), seed)
            while c.n < n:
                start = rng.choice(c.edges())
                c = extend_with_chain(c, start, rng.randrange(1, n - c.n + 1), seed)
        label = list(range(n))
        rng.shuffle(label)
        yield recognize(n, [(label[u], label[v]) for u, v in c.edges()])


def test_improve_max_matches_the_positional_rule(corpus):
    graphs = [c for n in (5, 6, 7) for c in corpus[n]]
    graphs.extend(_max_surgery_inputs(300, 300))
    checked = 0
    for c in graphs:
        if len(simplicial_vertices(c)) > 2:
            rep = improve_max(c)
            assert (rep.crucial_edge, rep.p) == crucial_edge_by_positions(c)
            checked += 1
    assert checked > 1000


def test_improve_max_guards_a_path_peel_without_hanging_edges(monkeypatch):
    # a path peel whose triangles all sit on two vertices outside the graph
    # holds no hanging edge, so no piece can be chosen to move
    real = extremal._path_order

    def off_the_graph(g, goal):
        order, peeled = real(g, goal)
        for u in order[:peeled]:  # the sums a deleted vertex keeps name its attach edge
            g.s[u], g.q[u] = 2 * g.n + 1, g.n**2 + (g.n + 1) ** 2  # (n, n + 1)
        return order, peeled

    monkeypatch.setattr(extremal, "_path_order", off_the_graph)
    with pytest.raises(InvariantError, match="no path triangle holds a hanging edge"):
        improve_max(book(6))

@settings(max_examples=30, deadline=None)
@given(st.integers(9, 13), seeds)
def test_improve_max_strict_beyond_corpus(n, seed):
    c = random_two_tree(n, seed)
    if len(simplicial_vertices(c)) <= 2:
        return
    rep = improve_max(c)
    assert rep.t_gprime > rep.t_g
    assert kirchhoff_count(rep.g_prime) == rep.t_gprime


def test_surgeries_climb_and_descend_to_extremes(monkeypatch):
    # each report hands back a construction, so the walk never recognizes
    def refuse(g):
        pytest.fail("the walk ran recognize")

    monkeypatch.setattr(recognition, "recognize", refuse)
    for seed in (3, 11):
        c = random_two_tree(10, seed * 37 + 10)
        count = kirchhoff_count(c)
        while len(simplicial_vertices(c)) > 2:
            rep = improve_max(c)
            assert rep.t_gprime > count
            c, count = rep.g_prime, rep.t_gprime
            assert count == kirchhoff_count(c)
        assert count == count_two_simplicial(10)

        c = random_two_tree(10, seed)
        count = kirchhoff_count(c)
        while not is_book(c):
            rep = improve_min(c)
            assert rep.winner_count < count
            c, count = rep.winner_graph, rep.winner_count
            assert count == kirchhoff_count(c)
        assert count == count_book(10) == 1280


def _random_acyclic_subset(c, rng, p):
    """Each edge of G - v, in shuffled order, kept with probability p if S stays acyclic."""
    v = c.attachments[-1][0]
    pool = [e for e in c.edges() if v not in e]
    rng.shuffle(pool)
    required = []
    for e in pool:
        if rng.random() < p and _union_find(c.n, required + [e]) is not None:
            required.append(e)
    return required


def test_glue_identity_check_triangles():
    # book(4) is two triangles glued along (0, 1); vertex 3 is the split vertex
    assert glue_identity_check(book(4), [])
    assert glue_identity_check(book(3), [])


def test_glue_identity_check_mixed():
    # path_square(4): vertex 3 arrives on (1, 2)
    assert glue_identity_check(path_square(4), [(0, 2)])
    assert glue_identity_check(path_square(4), [(0, 1), (0, 2)])
    assert glue_identity_check(path_square(5), [(2, 3)])
    # recognition labels the split vertex 0, so G - v is relabelled
    c = recognize(5, path_square(5).edges())
    assert c.attachments[-1][0] == 0
    assert glue_identity_check(c, [(3, 4), (2, 4)])
    assert glue_identity_check(fan(6), [(0, 1), (1, 2), (3, 4)])


def test_glue_identity_check_with_required_e():
    # force the column where the split vertex's attach edge is required
    c = path_square(5)
    v, wz = c.attachments[-1]
    assert (v, wz) == (4, (2, 3))
    assert glue_identity_check(c, [wz])
    assert glue_identity_check(c, [wz, (1, 3)])


def test_glue_identity_check_rejects_cycle():
    # the engine's first count rejects a cyclic S, after every edge of S is checked
    with pytest.raises(CyclicRequirementError, match="^required edges contain a cycle$"):
        glue_identity_check(path_square(6), [(1, 2), (2, 3), (1, 3)])
    for late, wrong in (((2, 9), "not in the graph"), ((4, 5), "touches the split vertex")):
        with pytest.raises(ForeignEdgeError, match=wrong):
            glue_identity_check(path_square(6), [(1, 2), (2, 3), (1, 3), late])


def test_glue_identity_check_ignores_a_repeated_edge():
    # required is a set, as in count_containing: a repeat closes no cycle
    assert glue_identity_check(path_square(6), [(0, 1), (0, 1)])
    assert glue_identity_check(path_square(6), [(0, 1), (1, 0)])


def test_glue_identity_check_rejects_bad_input():
    with pytest.raises(ForeignEdgeError, match="touches the split vertex"):
        glue_identity_check(path_square(5), [(3, 4)])
    with pytest.raises(ForeignEdgeError, match="not in the graph"):
        glue_identity_check(path_square(5), [(0, 3)])
    with pytest.raises(ForeignEdgeError, match="not in the graph"):
        glue_identity_check(path_square(5), [(2, 9)])
    with pytest.raises(OutOfRangeError):
        glue_identity_check(book(2), [])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), seeds)
def test_glue_identity_check_randomized(n, seed):
    # relabel a random 2-tree so that the split vertex carries any label
    rng = random.Random(seed)
    g = random_two_tree(n, rng.randrange(2**30))
    perm = list(range(n))
    rng.shuffle(perm)
    c = recognize(n, [(perm[a], perm[b]) for a, b in g.edges()])
    assert glue_identity_check(c, _random_acyclic_subset(c, rng, 0.5))


@pytest.mark.parametrize("wrong", range(6), ids=["T_S", "t", "s", "T_S_vw", "T_S_vz", "T_S_vw_vz"])
def test_glue_identity_check_notices_a_wrong_count(monkeypatch, wrong):
    # T(S) comes from the engine, then t, s and the three counts through v's
    # edges by id, in this order; each one off by one must fail the check
    c = random_two_tree(9, 4)
    required = _random_acyclic_subset(c, random.Random(0), 0.4)
    assert glue_identity_check(c, required)
    calls: list[int] = []

    def off_by_one_at_call_wrong(real):
        def count(*args):
            calls.append(len(calls))
            return real(*args) + (calls[-1] == wrong)

        return count

    for name in ("count_via_construction", "_count"):
        monkeypatch.setattr(extremal, name, off_by_one_at_call_wrong(getattr(extremal, name)))
    assert not glue_identity_check(c, required)
    assert len(calls) == 6  # S does not join w and z, so s is counted


def test_glue_identity_check_looks_s_up_once_and_tests_no_forest(monkeypatch):
    # the check looks S up once and takes all six counts, T(S) too, by edge
    # id; the core's count judges a cycle, so no forest test runs, whether or
    # not S joins w and z
    c = random_two_tree(60, 5)
    _, wz = c.attachments[-1]
    apart = _random_acyclic_subset(c, random.Random(1), 0.3)
    find = _union_find(c.n, apart)
    assert apart and find(wz[0]) != find(wz[1])
    calls = {"_edge_ids": 0, "_union_find": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    # each name is patched where it is bound: graph alone binds _edge_ids
    for name, modules in (("_edge_ids", (graph,)), ("_union_find", (graph, counting))):
        wrapper = counted(name, getattr(graph, name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    for required in (apart, [wz, *apart]):  # S + wz is still a forest
        calls.update(_edge_ids=0, _union_find=0)
        assert glue_identity_check(c, required)
        assert calls == {"_edge_ids": 1, "_union_find": 0}


@pytest.mark.parametrize("n", [401, 2000])
def test_glue_identity_check_runs_past_the_oracle_cap(n):
    # the six counts come from the engine, so n = 400 is no limit
    c = random_two_tree(n, n)
    rng = random.Random(n)
    for p in (0.0, 0.1, 0.5):
        assert glue_identity_check(c, _random_acyclic_subset(c, rng, p))


def test_library_counts_2_trees_without_an_oracle(monkeypatch, capsys):
    # the determinant and the brute force only run where a result is
    # compared against them: none of these compares
    def refuse(*args):
        raise AssertionError("an oracle counted a 2-tree")

    monkeypatch.setattr(counting, "_laplacian_cofactor", refuse)
    monkeypatch.setattr(counting, "brute_force_count", refuse)
    assert survey_extremal(7)[2:] == (112, 144, True, True)
    rng = random.Random(19)
    for i in range(50):
        c = random_two_tree(4 + rng.randrange(12), i)
        assert glue_identity_check(c, _random_acyclic_subset(c, rng, rng.random()))
    c = random_two_tree(12, 3)
    low, high = improve_min(c), improve_max(c)
    assert low.winner_count < low.t_g == high.t_g < high.t_gprime
    assert verify_bounds(c) == (True, True)
    assert cli.main(["verify", "extremal", "--n-max", "6"]) == 0
    capsys.readouterr()


def test_identities_suite_runs_the_oracles_only_for_deletion_contraction(monkeypatch, capsys):
    calls: list[tuple[str, str]] = []

    def traced(name):
        real = getattr(counting, name)

        def wrapper(*args):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        monkeypatch.setattr(counting, name, wrapper)

    traced("kirchhoff_count")
    traced("count_containing")
    trials = 30
    assert cli.main(["verify", "identities", "--trials", str(trials)]) == 0
    capsys.readouterr()
    assert {caller for _, caller in calls} == {"_check_deletion_contraction"}
    assert [name for name, _ in calls].count("kirchhoff_count") == 2 * trials
    assert [name for name, _ in calls].count("count_containing") == trials


def test_survey_small_values():
    s4 = survey_extremal(4)
    assert (s4.min_count, s4.max_count) == (8, 8)
    assert s4.min_attainers_all_books and s4.max_attainers_all_two_simplicial

    s5 = survey_extremal(5)
    assert (s5.min_count, s5.max_count) == (20, 21)
    assert s5.corpus_size == 15

    s7 = survey_extremal(7)
    assert (s7.min_count, s7.max_count) == (112, 144)


# at n = 6 these give the attainer flags (False, True), (False, False),
# (True, False) and (True, True)
@pytest.mark.parametrize(
    "scramble",
    [lambda t: t % 2, lambda t: t % 3, lambda t: min(t, 54), lambda t: t],
    ids=["mod-2", "mod-3", "cap-54", "exact"],
)
def test_survey_tracks_the_attainers_of_any_count(monkeypatch, scramble):
    # a scrambled count puts the extremes on other graphs; the one pass must
    # give what the definition gives over the whole list
    def scrambled(g):
        return scramble(kirchhoff_count(g))

    corpus = list(all_labeled_two_trees(6))
    counts = [scrambled(c) for c in corpus]
    lo, hi = min(counts), max(counts)
    expected = (
        6, len(corpus), lo, hi,
        all(is_book(c) for c, t in zip(corpus, counts) if t == lo),
        all(len(simplicial_vertices(c)) == 2 for c, t in zip(corpus, counts) if t == hi),
    )
    monkeypatch.setattr(extremal, "count_via_construction", scrambled)
    assert tuple(survey_extremal(6)) == expected


def test_survey_holds_one_graph_at_a_time():
    survey_extremal(4)  # imports outside the trace
    tracemalloc.start()
    try:
        summary = survey_extremal(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.corpus_size == 10395
    assert peak < 2 * 2**20


def test_survey_guards():
    with pytest.raises(OutOfRangeError):
        survey_extremal(3)
    with pytest.raises(TooLargeError):
        survey_extremal(9)


def test_survey_json_shape():
    payload = survey_extremal(5).to_json()
    assert payload == {
        "n": 5,
        "corpus_size": 15,
        "min": "20",
        "max": "21",
        "min_attainers_all_books": True,
        "max_attainers_all_two_simplicial": True,
    }


def test_monotone_bound_over_corpus(corpus):
    for n in (5, 6, 7):
        lo, hi = count_book(n), count_two_simplicial(n)
        for c in corpus[n]:
            t = kirchhoff_count(c)
            assert lo <= t <= hi
