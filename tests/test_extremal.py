from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    AlreadyTwoSimplicialError,
    BadGlueError,
    CyclicRequirementError,
    InvariantError,
    IsBookError,
    OutOfRangeError,
    TooLargeError,
    align_for_glue,
    book,
    count_book,
    count_two_simplicial,
    extremal,
    fan,
    glue,
    glue_identity_check,
    improve_max,
    improve_min,
    is_book,
    kirchhoff_count,
    path_square,
    random_two_tree,
    recognize,
    relabel_edge_to_base,
    survey_extremal,
)
from twotrees.graph import spanning_forest_components

seeds = st.integers(0, 2**32 - 1)


def k3():
    return book(3).realize()


def test_improve_min_worked_example():
    rep = improve_min(path_square(5).realize())
    assert rep.graph_h.edge_set() == {(0, 1), (0, 2), (1, 2)}  # K3
    assert (rep.beta1, rep.beta2, rep.gamma) == (2, 2, 1)
    assert (rep.t_g, rep.t_g1, rep.t_g2) == (21, 20, 20)
    assert rep.winner == 1  # tie goes to the first re-homing
    assert rep.winner_count == 20 == count_book(5)


def test_improve_min_fan():
    rep = improve_min(fan(6).realize())
    assert rep.t_g == 55
    assert rep.winner_count < 55
    assert recognize(rep.winner_graph)


def test_improve_min_rejects_books():
    with pytest.raises(IsBookError):
        improve_min(book(6).realize())
    with pytest.raises(IsBookError):
        improve_min(k3())
    with pytest.raises(IsBookError):
        improve_min(book(4).realize())


def test_improve_min_split_identity():
    for seed in range(10):
        g = random_two_tree(8, seed).realize()
        if is_book(g):
            continue
        rep = improve_min(g)
        assert 2 * rep.t_g == rep.t_g1 + rep.t_g2 + 2 * rep.gamma
        assert rep.gamma >= 1
        assert min(rep.t_g1, rep.t_g2) < rep.t_g


def test_improve_min_iterates_to_book():
    g = path_square(7).realize()
    counts = [kirchhoff_count(g)]
    while not is_book(g):
        g = improve_min(g).winner_graph
        counts.append(kirchhoff_count(g))
    assert counts[-1] == count_book(7) == 112
    assert all(a > b for a, b in zip(counts, counts[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 40), seeds)
def test_surgery_counts_match_the_determinant(n, seed):
    g = random_two_tree(n, seed).realize()
    if not is_book(g):
        rep = improve_min(g)
        assert rep.t_g == kirchhoff_count(g)
        assert rep.t_g1 == kirchhoff_count(rep.graph_g1)
        assert rep.t_g2 == kirchhoff_count(rep.graph_g2)
    if sum(1 for v in range(g.n) if g.degree(v) == 2) > 2:
        rep = improve_max(g)
        assert (rep.t_g, rep.t_gprime) == (kirchhoff_count(g), kirchhoff_count(rep.g_prime))


def test_wrong_counts_raise_invariant_error(monkeypatch):
    real = extremal.count_via_construction
    monkeypatch.setattr(
        extremal, "count_via_construction", lambda c, required=(): real(c, required) + 1
    )
    with pytest.raises(InvariantError):
        improve_min(path_square(6).realize())
    monkeypatch.setattr(extremal, "count_via_construction", lambda c, required=(): 7)
    with pytest.raises(InvariantError):
        improve_max(book(6).realize())


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
            extremal.improve_min(path_square(6).realize())
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
    rep = improve_max(book(5).realize())
    assert rep.t_g == 20
    assert rep.t_gprime == 21  # the only larger count at n=5 is F(8)
    assert recognize(rep.g_prime)
    assert rep.g_prime.n == 5


def test_improve_max_rejects_two_simplicial():
    with pytest.raises(AlreadyTwoSimplicialError):
        improve_max(path_square(7).realize())
    with pytest.raises(AlreadyTwoSimplicialError):
        improve_max(book(4).realize())
    with pytest.raises(OutOfRangeError):
        improve_max(k3())


def test_improve_max_strict_on_corpus_subset(corpus):
    for g in corpus[6]:
        simplicial = sum(1 for v in range(g.n) if g.degree(v) == 2)
        if simplicial > 2:
            rep = improve_max(g)
            assert rep.t_gprime > rep.t_g
            assert rep.g_prime.n == g.n
            assert rep.subtree_j.n >= 3


def test_improve_max_iterates_to_two_simplicial():
    g = book(7).realize()
    count = kirchhoff_count(g)
    while True:
        simplicial = sum(1 for v in range(g.n) if g.degree(v) == 2)
        if simplicial == 2:
            break
        rep = improve_max(g)
        assert rep.t_gprime > count
        g, count = rep.g_prime, rep.t_gprime
    assert count == count_two_simplicial(7) == 144


def test_improve_max_multiple_hanging_pieces():
    # a path-square core with three extra leaves hung on interior edges
    base = path_square(5).realize()
    edges = base.edges() + [
        (1, 5), (2, 5),   # piece at (1, 2)
        (2, 6), (3, 6),   # piece at (2, 3)
        (1, 7), (3, 7),   # piece at (1, 3)
    ]
    from twotrees import SimpleGraph

    g = SimpleGraph.from_edges(8, edges)
    assert recognize(g)
    rep = improve_max(g)
    assert rep.t_gprime > rep.t_g
    assert rep.g_prime.n == 8
    # pure function: identical reports on identical input
    assert improve_max(g) == rep


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 13), seeds)
def test_improve_max_strict_beyond_corpus(n, seed):
    g = random_two_tree(n, seed).realize()
    if sum(1 for v in range(g.n) if g.degree(v) == 2) <= 2:
        return
    rep = improve_max(g)
    assert rep.t_gprime > rep.t_g
    assert recognize(rep.g_prime)


def test_surgeries_climb_and_descend_to_extremes():
    for seed in (3, 11):
        g = random_two_tree(10, seed * 37 + 10).realize()
        count = kirchhoff_count(g)
        while sum(1 for v in range(g.n) if g.degree(v) == 2) > 2:
            rep = improve_max(g)
            assert rep.t_gprime > count
            g, count = rep.g_prime, rep.t_gprime
        assert count == count_two_simplicial(10)

        g = random_two_tree(10, seed).realize()
        count = kirchhoff_count(g)
        while not is_book(g):
            rep = improve_min(g)
            assert rep.winner_count < count
            g, count = rep.winner_graph, rep.winner_count
        assert count == count_book(10) == 1280


def test_glue_shapes():
    glued, mapping = glue(k3(), k3(), (0, 1))
    assert glued.n == 4 and glued.m == 5  # the 4-vertex 2-tree
    assert mapping[2] == 3
    with pytest.raises(BadGlueError):
        glue(k3(), k3(), (0, 3))


def test_relabel_edge_to_base():
    g = path_square(5).realize()
    for e in g.edges():
        h = relabel_edge_to_base(g, e)
        assert h.has_edge(0, 1)
        assert sorted(d for d in map(h.degree, range(5))) == sorted(
            g.degree(v) for v in range(5)
        )


def test_glue_identity_check_triangles():
    assert glue_identity_check(k3(), k3(), (0, 1), [])


def test_glue_identity_check_mixed():
    h = book(4).realize()
    j = path_square(4).realize()
    # split vertex is 3, so the requirement must come from j minus vertex 3
    assert glue_identity_check(h, j, (0, 1), [(1, 2)])
    assert glue_identity_check(h, j, (0, 1), [(0, 2), (1, 2)])
    j5 = path_square(5).realize()
    assert glue_identity_check(h, j5, (0, 1), [(2, 3)])


def test_glue_identity_check_with_required_e():
    # force the column where the split vertex's opposite edge is required
    h = book(4).realize()
    j = path_square(5).realize()
    off = [w for w in range(j.n) if j.degree(w) == 2 and w not in (0, 1)]
    v = min(off)
    w, z = sorted(j.neighbors(v))
    assert glue_identity_check(h, j, (0, 1), [(w, z)])


def test_glue_identity_check_rejects_cycle():
    h = book(4).realize()
    j = path_square(6).realize()
    with pytest.raises(CyclicRequirementError):
        glue_identity_check(h, j, (0, 1), [(1, 2), (2, 3), (1, 3)])


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_glue_identity_check_randomized(seed):
    rng = random.Random(seed)
    h = random_two_tree(3 + rng.randrange(5), rng.randrange(2**30)).realize()
    j = random_two_tree(3 + rng.randrange(5), rng.randrange(2**30)).realize()
    h_edge = h.edges()[rng.randrange(h.m)]
    j_edge = j.edges()[rng.randrange(j.m)]
    h2, j2, shared = align_for_glue(h, h_edge, j, j_edge)
    off = [w for w in range(j2.n) if j2.degree(w) == 2 and w not in shared]
    v = min(off)
    pool = [e for e in j2.edges() if v not in e]
    rng.shuffle(pool)
    required = []
    for e in pool:
        if rng.random() < 0.5 and spanning_forest_components(
            j2.n, required + [e]
        ) is not None:
            required.append(e)
    assert glue_identity_check(h2, j2, shared, required)


def test_survey_small_values():
    s4 = survey_extremal(4)
    assert (s4.min_count, s4.max_count) == (8, 8)
    assert s4.min_attainers_all_books and s4.max_attainers_all_two_simplicial

    s5 = survey_extremal(5)
    assert (s5.min_count, s5.max_count) == (20, 21)
    assert s5.corpus_size == 15

    s7 = survey_extremal(7)
    assert (s7.min_count, s7.max_count) == (112, 144)


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
        for g in corpus[n]:
            t = kirchhoff_count(g)
            assert lo <= t <= hi
