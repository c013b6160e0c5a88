"""End-to-end acceptance checks for the package's headline guarantees.

Every check is exact (integer equality) except the throughput ratio, which
carries the stated 3x allowance.  Each test prints one [PASS]/[FAIL] line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.

One boundary is asserted as equality rather than strict inequality: after a
single chain extension (p = 1) the two edges at the new vertex are
interchangeable, so the tip-edge count equals the unused-side count by
symmetry (F(0) scales their difference).  Strictness over the side edge is
therefore checked for p >= 2, strictness over the start edge for all p >= 1,
and the p = 1 equality is pinned explicitly.
"""

from __future__ import annotations

import random
import time

from twotrees import (
    book,
    brute_force_count,
    chain_edge_counts,
    count_book,
    count_containing,
    count_stream,
    count_two_simplicial,
    count_via_construction,
    enumerate_spanning_trees,
    extend_with_chain,
    fan,
    fibonacci,
    improve_max,
    improve_min,
    is_book,
    kirchhoff_count,
    path_square,
    random_chain,
    random_two_tree,
    recognize,
    simplicial_vertices,
    survey_extremal,
    verify_bounds,
)
from twotrees.extremal import glue_identity_check
from twotrees.graph import _union_find, edge


def report(tag: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {tag}{suffix}")
    return ok


def test_criterion_1_enumeration_completeness(corpus):
    checked = 0
    ok = True
    for n in range(3, 9):
        spanning: set[frozenset] = set()  # trees on n vertices found spanning so far
        for c in corpus[n]:
            edges = set(c.edges())
            emitted = list(enumerate_spanning_trees(c))
            trees = set(emitted)
            distinct = len(trees) == len(emitted)
            new = trees - spanning  # the forest check runs once per distinct tree
            valid = all(map(edges.issuperset, emitted)) and all(
                len(t) == n - 1 and _union_find(n, t) is not None for t in new
            )
            spanning |= new
            k = kirchhoff_count(c)
            b = brute_force_count(c)
            e = count_via_construction(c)
            ok = ok and distinct and valid and len(emitted) == k == b == e
            checked += 1
            if not ok:
                break
        if not ok:
            break
    assert report(
        "criterion 1: enumeration complete, duplicate-free, equal to both "
        "counting oracles and the linear engine over every labeled 2-tree "
        "with n=3..8",
        ok,
        f"{checked} graphs",
    )


def test_criterion_2_book_counts():
    ok = True
    for n in range(3, 21):
        closed = count_book(n)
        c = book(n)
        ok = ok and closed == kirchhoff_count(c) == count_via_construction(c)
    ok = ok and count_book(20) == 2_621_440
    assert report(
        "criterion 2: book closed form n*2^(n-3) matches determinant and "
        "build recurrence for n=3..20",
        ok,
    )


def test_criterion_3_two_simplicial_counts():
    ok = True
    for n in range(4, 17):
        want = count_two_simplicial(n)
        ok = ok and kirchhoff_count(path_square(n)) == want
        ok = ok and kirchhoff_count(fan(n)) == want
    for seed in range(100):
        n = 4 + seed % 13
        got = kirchhoff_count(random_chain(n, seed))
        ok = ok and got == count_two_simplicial(n)
    ok = ok and count_two_simplicial(16) == 832_040 == fibonacci(30)
    assert report(
        "criterion 3: every two-simplicial family instance counts F(2n-2), "
        "n=4..16, incl. 100 random chains",
        ok,
    )


def test_criterion_4_bounds():
    ok = True
    for seed in range(1000):
        n = 3 + seed % 14  # n = 3..16
        c = random_two_tree(n, seed)
        lower_ok, upper_ok = verify_bounds(c)
        ok = ok and lower_ok and upper_ok
        ok = ok and count_via_construction(recognize(n, c.edges())) == kirchhoff_count(c)
    assert report(
        "criterion 4: 2^(n-2) <= T <= 3^(n-2) over 1000 seeded random "
        "2-trees with n <= 16, the engine's count equal to the determinant",
        ok,
    )


def test_criterion_5_extremal_survey():
    ok = True
    for n in range(4, 9):
        summary = survey_extremal(n)
        ok = ok and summary.min_count == count_book(n)
        ok = ok and summary.max_count == count_two_simplicial(n)
        ok = ok and summary.min_attainers_all_books
        ok = ok and summary.max_attainers_all_two_simplicial
    assert report(
        "criterion 5: corpus minimum n*2^(n-3) attained only by books and "
        "maximum F(2n-2) only by two-simplicial graphs, n=4..8",
        ok,
    )


def test_criterion_6_chain_formulas():
    ok = True
    boundary_equalities = 0
    for seed in range(50):
        rng = random.Random(seed)
        host_n = 3 + seed % 5
        host = random_two_tree(host_n, seed)
        start = host.edges()[rng.randrange(host.m)]
        alpha = kirchhoff_count(host)
        beta = count_containing(host, [start])
        ok = ok and beta < alpha  # any host with >= 3 vertices
        for p in range(1, 6):
            grown = extend_with_chain(host, start, p, seed=seed * 100 + p)
            records = grown.attachments[host_n - 2 :]
            through_start, through_side, through_tip = chain_edge_counts(alpha, beta, p)
            total = fibonacci(2 * p + 1) * alpha + fibonacci(2 * p) * beta
            ok = ok and kirchhoff_count(grown) == total
            tip_vertex, tip_attach = records[-1]
            tip_edge = edge(tip_vertex, tip_attach[0])
            ok = ok and count_containing(grown, [tip_edge]) == through_tip
            ok = ok and count_containing(grown, [start]) == through_start
            side_edge = _unused_side_edge(records, start)
            ok = ok and count_containing(grown, [side_edge]) == through_side
            ok = ok and through_tip > through_start
            if p >= 2:
                ok = ok and through_tip > through_side
            else:
                # symmetric edges at the first added vertex: equality is forced
                ok = ok and through_tip == through_side
                boundary_equalities += 1
    assert report(
        "criterion 6: chain counts match Fibonacci closed forms for 50 hosts "
        "and p=1..5; tip strictly beats start edge everywhere and side edge "
        "for p>=2 (p=1 equality pinned)",
        ok,
        f"{boundary_equalities} pinned p=1 equalities",
    )


def _unused_side_edge(records, start):
    w1 = records[0][0]
    if len(records) >= 2:
        e1 = records[1][1]
        continued = e1[0] if e1[1] == w1 else e1[1]
        other = start[0] if start[1] == continued else start[1]
        return edge(w1, other)
    return edge(w1, start[0])


def test_criterion_7_surgery_directions(corpus):
    ok = True
    splits = surgeries = 0
    for n in range(5, 9):
        for c in corpus[n]:
            if not is_book(c):
                rep = improve_min(c)
                ok = ok and rep.winner_count < rep.t_g
                ok = ok and 2 * rep.t_g == rep.t_g1 + rep.t_g2 + 2 * rep.gamma
                ok = ok and rep.gamma >= 1
                splits += 1
            if len(simplicial_vertices(c)) > 2:
                rep = improve_max(c)
                ok = ok and rep.t_gprime > rep.t_g
                surgeries += 1
            if not ok:
                break
        if not ok:
            break
    assert report(
        "criterion 7: split strictly decreases and reattachment strictly "
        "increases the count on every applicable corpus graph, with the "
        "split identity 2T(G) = T(G1)+T(G2)+2*gamma exact",
        ok,
        f"{splits} splits, {surgeries} reattachments",
    )


def test_criterion_8_glue_identities():
    # G is G - v glued to the triangle on its last vertex v; S is drawn from
    # all of E(G - v)
    ok = True
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        c = random_two_tree(4 + rng.randrange(5) + rng.randrange(5), rng.randrange(2**30))
        v = c.attachments[-1][0]
        pool = [e for e in c.edges() if v not in e]
        rng.shuffle(pool)
        required: list = []
        for e in pool:
            if rng.random() < 0.45 and _union_find(c.n, required + [e]) is not None:
                required.append(e)
        ok = ok and glue_identity_check(c, required)
    assert report(
        "criterion 8: glued-pair count identities hold on 200 randomized "
        "instances",
        ok,
    )


def test_criterion_9_output_sensitive_throughput():
    def run(n: int) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            total = count_stream(enumerate_spanning_trees(book(n)))
            best = min(best, time.perf_counter() - t0)
            assert total == count_book(n)
        return best

    t17 = run(17)
    t18 = run(18)
    expected_ratio = (18 * count_book(18)) / (17 * count_book(17))  # ~2.12
    ratio = t18 / t17
    within = expected_ratio / 3 <= ratio <= expected_ratio * 3
    ok = t18 <= 30.0 and within
    assert report(
        "criterion 9: book(18) streams 589824 trees within 30s and the "
        "18/17 time ratio tracks n*T(B_n) within 3x",
        ok,
        f"t18={t18:.2f}s, ratio={ratio:.2f}, expected~{expected_ratio:.2f}",
    )
