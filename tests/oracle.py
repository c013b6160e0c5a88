"""Test-side oracles, kept independent of the package implementations.

Spanning trees are counted here by filtering edge subsets with a BFS
connectivity check (the package's own brute force backtracks with a
union-find, and the production path is the series-parallel engine);
a BFS component count is the reference for the package's union-find
(``spanning_forest_components``); determinants come from cofactor
expansion; Fibonacci numbers from the plain recurrence.  The package's
former brute force, a fresh union-find per (n-1)-subset, is kept as the
reference for its backtracking walk, and its former per-vertex
``random_chain`` loop as the reference for the chain that function now
grows with ``extend_with_chain``.  The
list-growing enumeration materialises every level of the build order, as a
reference for the package's depth-first walk and its choice order.  The
rescanning degree-2 eliminations are the package's former quadratic loops
(recognition, the path walk and the max surgery's core peel), kept as
references for its heap-driven peel.  Only references live here: nothing
from the package is moved in to keep it alive.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from itertools import combinations

from twotrees.graph import TwoTreeConstruction, edge


def is_tree_edge_set(n: int, edges) -> bool:
    edges = list(edges)
    if len(edges) != n - 1:
        return False
    # n-1 edges and connected means acyclic as well
    return is_connected(adjacency(n, edges))


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected(adj: list[set[int]]) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


def component_count(n: int, edges) -> int:
    """Connected components of the graph on n vertices with these edges."""
    adj = adjacency(n, edges)
    seen: set[int] = set()
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def tree_count_by_enumeration(n: int, edges) -> int:
    edges = sorted(set(edges))
    return sum(1 for sub in combinations(edges, n - 1) if is_tree_edge_set(n, sub))


def brute_force_by_subsets(g) -> int:
    """Count (n-1)-edge subsets of ``g`` that form spanning trees, each checked
    by a fresh union-find (no edge cap; n >= 1)."""
    edges = g.edges()
    n = g.n
    if n == 1:
        return 1
    if len(edges) < n - 1:
        return 0
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))
        ok = True
        for u, v in subset:
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if ok:
            count += 1
    return count


def spanning_trees_by_enumeration(n: int, edges) -> set[frozenset]:
    edges = sorted(set(edges))
    return {
        frozenset(sub) for sub in combinations(edges, n - 1) if is_tree_edge_set(n, sub)
    }


def det_by_cofactors(rows: list[list[int]]) -> int:
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_by_cofactors(minor)
    return total


def fib_by_recurrence(k: int) -> int:
    if k == -1:
        return 1
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def decimal_by_str(value: int) -> str:
    """``str(value)`` with Python's 4,300-digit conversion cap lifted."""
    cap = getattr(sys, "get_int_max_str_digits", None)
    if cap is None:  # Pythons before the cap
        return str(value)
    old = cap()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def spanning_trees_levelwise(c) -> list[frozenset]:
    """Every spanning tree of the 2-tree built by ``c``, one full list per level.

    Each parent tree contributes, in order: the new vertex as a leaf on the
    smaller attach endpoint, on the larger one, then (when the tree holds the
    attach edge) the swap of that edge for both new edges.
    """

    def canon(u, v):
        return (min(u, v), max(u, v))

    level = [frozenset({canon(*c.base)})]
    for v, (x, y) in c.attachments:
        evx, evy, exy = canon(v, x), canon(v, y), canon(x, y)
        nxt = []
        for tree in level:
            nxt.append(tree | {evx})
            nxt.append(tree | {evy})
            if exy in tree:
                nxt.append(tree - {exy} | {evx, evy})
        level = nxt
    return level


class NotTwoTree(Exception):
    """A rejection by :func:`recognize_by_rescan`; ``reason`` is the value of
    the package's ``NotTwoTreeReason`` for the check that failed."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def recognize_by_rescan(n: int, edges):
    """``(base, attachments)`` of the construction realizing the graph.

    Before each deletion every vertex is rescanned, and the smallest-index
    degree-2 vertex with adjacent neighbours goes: O(n^2) in all.
    """
    if len(edges) != 2 * n - 3:
        raise NotTwoTree(
            "WrongEdgeCount",
            f"a 2-tree on {n} vertices has {2 * n - 3} edges, this graph has {len(edges)}",
        )
    adj = adjacency(n, edges)
    if not is_connected(adj):
        raise NotTwoTree("Disconnected", "graph is disconnected")
    alive = [True] * n
    removed = []
    for _ in range(n - 2):
        deg2 = [v for v in range(n) if alive[v] and len(adj[v]) == 2]
        if not deg2:
            raise NotTwoTree("NoDegree2Simplicial", "no degree-2 vertex left to eliminate")
        for v in deg2:
            a, b = sorted(adj[v])
            if b in adj[a]:
                break
        else:
            raise NotTwoTree(
                "NonAdjacentNeighbors", "every degree-2 vertex has nonadjacent neighbours"
            )
        removed.append((v, edge(a, b)))
        adj[a].discard(v)
        adj[b].discard(v)
        adj[v].clear()
        alive[v] = False
    base = [v for v in range(n) if alive[v]]
    if not (len(base) == 2 and base[1] in adj[base[0]]):
        raise AssertionError(f"elimination left {base}, not a single edge")
    removed.reverse()
    return (base[0], base[1]), tuple(removed)


def random_chain_by_steps(n: int, seed: int):
    """The package's former ``random_chain`` loop: vertex k >= 3 glues onto
    k - 1 and a coin's pick of k - 1's attach endpoints."""
    rng = random.Random(seed)
    attachments = [(2, (0, 1))]
    prev_attach = (0, 1)
    for k in range(3, n):
        other = prev_attach[rng.randrange(2)]
        prev_attach = edge(k - 1, other)
        attachments.append((k, prev_attach))
    return TwoTreeConstruction(n, (0, 1), tuple(attachments))


def path_ordering_by_walk(n: int, edges):
    """The Hamiltonian-path elimination order of a 2-tree, or None.

    From the smaller of exactly two degree-2 vertices, repeatedly delete the
    current vertex and step to the smaller of its neighbours that became
    eligible (never the other degree-2 vertex).
    """
    if n == 2:
        return (0, 1)
    adj = adjacency(n, edges)
    simp = [v for v in range(n) if len(adj[v]) == 2]
    if len(simp) != 2:
        return None
    start, goal = simp
    alive = set(range(n))
    order = [start]
    prev = start
    while True:
        a, b = sorted(adj[prev])
        for w in adj[prev]:
            adj[w].discard(prev)
        adj[prev].clear()
        alive.discard(prev)
        if len(alive) == 2:
            break
        candidates = [
            v
            for v in (a, b)
            if v in alive and v != goal and len(adj[v]) == 2 and _clique_pair(adj, v)
        ]
        if not candidates:
            raise AssertionError("path peeling stalled; graph is not a 2-tree")
        prev = min(candidates)
        order.append(prev)
    order.extend(sorted(alive - {goal}))
    order.append(goal)
    return tuple(order)


def peel_to_core_by_rescan(n: int, edges, v: int, v_prime: int):
    """``(alive, deletions)`` after deleting every eligible vertex but v, v'."""
    adj = adjacency(n, edges)
    alive = set(range(n))
    deletions = []
    while True:
        ready = [
            u
            for u in sorted(alive - {v, v_prime})
            if len(adj[u]) == 2 and _clique_pair(adj, u)
        ]
        if not ready:
            break
        u = ready[0]
        a, b = sorted(adj[u])
        deletions.append((u, edge(a, b)))
        adj[a].discard(u)
        adj[b].discard(u)
        adj[u].clear()
        alive.discard(u)
    return alive, deletions


def _clique_pair(adj: list[set[int]], v: int) -> bool:
    a, b = adj[v]
    return b in adj[a]
