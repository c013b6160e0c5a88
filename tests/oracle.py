"""Test-side oracles, kept independent of the package implementations.

Spanning trees are counted here by filtering edge subsets with a BFS
connectivity check (the package's own brute force uses union-find, and the
production path is a determinant); determinants come from cofactor
expansion; Fibonacci numbers from the plain recurrence.  The list-growing
enumeration materialises every level of the build order, as a reference for
the package's depth-first walk.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def is_tree_edge_set(n: int, edges) -> bool:
    edges = list(edges)
    if len(edges) != n - 1:
        return False
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    # n-1 edges and connected means acyclic as well
    return len(seen) == n


def tree_count_by_enumeration(n: int, edges) -> int:
    edges = sorted(set(edges))
    return sum(1 for sub in combinations(edges, n - 1) if is_tree_edge_set(n, sub))


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
