"""Test-side oracles, kept independent of the package implementations.

Spanning trees are counted here by filtering edge subsets with a BFS
connectivity check (the package's own brute force lists rooted parent maps,
and the production path is the series-parallel engine);
a BFS component count is the reference for the package's union-find
(``graph._union_find``, its one forest test); determinants come from cofactor
expansion; Fibonacci numbers from the plain recurrence.  The package's two
former brute forces, a fresh union-find per (n-1)-subset and the
backtracking walk over edge subsets that followed it, are kept as references
for its parent-map count, and its former per-vertex
``random_chain`` loop as the reference for the chain that function now
grows with ``extend_with_chain``, whose former loop over attach-edge ends is
the reference for its steps by attach-edge id.  The
list-growing enumeration materialises every level of the build order, as a
reference for the package's depth-first walk and its choice order.  The
rescanning degree-2 eliminations are the package's former quadratic loops
(recognition, the path walk and the max surgery's core peel), kept as
references for its heap-driven peel.  The engine's former loop, which keyed
each edge's pair by its tuple in a dict, is the reference for the engine on
edge ids.  The max surgery's former positional rule, which ranks each
hanging edge by where along the core path it first appears, is the reference
for the crucial edge it now reads off the path peel; it runs on the package's
own peels, which the rescans above check.  The edge-list parser's former
list-based pass, which held every line, every edge and a set of the edges
seen, is the reference for its one pass into edge codes, and the
construction writer's former line list over ``attachments`` the reference
for its writer from the build order.  Only references
live here: nothing from the package is moved in to keep it alive.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from itertools import combinations

from twotrees.errors import FormatError
from twotrees.graph import TwoTreeConstruction, edge
from twotrees.recognition import _Live, _path_order, _peel, simplicial_vertices


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


def brute_force_by_backtracking(g) -> int:
    """Count acyclic (n-1)-edge subsets of ``g`` one by one (no edge cap; n >= 1).

    Backtracks over the sorted edges, skipping each one and then taking it if
    it joins two components, so no cyclic prefix is extended; without path
    compression a join undoes with one assignment.
    """
    n, m = g.n, g.m
    if n == 1:
        return 1
    if m < n - 1:
        return 0
    edges = g.edges()
    parent = list(range(n))

    def walk(i: int, need: int) -> int:
        # Subsets of edges[i:] with `need` edges that complete the forest;
        # callers keep m - i >= need, so edges[i] exists while need > 0.
        if need == 0:
            return 1
        total = walk(i + 1, need) if m - i > need else 0
        u, v = edges[i]
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            total += walk(i + 1, need - 1)
            parent[u] = u
        return total

    return walk(0, n - 1)


def count_by_edge_dict(c, required=()) -> int:
    """The package's former series-parallel engine: each edge's (a, b) pair in a
    dict keyed by the edge's tuple, peeled in reverse build order.  ``required``
    must be an acyclic set of edges of ``c``."""
    pair = {c.base: (1, 1)}
    for v, (x, y) in c.attachments:
        pair[edge(v, x)] = pair[edge(v, y)] = (1, 1)
    for e in required:
        assert edge(*e) in pair, f"required edge {e} not in the 2-tree"
        pair[edge(*e)] = (1, 0)
    for v, (x, y) in reversed(c.attachments):
        (a1, b1), (a2, b2), (a3, b3) = pair.pop(edge(v, x)), pair.pop(edge(v, y)), pair[(x, y)]
        a, b = a1 * a2, a1 * b2 + b1 * a2  # series: the two edges at v
        pair[(x, y)] = (a * b3 + b * a3, b * b3)  # parallel into the attach edge
    return pair[c.base][0]


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


def extend_with_chain_by_pairs(c, start_edge, steps: int, seed: int):
    """The package's former ``extend_with_chain`` loop, which names each
    chain step's attach edge by its ends: a coin per step picks the end of
    the previous attach edge that the next one shares with the previous vertex."""
    rng = random.Random(seed)
    records = []
    attach = edge(*start_edge)
    for i in range(steps):
        w = c.n + i
        records.append((w, attach))
        attach = edge(w, attach[rng.randrange(2)])
    return TwoTreeConstruction(c.n + steps, c.base, c.attachments + tuple(records))


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


def crucial_edge_by_positions(c):
    """``(crucial_edge, p)`` of ``improve_max`` on ``c``, by the former rule.

    Path vertex ``order[i]`` has position q - i, so v has the highest.  A
    hanging edge's index is the higher of its endpoints' positions and the
    position of the first path vertex it is the attach edge of; the piece
    on the highest-indexed one moves, and among ties an edge incident to the
    path vertex at that position wins over the rest, the smaller first.
    """
    v, v_prime = simplicial_vertices(c)[:2]
    g = _Live.of(c)
    deletions = [(u, g.ends(u)) for u in _peel(g, keep={v, v_prime})]
    order, peeled = _path_order(g, v_prime)
    path_deletions = [(u, g.ends(u)) for u in order[:peeled]]
    q = len(order)
    pos = {vertex: q - i for i, vertex in enumerate(order)}
    root = {}
    for u, (a, b) in reversed(deletions):
        root[u] = root.get(a) or root.get(b) or (a, b)
    hanging = set(root.values())
    attach_positions = {f: pos[u] for u, f in reversed(path_deletions)}

    def edge_index(f):
        return max(attach_positions.get(f, 0), pos[f[0]], pos[f[1]])

    j_star = max(map(edge_index, hanging))
    at_peak = [f for f in hanging if edge_index(f) == j_star]
    v_j = order[q - j_star]
    incident = [f for f in at_peak if v_j in f]
    return min(incident or at_peak), q - j_star + 1


def parse_edge_list_by_lines(text: str):
    """The package's former edge-list parser: ``(n, edges)`` in line order,
    from a list of every data line, an edge list and a set of the edges seen."""

    def integer(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"expected an integer, got {token!r}") from None

    rows = [row for row in map(str.strip, text.splitlines()) if row and not row.startswith("#")]
    if not rows:
        raise FormatError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"edge-list header must be 'n m', got {rows[0]!r}")
    n, m = integer(head[0]), integer(head[1])
    if len(rows) - 1 != m:
        raise FormatError(f"header promises {m} edges, found {len(rows) - 1}")
    edges, seen = [], set()
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {row!r}")
        u, v = integer(parts[0]), integer(parts[1])
        if not (0 <= u < v < n):
            raise FormatError(f"edge line {row!r} violates 0 <= u < v < n={n}")
        if (u, v) in seen:
            raise FormatError(f"duplicate edge {row!r}")
        seen.add((u, v))
        edges.append((u, v))
    return n, edges


def serialize_construction_by_pairs(c) -> str:
    """The package's former construction writer: one list of every line, each
    from a ``(v, (x, y))`` record of ``c.attachments``."""
    lines = [str(c.n)]
    lines.extend(f"{v} {x} {y}" for v, (x, y) in c.attachments)
    return "\n".join(lines) + "\n"
