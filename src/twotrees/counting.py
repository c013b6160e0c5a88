"""Exact spanning-tree counts: closed forms, chain recurrences, and oracles.

Counts grow like 2.618^n, so all arithmetic is on exact integers.  A 2-tree
is counted in O(n) big-integer steps by series-parallel reduction on its build
order (Takamizawa, Nishizeki and Saito, JACM 1982; Wald and Colbourn, Networks
1983).  Edge {x, y} carries (a, b) for the piece hung on it: ``a`` spanning
trees, ``b`` 2-forests separating x from y; a plain edge starts at (1, 1), a
required one at (1, 0).  Peeling in reverse build order, vertex v on {x, y}
joins its two edges in series, (a1 a2, a1 b2 + b1 a2), then that pair in
parallel into {x, y}, (a b3 + b a3, b b3); the base edge's ``a`` is the count.
Kirchhoff (Bareiss) and the subset brute force stay as independent oracles.
They read only a graph's ``n``, ``m`` and ``edges()``, so they take a
construction or a ``SimpleGraph`` as is, and each checks its caps first.

Chain growth (each new vertex glued onto an edge incident to the previous
one) satisfies ``t_p = 2 t_{p-1} + s_{p-1}`` and ``s_p = t_{p-1} + s_{p-1}``
with ``t`` the total count and ``s`` the count through the newest tip edge,
which closes to Fibonacci combinations of the seed values:

    t_p = F(2p+1) * alpha + F(2p) * beta
    s_p = F(2p)   * alpha + F(2p-1) * beta

with the convention F(-1) = 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    CyclicRequirementError,
    ForeignEdgeError,
    OutOfRangeError,
    TooLargeError,
)
from .graph import (
    Edge,
    SimpleGraph,
    TwoTreeConstruction,
    _union_find,
    edge,
    spanning_forest_components,
)

BRUTE_FORCE_EDGE_LIMIT = 25
KIRCHHOFF_MAX_N = 400  # the cofactor matrix holds (n - 1)^2 ints; n = 300 takes seconds

Graph = SimpleGraph | TwoTreeConstruction  # the oracles read its n, m and edges()


def fibonacci(k: int) -> int:
    """F(k) with F(-1) = 1, F(0) = 0, F(1) = 1."""
    if k < -1:
        raise OutOfRangeError(f"fibonacci index must be >= -1, got {k}")
    prev, cur = 1, 0  # F(-1), F(0)
    for _ in range(k):
        prev, cur = cur, prev + cur
    return cur if k >= 0 else prev


def count_book(n: int) -> int:
    """n * 2^(n-3) spanning trees of the n-page book; 1 for n = 2."""
    if n < 2:
        raise OutOfRangeError(f"count_book needs n >= 2, got {n}")
    if n == 2:
        return 1
    return n * 2 ** (n - 3)


def count_two_simplicial(n: int) -> int:
    """F(2n-2): the count shared by every 2-tree with two degree-2 vertices."""
    if n < 2:
        raise OutOfRangeError(f"count_two_simplicial needs n >= 2, got {n}")
    return fibonacci(2 * n - 2)


def chain_edge_counts(alpha: int, beta: int, p: int) -> tuple[int, int, int]:
    """Closed-form edge-constrained counts after ``p`` chain extensions.

    Returns ``(through_start, through_first_side, through_tip)``:

    * trees through the original start edge:        F(2p+1) * beta
    * trees through the first vertex's unused side: F(2p-1) * alpha + F(2p) * beta
    * trees through the tip edge:                   F(2p)   * alpha + F(2p-1) * beta

    The tip count exceeds the start count whenever ``alpha > beta`` (true for
    any host with at least 3 vertices), and exceeds the side count whenever
    additionally ``p >= 2``; at ``p = 1`` the tip and the unused side are
    interchangeable, so those two counts coincide.
    """
    if p < 1:
        raise OutOfRangeError(f"chain_edge_counts needs p >= 1, got {p}")
    if not (0 <= beta <= alpha):
        raise OutOfRangeError(f"need 0 <= beta <= alpha, got ({alpha}, {beta})")
    through_start = fibonacci(2 * p + 1) * beta
    through_side = fibonacci(2 * p - 1) * alpha + fibonacci(2 * p) * beta
    through_tip = fibonacci(2 * p) * alpha + fibonacci(2 * p - 1) * beta
    return through_start, through_side, through_tip


def kirchhoff_count(g: Graph) -> int:
    """Spanning-tree count as a Laplacian cofactor, exactly; 0 if disconnected.
    TooLargeError past ``KIRCHHOFF_MAX_N`` vertices, unless too few edges make it 0."""
    if g.n < 1:
        raise OutOfRangeError("kirchhoff_count needs at least one vertex")
    if g.n == 1:
        return 1
    if g.m < g.n - 1:  # too few edges to connect; skip the (n-1)^2 matrix
        return 0
    if g.n > KIRCHHOFF_MAX_N:
        raise TooLargeError(f"kirchhoff capped at {KIRCHHOFF_MAX_N} vertices, graph has {g.n}")
    return _laplacian_cofactor(g.edges(), range(g.n), g.n)


def count_containing(g: Graph, required: Iterable[Edge]) -> int:
    """Number of spanning trees of ``g`` containing every edge of ``required``.

    Contracts the required edges (keeping parallel-edge multiplicities,
    dropping loops) and applies the cofactor count to the quotient.
    TooLargeError past ``KIRCHHOFF_MAX_N`` vertices, before anything is built.
    """
    if g.n > KIRCHHOFF_MAX_N:
        raise TooLargeError(
            f"count_containing capped at {KIRCHHOFF_MAX_N} vertices, graph has {g.n}"
        )
    req = [edge(*e) for e in required]
    edges = g.edges()
    present = set(edges)
    for e in req:
        if e not in present:
            raise ForeignEdgeError(f"required edge {e} not in graph")
    find = _union_find(g.n, set(req))
    if find is None:
        raise CyclicRequirementError("required edges contain a cycle")
    index: dict[int, int] = {}  # union-find root -> class, numbered as first seen
    cls = [index.setdefault(find(v), len(index)) for v in range(g.n)]
    return _laplacian_cofactor(edges, cls, len(index))


def brute_force_count(g: Graph) -> int:
    """Independent oracle: count acyclic (n-1)-edge subsets one by one.

    Backtracks over the sorted edges, skipping each one and then taking it if
    it joins two components, so no cyclic prefix is extended; without path
    compression a join undoes with one assignment.
    """
    n, m = g.n, g.m
    if n < 1:
        raise OutOfRangeError("brute_force_count needs at least one vertex")
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(
            f"brute force capped at {BRUTE_FORCE_EDGE_LIMIT} edges, graph has {m}"
        )
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


def count_via_construction(c: TwoTreeConstruction, required: Iterable[Edge] = ()) -> int:
    """Trees of the 2-tree ``c`` through every ``required`` edge, in O(n) steps."""
    pair = {c.base: (1, 1)}
    for v, (x, y) in c.attachments:
        pair[edge(v, x)] = pair[edge(v, y)] = (1, 1)
    req = {edge(*e) for e in required}
    if req.difference(pair):
        raise ForeignEdgeError(f"required edge {min(req.difference(pair))} not in graph")
    if spanning_forest_components(c.n, req) is None:
        raise CyclicRequirementError("required edges contain a cycle")
    pair.update(dict.fromkeys(req, (1, 0)))
    for v, (x, y) in reversed(c.attachments):
        (a1, b1), (a2, b2), (a3, b3) = pair.pop(edge(v, x)), pair.pop(edge(v, y)), pair[(x, y)]
        a, b = a1 * a2, a1 * b2 + b1 * a2  # series: the two edges at v
        pair[(x, y)] = (a * b3 + b * a3, b * b3)  # parallel into the attach edge
    return pair[c.base][0]


def verify_bounds(c: TwoTreeConstruction) -> tuple[bool, bool]:
    """Check 2^(n-2) <= T <= 3^(n-2) for the 2-tree ``c``, counted by the linear engine."""
    t = count_via_construction(c)
    return (2 ** (c.n - 2) <= t, t <= 3 ** (c.n - 2))


def _laplacian_cofactor(edges: Iterable[Edge], cls: Sequence[int], k: int) -> int:
    """Cofactor of the Laplacian of the graph on ``edges`` with vertex v merged
    into class ``cls[v]`` of ``k``: edges inside a class drop, parallel ones add up."""
    if k <= 1:
        return 1
    lap = [[0] * (k - 1) for _ in range(k - 1)]
    for u, w in edges:
        cu, cw = cls[u] - 1, cls[w] - 1  # class 0's row and column are struck out
        if cu == cw:
            continue
        if cu >= 0:
            lap[cu][cu] += 1
        if cw >= 0:
            lap[cw][cw] += 1
            if cu >= 0:
                lap[cu][cw] -= 1
                lap[cw][cu] -= 1
    return _det_bareiss(lap)


def _det_bareiss(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination with row pivoting."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]
