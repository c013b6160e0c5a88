"""Exact spanning-tree counts: closed forms, chain recurrences, and oracles.

Counts grow like 2.618^n, so all arithmetic is on exact integers.  A 2-tree
is counted in O(n) big-integer steps by series-parallel reduction on its build
order (Takamizawa, Nishizeki and Saito, JACM 1982; Wald and Colbourn, Networks
1983).  Edge {x, y} carries (a, b) for the piece hung on it: ``a`` spanning
trees, ``b`` 2-forests separating x from y; a plain edge starts at (1, 1), a
required one at (1, 0).  Peeling in reverse build order, vertex v on {x, y}
joins its two edges in series, (a1 a2, a1 b2 + b1 a2), then that pair in
parallel into {x, y}, (a b3 + b a3, b b3); the base edge's ``a`` is the count.
Kirchhoff (Bareiss) and a brute force that lists each tree as a rooted parent
map stay as independent oracles.  They read only a graph's ``n``, ``m`` and
``edges()``, so they take a construction or a ``SimpleGraph`` as is, and each
checks its caps first.

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

from .errors import CyclicRequirementError, ForeignEdgeError, OutOfRangeError, TooLargeError
from .graph import Edge, SimpleGraph, TwoTreeConstruction, _union_find, edge

BRUTE_FORCE_EDGE_LIMIT = 25
KIRCHHOFF_MAX_N = 400  # the cofactor matrix holds (n - 1)^2 ints; n = 300 takes seconds

Graph = SimpleGraph | TwoTreeConstruction  # the oracles read its n, m and edges()


def fibonacci(k: int) -> int:
    """F(k) with F(-1) = 1, F(0) = 0, F(1) = 1, by fast doubling: O(log k) products."""
    if type(k) is not int or k < -1:
        raise OutOfRangeError(f"fibonacci index must be >= -1, got {k!r}")
    a, b = 0, 1  # F(j), F(j + 1) for j the leading bits of k read so far
    for bit in bin(max(k, 0))[2:]:
        a, b = a * (2 * b - a), a * a + b * b  # F(2j), F(2j + 1)
        if bit == "1":
            a, b = b, a + b
    return a if k >= 0 else 1


def count_book(n: int) -> int:
    """n * 2^(n-3) spanning trees of the n-page book; 1 for n = 2."""
    if type(n) is not int or n < 2:
        raise OutOfRangeError(f"count_book needs n >= 2, got {n!r}")
    if n == 2:
        return 1
    return n * 2 ** (n - 3)


def count_two_simplicial(n: int) -> int:
    """F(2n-2): the count shared by every 2-tree with two degree-2 vertices."""
    if type(n) is not int or n < 2:
        raise OutOfRangeError(f"count_two_simplicial needs n >= 2, got {n!r}")
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
    if type(p) is not int or p < 1:
        raise OutOfRangeError(f"chain_edge_counts needs p >= 1, got {p!r}")
    if type(alpha) is not int or type(beta) is not int or not 0 <= beta <= alpha:
        raise OutOfRangeError(f"need 0 <= beta <= alpha, got ({alpha!r}, {beta!r})")
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
    req = _required_edges(required)
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
    """Independent oracle: count spanning trees one by one, as rooted parent maps.

    The root is a vertex of largest degree, the smallest index on a tie.  The
    others, farthest first in breadth-first order, each take as parent a
    neighbour whose chain of parents does not lead back to them, which would
    close a cycle; each spanning tree is one such map.  A vertex's own
    breadth-first parent has no parent yet when it chooses, so no choice is a
    dead end: every branch of the search ends in at least one tree.
    """
    n, m = g.n, g.m
    if n < 1:
        raise OutOfRangeError("brute_force_count needs at least one vertex")
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(f"brute force capped at {BRUTE_FORCE_EDGE_LIMIT} edges, graph has {m}")
    if n == 1:
        return 1
    if m < n - 1:
        return 0
    adj: list[list[int]] = [[] for _ in range(n)]  # n <= m + 1 <= 26 from here
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    order = [max(range(n), key=lambda v: len(adj[v]))]
    for u in order:  # breadth-first: the list grows as it is read
        order += [w for w in adj[u] if w not in order]
    if len(order) < n:
        return 0
    up = [-1] * n  # a vertex's parent, or -1 before it has one; the root never does
    *inner, last = order[:0:-1]  # last is a neighbour of the root

    def grow(i: int) -> int:  # trees that keep the parents given to inner[:i]
        if i == len(inner):
            total = 0
            for u in adj[last]:
                while (q := up[u]) >= 0:
                    u = q
                total += u != last
            return total
        v, total = inner[i], 0
        for p in adj[v]:
            u = p
            while (q := up[u]) >= 0:
                u = q
            if u != v:
                up[v] = p
                total += grow(i + 1)
                up[v] = -1
        return total

    return grow(0)


def count_via_construction(c: TwoTreeConstruction, required: Iterable[Edge] = ()) -> int:
    """Trees of the 2-tree ``c`` through every ``required`` edge, in O(n) steps."""
    req = set(_required_edges(required))
    ids = c._ids(req) if req else []
    foreign = [e for e, i in zip(req, ids) if i < 0]
    if foreign:
        raise ForeignEdgeError(f"required edge {min(foreign)} not in graph")
    if t := _count(c.parent, ids):  # 0 only through a cycle, as a 2-tree is connected
        return t
    raise CyclicRequirementError("required edges contain a cycle")


def _required_edges(required: Iterable[Edge], graph: str = "graph") -> list[Edge]:
    """Each required-edge record, canonical, in input order.  A record that is
    not a pair of int ends (a bool is not an int) names no edge of the graph."""
    req = []
    for e in required:
        try:
            u, v = e
        except (TypeError, ValueError):
            u = v = None
        if type(u) is not int or type(v) is not int:
            raise ForeignEdgeError(f"required edge {e!r} not in {graph}")
        req.append(edge(u, v))
    return req


def _count(parent: Sequence[int], required_ids: Iterable[int] = ()) -> int:
    """Trees of the 2-tree whose step i attaches onto edge id ``parent[i]``,
    through every id in ``required_ids``, exact for any ids: 0 through a cycle.

    A prefix ``parent[:k]`` is the 2-tree its first k steps build, with the
    same edge ids, so a 2-tree less its last vertices counts with no copy.
    """
    a, b = [1] * (2 * len(parent) + 1), [1] * (2 * len(parent) + 1)
    for i in required_ids:
        b[i] = 0
    for p in reversed(parent):  # step i's edges at v, ids 2i + 1 and 2i + 2, are the last
        a2, a1, b2, b1 = a.pop(), a.pop(), b.pop(), b.pop()
        sa, sb = a1 * a2, a1 * b2 + b1 * a2  # series: the two edges at v
        a[p], b[p] = sa * b[p] + sb * a[p], sb * b[p]  # parallel into the attach edge
    return a[0]


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
    """Integer determinant of a nonempty matrix by fraction-free elimination with row pivoting."""
    n = len(m)
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
