"""Decide 2-tree-ness and read off structural classifications.

A graph is a 2-tree iff repeatedly deleting a degree-2 vertex whose two
neighbours are adjacent reduces it to a single edge.  :func:`recognize` reads
an edge list as parsed, ``(n, edges)``, and returns the deletion order,
reversed, as a construction; a list too short for 2n-3 edges is rejected
before anything sized by n is built.  :func:`_peel` runs on the edges as
codes and three numbers per vertex (:class:`_Live`), ties to the smallest
eligible index, kept in a heap: O(n log n); :meth:`_Live.ids` reads the steps
of any peel as attach-edge ids.  The structural queries take a construction,
so :func:`recognize` is the one place a graph becomes a 2-tree.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import isqrt
from typing import Collection

from .errors import InvariantError, NotTwoTreeError, NotTwoTreeReason, OutOfRangeError
from .graph import Edge, TwoTreeConstruction, _checked_edges, _EdgeCodes, _union_find


def recognize(n: int, edges: Collection[Edge]) -> TwoTreeConstruction:
    """A construction of the graph on n vertices with these edges, or NotTwoTreeError.

    Edges are checked, and a repeated one counts once, as in ``SimpleGraph.from_edges``,
    unless they are an edge list's codes as parsed.  The attachments are the
    deletion order reversed, and ``.edges()`` is the graph's.
    """
    if type(n) is not int or n < 2:
        raise OutOfRangeError(f"recognition needs n >= 2, got {n!r}")
    if len(edges) < 2 * n - 3:  # before a header's n sizes anything
        raise NotTwoTreeError.wrong_edge_count(n, len(edges))
    codes = edges if type(edges) is _EdgeCodes else _EdgeCodes(u * n + v for u, v in _checked_edges(n, edges))
    if len(codes) != 2 * n - 3:
        raise NotTwoTreeError.wrong_edge_count(n, len(codes))

    g = _Live(n, codes)
    removed = _peel(g)
    if len(removed) < n - 2:
        # Deleting a simplicial vertex keeps the rest as connected, so only a failed peel can
        find = _union_find(n, codes.edges(n), cycles=True)
        if any(find(v) != find(0) for v in range(n)):
            raise NotTwoTreeError(NotTwoTreeReason.DISCONNECTED, "graph is disconnected")
        if 2 in g.deg:
            raise NotTwoTreeError(
                NotTwoTreeReason.NONADJACENT_NEIGHBORS,
                "every degree-2 vertex has nonadjacent neighbours",
            )
        raise NotTwoTreeError(
            NotTwoTreeReason.NO_DEGREE2_SIMPLICIAL,
            "no degree-2 vertex left to eliminate",
        )

    # 2(n-2) edges were removed from 2n-3, so exactly the base edge remains,
    # and only its two ends still have neighbours.
    base = [v for v, d in enumerate(g.deg) if d]
    if not (len(base) == 2 and g.adjacent(*base)):
        raise InvariantError(f"elimination left {base}, not a single edge")
    removed.reverse()
    parent = g.ids(removed)
    del g  # the peel state goes before the construction is built
    return TwoTreeConstruction(n, (base[0], base[1]), zip(removed, parent))


def simplicial_vertices(c: TwoTreeConstruction) -> list[int]:
    """Sorted degree-2 vertices of a 2-tree with n >= 3 (all are simplicial)."""
    if c.n < 3:
        raise OutOfRangeError(f"simplicial_vertices needs n >= 3, got {c.n}")
    # Step i's vertex has degree 2 iff no step goes on its edges 2i + 1, 2i + 2; a
    # base end iff step 0's vertex alone joins it: no other step on id 0, none on its id 1 or 2.
    hit = set(c.parent)
    simp = [v for i, v in enumerate(c.order) if 2 * i + 1 not in hit and 2 * i + 2 not in hit]
    if c.parent.count(0) == 1:
        simp += [end for end, i in zip(c.base, (1, 2)) if i not in hit]
    return sorted(simp)


def is_book(c: TwoTreeConstruction) -> bool:
    """True iff every vertex outside one shared edge is simplicial.

    For 2-trees this is a pure degree condition: the degree sum forces the
    two non-simplicial vertices to be adjacent to everything, so a 2-tree is
    a book iff it has n - 2 vertices of degree 2 (any 3-vertex 2-tree is one).
    """
    if c.n < 3:
        raise OutOfRangeError(f"is_book needs n >= 3, got {c.n}")
    return _is_book_shape(c.n, simplicial_vertices(c))


def path_ordering_if_two_simplicial(c: TwoTreeConstruction) -> tuple[int, ...] | None:
    """An elimination ordering forming a Hamiltonian path, when one exists.

    Present exactly when the 2-tree has two simplicial vertices.  Each entry but
    the last two is deleted at degree 2 with adjacent neighbours, consecutive
    entries are adjacent in the 2-tree, and of the two valid orientations the
    one starting at the smaller-index simplicial vertex is returned.
    """
    if c.n == 2:
        return (0, 1)
    simp = simplicial_vertices(c)
    if len(simp) != 2:
        return None
    order, _ = _path_order(_Live.of(c), simp[1])
    return tuple(order)


def _is_book_shape(n: int, degree_two: list[int]) -> bool:
    """The degree rule of :func:`is_book` for a 2-tree with n >= 3 vertices."""
    return n == 3 or len(degree_two) == n - 2


def _path_order(g: _Live, goal: int) -> tuple[list[int], int]:
    """The Hamiltonian path of the 2-tree left in ``g``, which is peeled in
    place, from its degree-2 vertex other than ``goal`` to ``goal``, and how
    many of its first vertices the peel deleted.

    Only one vertex besides goal is ever eligible until the closing triangle,
    so the smallest-first peel walks the path; the one vertex it leaves
    beside goal comes second to last.  Each step must be an edge.  A step
    from a peeled vertex is checked against its attach edge, which holds
    exactly its neighbours when it is deleted: the next vertex is still
    there, and an edge leaves the live graph only with an endpoint.  The
    steps from the vertices the peel leaves are checked against the live graph.
    """
    order = _peel(g, keep={goal})
    peeled = len(order)
    order.extend(v for v, d in enumerate(g.deg) if d and v != goal)
    order.append(goal)
    for i, (earlier, later) in enumerate(zip(order, order[1:])):
        if not (later in g.ends(earlier) if i < peeled else g.adjacent(earlier, later)):
            raise InvariantError(f"path ordering steps across non-edge ({earlier}, {later})")
    return order, peeled


class _Live:
    """A graph being peeled: its edge codes ``u * n + v`` (u < v), never edited,
    and per vertex the live degree (0 once deleted) and the sum ``s`` and the
    sum of squares ``q`` of the live neighbours.  Neighbours a < b give
    b - a = isqrt(2q - s^2); a deleted vertex's sums name its attach edge."""

    __slots__ = ("n", "codes", "deg", "s", "q")

    def __init__(self, n: int, codes: Collection[int]):
        deg, s, q = [0] * n, [0] * n, [0] * n
        for code in codes:
            u, v = divmod(code, n)
            deg[u] += 1
            deg[v] += 1
            s[u] += v
            s[v] += u
            q[u] += v * v
            q[v] += u * u
        self.n, self.codes, self.deg, self.s, self.q = n, codes, deg, s, q

    @classmethod
    def of(cls, c: TwoTreeConstruction) -> _Live:
        """The 2-tree of ``c``, not yet peeled."""
        n = c.n
        return cls(n, {u * n + v for u, v in c.edges_by_id()})

    def ends(self, v: int) -> Edge:
        """The neighbours of ``v`` at live degree 2, or when it was deleted."""
        s = self.s[v]
        d = isqrt(2 * self.q[v] - s * s)
        return (s - d) >> 1, (s + d) >> 1

    def adjacent(self, a: int, b: int) -> bool:
        return (a * self.n + b if a < b else b * self.n + a) in self.codes

    def ids(self, order: list[int]) -> list[int]:
        """The attach-edge id of each step of ``order``, deleted vertices in reverse deletion
        order: step k's attach edge xy, x the later to arrive, is the base edge (id 0) or x's
        edge to y, id 2 step[x] + 1 if y is the smaller of x's ends, which sum to s[x], else + 2."""
        step = [-1] * self.n
        for k, v in enumerate(order):
            step[v] = k
        parent = []
        for v in order:
            x, y = self.ends(v)
            if step[x] < step[y]:
                x, y = y, x
            parent.append(2 * step[x] + 1 + (2 * y > self.s[x]) if step[x] >= 0 else 0)
        return parent


def _peel(g: _Live, keep: Collection[int] = ()) -> list[int]:
    """Delete degree-2 vertices with adjacent neighbours, smallest index first.

    ``g`` is updated in place; vertices in ``keep`` are never deleted.
    Returns the deleted vertices in order; ``g.ends(v)`` is the attach edge
    of each.  Deletions only remove edges, so a degree-2 vertex with
    nonadjacent neighbours never becomes eligible again, and every vertex
    reaches degree 2 at most once.
    """
    n, codes, deg, s, q = g.n, g.codes, g.deg, g.s, g.q
    heap = [v for v, d in enumerate(deg) if d == 2 and v not in keep]
    deleted: list[int] = []
    while heap:
        v = heappop(heap)
        if deg[v] != 2:
            continue  # deleted, or a deletion took it below degree 2
        sv = s[v]  # g.ends(v), inline in this loop
        d = isqrt(2 * q[v] - sv * sv)
        a, b = (sv - d) >> 1, (sv + d) >> 1
        if a * n + b not in codes:
            continue
        deg[v] = 0
        deleted.append(v)
        vv = v * v
        for w in (a, b):
            deg[w] -= 1
            s[w] -= v
            q[w] -= vv
            if deg[w] == 2 and w not in keep:
                heappush(heap, w)
    return deleted
