"""Decide 2-tree-ness and read off structural classifications.

A graph is a 2-tree iff repeatedly deleting a degree-2 vertex whose two
neighbours are adjacent reduces it to a single edge.  The deletion order,
reversed, is the construction order returned by :func:`recognize`.  Cheap
necessary conditions (edge count 2n-3, connectivity) are checked before the
elimination.  Ties always go to the smallest-index eligible vertex so
results are reproducible; :func:`_peel` keeps the candidates in a heap, so
the whole elimination is O(n log n).  The structural queries take a
construction, so :func:`recognize` is the one place a graph becomes a 2-tree.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Collection

from .errors import InvariantError, NotTwoTreeError, NotTwoTreeReason, OutOfRangeError
from .graph import Edge, SimpleGraph, TwoTreeConstruction, edge


def recognize(g: SimpleGraph) -> TwoTreeConstruction:
    """Return a construction realizing ``g`` exactly, or raise NotTwoTreeError.

    The attachment sequence is the reverse of the deletion order, so
    ``recognize(g).realize()`` has the same edge set as ``g``.
    """
    n = g.n
    if n < 2:
        raise OutOfRangeError(f"recognition needs n >= 2, got {n}")
    if g.m != 2 * n - 3:
        raise NotTwoTreeError.wrong_edge_count(n, g.m)
    if not g.is_connected():
        raise NotTwoTreeError(NotTwoTreeReason.DISCONNECTED, "graph is disconnected")

    adj = [set(s) for s in g.adj]
    removed = _peel(adj)
    if len(removed) < n - 2:
        if any(len(s) == 2 for s in adj):
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
    base = [v for v in range(n) if adj[v]]
    if not (len(base) == 2 and base[1] in adj[base[0]]):
        raise InvariantError(f"elimination left {base}, not a single edge")
    removed.reverse()
    return TwoTreeConstruction(n, (base[0], base[1]), tuple(removed))


def simplicial_vertices(c: TwoTreeConstruction) -> list[int]:
    """Sorted degree-2 vertices of a 2-tree with n >= 3 (all are simplicial)."""
    if c.n < 3:
        raise OutOfRangeError(f"simplicial_vertices needs n >= 3, got {c.n}")
    degree = [2] * c.n  # counted off the build order, with no graph realized
    degree[c.base[0]] = degree[c.base[1]] = 1
    for _, (x, y) in c.attachments:
        degree[x] += 1
        degree[y] += 1
    return [v for v, d in enumerate(degree) if d == 2]


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
    g = c.realize()  # only for the path peel
    order, _ = _path_order(g, [set(s) for s in g.adj], simp[1])
    return tuple(order)


def _is_book_shape(n: int, degree_two: list[int]) -> bool:
    """The degree rule of :func:`is_book` for a 2-tree with n >= 3 vertices."""
    return n == 3 or len(degree_two) == n - 2


def _path_order(
    g: SimpleGraph, adj: list[set[int]], goal: int
) -> tuple[list[int], list[tuple[int, Edge]]]:
    """The Hamiltonian path of the 2-tree left in ``adj``, which is peeled in
    place, from its degree-2 vertex other than ``goal`` to ``goal``, and the
    peel's deletions.

    Only one vertex besides goal is ever eligible until the closing triangle,
    so the smallest-first peel walks the path; the one vertex it leaves
    beside goal comes second to last.  ``g`` holds every edge of ``adj``.
    """
    deletions = _peel(adj, keep={goal})
    order = [v for v, _ in deletions]
    order.extend(v for v in range(len(adj)) if adj[v] and v != goal)
    order.append(goal)
    for earlier, later in zip(order, order[1:]):
        if not g.has_edge(earlier, later):
            raise InvariantError(f"path ordering steps across non-edge ({earlier}, {later})")
    return order, deletions


def _peel(adj: list[set[int]], keep: Collection[int] = ()) -> list[tuple[int, Edge]]:
    """Delete degree-2 vertices with adjacent neighbours, smallest index first.

    ``adj`` is updated in place; vertices in ``keep`` are never deleted.
    Returns the deletions in order as ``(v, attach_edge)``.  Deletions only
    remove edges, so a degree-2 vertex with nonadjacent neighbours never
    becomes eligible again, and every vertex reaches degree 2 at most once.
    """
    heap = [v for v in range(len(adj)) if len(adj[v]) == 2 and v not in keep]
    deletions: list[tuple[int, Edge]] = []
    while heap:
        v = heappop(heap)
        if len(adj[v]) != 2:
            continue  # deleted, or a deletion took it below degree 2
        a, b = adj[v]
        if b not in adj[a]:
            continue
        adj[a].discard(v)
        adj[b].discard(v)
        adj[v].clear()
        deletions.append((v, edge(a, b)))
        for w in (a, b):
            if len(adj[w]) == 2 and w not in keep:
                heappush(heap, w)
    return deletions
