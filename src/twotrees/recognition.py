"""Decide 2-tree-ness and read off structural classifications.

A graph is a 2-tree iff repeatedly deleting a degree-2 vertex whose two
neighbours are adjacent reduces it to a single edge.  :func:`recognize` reads
an edge list as parsed, ``(n, edges)``, and returns the deletion order,
reversed, as a construction; a list too short for 2n-3 edges is rejected
before anything sized by n is built.  Ties go to the smallest-index eligible
vertex; :func:`_peel` keeps the candidates in a heap, so the elimination is
O(n log n).  The structural queries take a construction, so :func:`recognize`
is the one place a graph becomes a 2-tree.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Collection

from .errors import InvariantError, NotTwoTreeError, NotTwoTreeReason, OutOfRangeError
from .graph import Edge, TwoTreeConstruction, _neighbour_sets, edge


def recognize(n: int, edges: Collection[Edge]) -> TwoTreeConstruction:
    """A construction of the graph on n vertices with these edges, or NotTwoTreeError.

    Edges are checked, and a repeated one counts once, as in ``SimpleGraph.from_edges``.
    The attachments are the deletion order reversed, and ``.edges()`` is the graph's.
    """
    if type(n) is not int or n < 2:
        raise OutOfRangeError(f"recognition needs n >= 2, got {n!r}")
    if len(edges) < 2 * n - 3:  # before a header's n sizes anything
        raise NotTwoTreeError.wrong_edge_count(n, len(edges))
    adj = _neighbour_sets(n, edges)
    m = sum(map(len, adj)) // 2
    if m != 2 * n - 3:
        raise NotTwoTreeError.wrong_edge_count(n, m)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < n:
        raise NotTwoTreeError(NotTwoTreeReason.DISCONNECTED, "graph is disconnected")

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
    return TwoTreeConstruction(n, (base[0], base[1]), reversed(removed))


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
    order, _ = _path_order(c.adjacency(), simp[1])
    return tuple(order)


def _is_book_shape(n: int, degree_two: list[int]) -> bool:
    """The degree rule of :func:`is_book` for a 2-tree with n >= 3 vertices."""
    return n == 3 or len(degree_two) == n - 2


def _path_order(adj: list[set[int]], goal: int) -> tuple[list[int], list[tuple[int, Edge]]]:
    """The Hamiltonian path of the 2-tree left in ``adj``, which is peeled in
    place, from its degree-2 vertex other than ``goal`` to ``goal``, and the
    peel's deletions.

    Only one vertex besides goal is ever eligible until the closing triangle,
    so the smallest-first peel walks the path; the one vertex it leaves
    beside goal comes second to last.  Each step must be an edge.  A step
    from a peeled vertex is checked against its attach edge, which holds
    exactly its neighbours when it is deleted: the next vertex is still
    there, and an edge leaves ``adj`` only with an endpoint.  The steps from
    the vertices the peel leaves are checked against the live ``adj``.
    """
    deletions = _peel(adj, keep={goal})
    order = [v for v, _ in deletions]
    order.extend(v for v in range(len(adj)) if adj[v] and v != goal)
    order.append(goal)
    around = [f for _, f in deletions] + [adj[v] for v in order[len(deletions) : -1]]
    for earlier, later, neighbours in zip(order, order[1:], around):
        if later not in neighbours:
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
