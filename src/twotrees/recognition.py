"""Decide 2-tree-ness and read off structural classifications.

A graph is a 2-tree iff repeatedly deleting a degree-2 vertex whose two
neighbours are adjacent reduces it to a single edge.  The deletion order,
reversed, is the construction order returned by :func:`recognize`.  Cheap
necessary conditions (edge count 2n-3, connectivity) are checked before the
elimination loop.  Ties always go to the smallest-index eligible vertex so
results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, NotTwoTreeError, NotTwoTreeReason, OutOfRangeError
from .graph import Edge, SimpleGraph, TwoTreeConstruction, edge


@dataclass(frozen=True)
class TwoSimplicialOrdering:
    """A vertex ordering whose prefixes always delete a degree-2 vertex.

    ``order[0]`` is removed first; the final two entries are the base edge.
    """

    order: tuple[int, ...]

    def is_valid_for(self, g: SimpleGraph) -> bool:
        """True iff this is an elimination ordering of ``g`` whose deleted
        vertices always have degree 2 with adjacent neighbours, and
        consecutive entries are adjacent (the Hamiltonian-path property)."""
        if sorted(self.order) != list(range(g.n)):
            return False
        if any(not g.has_edge(a, b) for a, b in zip(self.order, self.order[1:])):
            return False
        adj = [set(s) for s in g.adj]
        for v in self.order[:-2]:
            if len(adj[v]) != 2:
                return False
            a, b = adj[v]
            if b not in adj[a]:
                return False
            for w in adj[v]:
                adj[w].discard(v)
            adj[v].clear()
        return True


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
    alive = [True] * n
    removed: list[tuple[int, Edge]] = []
    for _ in range(n - 2):
        deg2 = [v for v in range(n) if alive[v] and len(adj[v]) == 2]
        if not deg2:
            raise NotTwoTreeError(
                NotTwoTreeReason.NO_DEGREE2_SIMPLICIAL,
                "no degree-2 vertex left to eliminate",
            )
        for v in deg2:
            a, b = sorted(adj[v])
            if b in adj[a]:
                break
        else:
            raise NotTwoTreeError(
                NotTwoTreeReason.NONADJACENT_NEIGHBORS,
                "every degree-2 vertex has nonadjacent neighbours",
            )
        removed.append((v, edge(a, b)))
        adj[a].discard(v)
        adj[b].discard(v)
        adj[v].clear()
        alive[v] = False

    base = [v for v in range(n) if alive[v]]
    # 2(n-2) edges were removed from 2n-3, so exactly the base edge remains.
    if not (len(base) == 2 and base[1] in adj[base[0]]):
        raise InvariantError(f"elimination left {base}, not a single edge")
    removed.reverse()
    return TwoTreeConstruction(n, (base[0], base[1]), tuple(removed))


def simplicial_vertices(g: SimpleGraph) -> list[int]:
    """Sorted degree-2 vertices of a 2-tree with n >= 3 (all are simplicial)."""
    if g.n < 3:
        raise OutOfRangeError(f"simplicial_vertices needs n >= 3, got {g.n}")
    recognize(g)
    return _degree_two(g)


def is_book(g: SimpleGraph) -> bool:
    """True iff every vertex outside one shared edge is simplicial.

    For 2-trees this is a pure degree condition: the degree sum forces the
    two non-simplicial vertices to be adjacent to everything, so a 2-tree is
    a book iff it has n - 2 vertices of degree 2 (any 3-vertex 2-tree is one).
    """
    if g.n < 3:
        raise OutOfRangeError(f"is_book needs n >= 3, got {g.n}")
    recognize(g)
    if g.n == 3:
        return True
    return len(_degree_two(g)) == g.n - 2


def path_ordering_if_two_simplicial(g: SimpleGraph) -> TwoSimplicialOrdering | None:
    """An elimination ordering forming a Hamiltonian path, when one exists.

    Present exactly when ``g`` has two simplicial vertices; consecutive
    entries are then adjacent in ``g``.  Of the two valid orientations the
    one starting at the smaller-index simplicial vertex is returned.
    """
    recognize(g)
    if g.n == 2:
        return TwoSimplicialOrdering((0, 1))
    simp = _degree_two(g)
    if len(simp) != 2:
        return None
    start, goal = simp
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    order = [start]
    prev = start
    while True:
        a, b = sorted(adj[prev])
        _delete(adj, alive, prev)
        if len(alive) == 2:
            break
        candidates = [
            v
            for v in (a, b)
            if v in alive and v != goal and len(adj[v]) == 2 and _clique_pair(adj, v)
        ]
        # Unique except at the closing triangle, where both neighbours work.
        if not candidates:
            raise NotTwoTreeError(
                NotTwoTreeReason.NONADJACENT_NEIGHBORS,
                "path peeling stalled; graph is not a 2-tree",
            )
        prev = min(candidates)
        order.append(prev)
    order.extend(sorted(alive - {goal}))
    order.append(goal)
    for earlier, later in zip(order, order[1:]):
        if not g.has_edge(earlier, later):
            raise InvariantError(f"path ordering steps across non-edge ({earlier}, {later})")
    return TwoSimplicialOrdering(tuple(order))


def _degree_two(g: SimpleGraph) -> list[int]:
    return [v for v in range(g.n) if g.degree(v) == 2]


def _clique_pair(adj: list[set[int]], v: int) -> bool:
    a, b = adj[v]
    return b in adj[a]


def _delete(adj: list[set[int]], alive: set[int], v: int) -> None:
    for w in adj[v]:
        adj[w].discard(v)
    adj[v].clear()
    alive.discard(v)
