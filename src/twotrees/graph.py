"""Core value types: simple graphs, 2-tree build recipes, spanning-tree checks.

Vertices are dense 0-based indices.  An edge is a canonical ``(u, v)`` tuple
with ``u < v``, so edge sets hash and compare independent of orientation.
A :class:`TwoTreeConstruction` is a base edge plus one attachment per
remaining vertex; reading the attachments backwards gives an elimination
ordering in which every removed vertex has degree 2.  Generators emit the
canonical labelling (base ``{0, 1}``, vertex ``k`` added at step ``k - 2``),
but the type accepts any introduction order so that recognised graphs round
trip with their original labels.  The constructor checks the whole build rule
(each attach edge present when its vertex arrives), so every construction
realizes and counts without further checks.  All types are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (
    ForeignEdgeError,
    InvalidConstructionError,
    LoopEdgeError,
    OutOfRangeError,
)

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    if u == v:
        raise LoopEdgeError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices ``0 .. n-1`` with frozen adjacency."""

    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> SimpleGraph:
        if n < 0:
            raise OutOfRangeError(f"vertex count must be nonnegative, got {n}")
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return SimpleGraph(n, tuple(frozenset(s) for s in neighbors))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[Edge]:
        """All edges as sorted canonical tuples."""
        return sorted((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimpleGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TwoTreeConstruction:
    """A 2-tree given as a base edge plus an ordered attachment sequence.

    ``attachments[i]`` is ``(new_vertex, attach_edge)``: the vertex added at
    step ``i``, glued onto both endpoints of an edge already present.  The
    base endpoints together with the attached vertices must cover
    ``0 .. n-1`` exactly once each.  The constructor raises
    InvalidConstructionError when either rule fails.
    """

    n: int
    base: Edge
    attachments: tuple[tuple[int, Edge], ...]

    def __post_init__(self):
        if self.n < 2:
            raise OutOfRangeError(f"a construction needs n >= 2, got {self.n}")
        object.__setattr__(self, "base", edge(*self.base))
        atts = tuple((v, edge(*attach)) for v, attach in self.attachments)
        object.__setattr__(self, "attachments", atts)
        if len(atts) != self.n - 2:
            raise InvalidConstructionError(
                f"expected {self.n - 2} attachments for n={self.n}, got {len(atts)}"
            )
        introduced = [self.base[0], self.base[1]]
        introduced.extend(v for v, _ in atts)
        if sorted(introduced) != list(range(self.n)):
            raise InvalidConstructionError(
                "base endpoints plus attached vertices must cover each of "
                f"0..{self.n - 1} exactly once"
            )
        # Edge {x, y} appears when the later of x and y arrives.  Checked in
        # build order, it exists at step i iff both are vertices, that one
        # arrived before i and is a base vertex or holds the other in its own
        # attach edge.
        step = [-1] * self.n
        for i, (v, _) in enumerate(atts):
            step[v] = i
        for i, (v, (x, y)) in enumerate(atts):
            if 0 <= x and y < self.n:
                later, other = (y, x) if step[y] > step[x] else (x, y)
                k = step[later]
                if k < i and (k < 0 or other in atts[k][1]):
                    continue
            raise InvalidConstructionError(
                f"attach edge {(x, y)} absent when vertex {v} is added"
            )

    def realize(self) -> SimpleGraph:
        """Build the 2-tree this recipe describes; it has 2n - 3 edges."""
        out = [self.base]
        for v, (x, y) in self.attachments:
            out.append(edge(v, x))
            out.append(edge(v, y))
        return SimpleGraph.from_edges(self.n, out)


SpanningTree = frozenset  # frozenset[Edge]; edge set of a spanning tree


def is_spanning_tree(g: SimpleGraph, tree: Iterable[Edge]) -> bool:
    """True iff ``tree`` has n-1 edges of ``g`` and is connected and acyclic.

    Raises ForeignEdgeError when the set uses an edge not present in ``g``.
    """
    edges = list(tree)
    for u, v in edges:
        if not (0 <= u < g.n and v in g.adj[u]):
            raise ForeignEdgeError(f"edge ({u}, {v}) is not an edge of the host graph")
    return spanning_forest_components(g.n, edges) == 1


def spanning_forest_components(n: int, edges: Iterable[Edge]) -> int | None:
    """Number of components of an acyclic edge set on n vertices, else None."""
    edges = list(edges)
    return None if _union_find(n, edges) is None else n - len(edges)


def _union_find(n: int, edges: Iterable[Edge]) -> Callable[[int], int] | None:
    """``find`` after joining every edge, or None when an edge, a repeated one
    included, closes a cycle.

    This path-halving union-find is the package's only one outside the
    brute-force oracle.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
    return find
