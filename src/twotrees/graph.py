"""Core value types: simple graphs, 2-tree build recipes, spanning-tree checks.

Vertices are dense 0-based indices.  An edge is a canonical ``(u, v)`` tuple
with ``u < v``, so edge sets hash and compare independent of orientation.
A :class:`TwoTreeConstruction` is a base edge plus one attachment per
remaining vertex; reading the attachments backwards gives an elimination
ordering in which every removed vertex has degree 2.  Generators emit the
canonical labelling (base ``{0, 1}``, vertex ``k`` added at step ``k - 2``),
but the type accepts any introduction order so that recognised graphs round
trip with their original labels.  All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    def induced_compact(self, keep: Iterable[int]) -> tuple[SimpleGraph, dict[int, int]]:
        """Induced subgraph on ``keep``, relabelled densely in sorted order.

        Returns the subgraph and the old-to-new vertex map.
        """
        kept = sorted(set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        sub = [
            edge(remap[u], remap[v])
            for u in kept
            for v in self.adj[u]
            if u < v and v in remap
        ]
        return SimpleGraph.from_edges(len(kept), sub), remap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimpleGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TwoTreeConstruction:
    """A 2-tree given as a base edge plus an ordered attachment sequence.

    ``attachments[i]`` is ``(new_vertex, attach_edge)``: the vertex added at
    step ``i``, glued onto both endpoints of an edge already present.  The
    base endpoints together with the attached vertices must cover
    ``0 .. n-1`` exactly once each.
    """

    n: int
    base: Edge
    attachments: tuple[tuple[int, Edge], ...]

    def __post_init__(self):
        if self.n < 2:
            raise OutOfRangeError(f"a construction needs n >= 2, got {self.n}")
        object.__setattr__(self, "base", edge(*self.base))
        object.__setattr__(
            self,
            "attachments",
            tuple((v, edge(*attach)) for v, attach in self.attachments),
        )
        if len(self.attachments) != self.n - 2:
            raise InvalidConstructionError(
                f"expected {self.n - 2} attachments for n={self.n}, "
                f"got {len(self.attachments)}"
            )
        introduced = [self.base[0], self.base[1]]
        introduced.extend(v for v, _ in self.attachments)
        if sorted(introduced) != list(range(self.n)):
            raise InvalidConstructionError(
                "base endpoints plus attached vertices must cover each of "
                f"0..{self.n - 1} exactly once"
            )

    def vertices_in_build_order(self) -> list[int]:
        return [self.base[0], self.base[1]] + [v for v, _ in self.attachments]

    def realize(self) -> SimpleGraph:
        """Build the 2-tree this recipe describes.

        Raises InvalidConstructionError if an attach edge is missing at the
        moment its vertex is added.  The result always has 2n - 3 edges.
        """
        edges = self._edges_checked(self.n)
        return SimpleGraph.from_edges(self.n, edges)

    def prefix_graph(self, i: int) -> SimpleGraph:
        """The 2-tree spanned by the first ``i`` constructed vertices.

        Labels are compacted in sorted order; for canonically labelled
        constructions this is the identity, so ``prefix_graph(n)`` equals
        ``realize()``.
        """
        if i < 2 or i > self.n:
            raise OutOfRangeError(f"prefix size must be in [2, {self.n}], got {i}")
        edges = self._edges_checked(i)
        kept = sorted(self.vertices_in_build_order()[:i])
        remap = {old: new for new, old in enumerate(kept)}
        return SimpleGraph.from_edges(i, [edge(remap[u], remap[v]) for u, v in edges])

    def _edges_checked(self, upto: int) -> list[Edge]:
        present = {self.base}
        seen = {self.base[0], self.base[1]}
        out = [self.base]
        for v, attach in self.attachments[: upto - 2]:
            if v in seen:
                raise InvalidConstructionError(f"vertex {v} attached twice")
            if attach not in present:
                raise InvalidConstructionError(
                    f"attach edge {attach} absent when vertex {v} is added"
                )
            e1, e2 = edge(v, attach[0]), edge(v, attach[1])
            present.add(e1)
            present.add(e2)
            out.extend((e1, e2))
            seen.add(v)
        return out


SpanningTree = frozenset  # frozenset[Edge]; edge set of a spanning tree


def is_spanning_tree(g: SimpleGraph, tree: Iterable[Edge]) -> bool:
    """True iff ``tree`` has n-1 edges of ``g`` and is connected and acyclic.

    Raises ForeignEdgeError when the set uses an edge not present in ``g``.
    """
    edges = list(tree)
    for u, v in edges:
        if not (0 <= u < g.n and v in g.adj[u]):
            raise ForeignEdgeError(f"edge ({u}, {v}) is not an edge of the host graph")
    if len(set(edges)) != g.n - 1 or len(edges) != g.n - 1:
        return False
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def spanning_forest_components(n: int, edges: Iterable[Edge]) -> int | None:
    """Number of components of an acyclic edge set on n vertices, else None."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
        comps -= 1
    return comps


def tree_vertex_span(tree: Iterable[Edge]) -> set[int]:
    """Vertices touched by an edge set."""
    span: set[int] = set()
    for u, v in tree:
        span.add(u)
        span.add(v)
    return span
