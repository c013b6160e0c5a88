"""Core value types: checked edge lists and 2-tree build recipes.

Vertices are dense 0-based indices.  An edge is a canonical ``(u, v)`` tuple
with ``u < v``, so edge sets hash and compare independent of orientation.
A :class:`TwoTreeConstruction` is a base edge plus one attachment per
remaining vertex; reading the attachments backwards gives an elimination
ordering in which every removed vertex has degree 2.  Generators emit the
canonical labelling (base ``{0, 1}``, vertex ``k`` added at step ``k - 2``),
but the type accepts any introduction order so that recognised graphs round
trip with their original labels.  The constructor checks the whole build rule
(each attach edge present when its vertex arrives), so every construction
counts without further checks.  Both types are immutable
``__slots__`` classes that compare and hash by field, as frozen dataclasses
would; the package does not import ``dataclasses``, which would add its
``inspect`` and ``ast`` imports to every CLI start.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import (
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


class _Frozen:
    """Base of the value types: the fields are the ``__slots__``, set once in
    ``__init__``; equality, hash and repr go by field, as for a frozen dataclass."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class SimpleGraph(_Frozen):
    """Undirected simple graph on ``0 .. n-1`` as its sorted distinct edges, with
    nothing per vertex: the oracles read ``n``, ``m`` and ``edges()``, as of a
    :class:`TwoTreeConstruction`."""

    __slots__ = __match_args__ = ("n", "sorted_edges")

    def __init__(self, n: int, sorted_edges: tuple[Edge, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sorted_edges", sorted_edges)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> SimpleGraph:
        """Loops and ends outside 0..n-1 raise, repeats count once; O(m) in n."""
        if n < 0:
            raise OutOfRangeError(f"vertex count must be nonnegative, got {n}")
        distinct: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            distinct.add((u, v) if u < v else (v, u))
        return SimpleGraph(n, tuple(sorted(distinct)))

    @property
    def m(self) -> int:
        return len(self.sorted_edges)

    def edges(self) -> list[Edge]:
        """All edges as sorted canonical tuples."""
        return list(self.sorted_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimpleGraph(n={self.n}, m={self.m})"


class TwoTreeConstruction(_Frozen):
    """A 2-tree given as a base edge plus an ordered attachment sequence.

    ``attachments[i]`` is ``(new_vertex, attach_edge)``: the vertex added at
    step ``i``, glued onto both endpoints of an edge already present.  The
    base endpoints together with the attached vertices must cover
    ``0 .. n-1`` exactly once each.  The constructor raises
    InvalidConstructionError when either rule fails.
    """

    __slots__ = __match_args__ = ("n", "base", "attachments")

    def __init__(self, n: int, base: Edge, attachments: Iterable[tuple[int, Edge]]):
        if n < 2:
            raise OutOfRangeError(f"a construction needs n >= 2, got {n}")
        base = edge(*base)
        # Pairs already in canonical (v, (x, y)) form, as every generator and
        # peel passes them, are kept as given rather than rebuilt.
        atts = tuple(
            a if type(a) is tuple and type(a[1]) is tuple and a[1][0] < a[1][1]
            else (a[0], edge(*a[1]))
            for a in attachments
        )
        if len(atts) != n - 2:
            raise InvalidConstructionError(
                f"expected {n - 2} attachments for n={n}, got {len(atts)}"
            )
        introduced = [base[0], base[1]]
        introduced.extend(v for v, _ in atts)
        if sorted(introduced) != list(range(n)):
            raise InvalidConstructionError(
                "base endpoints plus attached vertices must cover each of "
                f"0..{n - 1} exactly once"
            )
        # Edge {x, y} appears when the later of x and y arrives.  Checked in
        # build order, it exists at step i iff both are vertices, that one
        # arrived before i and is a base vertex or holds the other in its own
        # attach edge.
        step = [-1] * n
        for i, (v, _) in enumerate(atts):
            step[v] = i
        for i, (v, (x, y)) in enumerate(atts):
            if 0 <= x and y < n:
                later, other = (y, x) if step[y] > step[x] else (x, y)
                k = step[later]
                if k < i and (k < 0 or other in atts[k][1]):
                    continue
            raise InvalidConstructionError(
                f"attach edge {(x, y)} absent when vertex {v} is added"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "attachments", atts)

    @property
    def m(self) -> int:
        return 2 * self.n - 3

    def edges(self) -> list[Edge]:
        """The 2n - 3 edges of the 2-tree, as sorted canonical tuples."""
        out = [self.base]
        for v, (x, y) in self.attachments:
            out.append((v, x) if v < x else (x, v))
            out.append((v, y) if v < y else (y, v))
        out.sort()
        return out

    def adjacency(self) -> list[set[int]]:
        """A fresh neighbour set per vertex, which the caller may edit."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        x, y = self.base
        adj[x], adj[y] = {y}, {x}
        for v, (x, y) in self.attachments:
            adj[v] = {x, y}  # v has no neighbour before it arrives
            adj[x].add(v)
            adj[y].add(v)
        return adj

    def realize(self) -> SimpleGraph:
        """The 2-tree as a :class:`SimpleGraph`; the oracles take ``self`` as is."""
        return SimpleGraph(self.n, tuple(self.edges()))


def _neighbour_sets(n: int, edges: Iterable[Edge]) -> list[set[int]]:
    """A neighbour set per vertex, for recognition, whose caller has checked
    n >= 2; edges are checked as by :meth:`SimpleGraph.from_edges`."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
        adj[u].add(v)
        adj[v].add(u)
    return adj


SpanningTree = frozenset  # frozenset[Edge]; edge set of a spanning tree


def spanning_forest_components(n: int, edges: Iterable[Edge]) -> int | None:
    """Number of components of an acyclic edge set on n vertices, else None."""
    edges = list(edges)
    return None if _union_find(n, edges) is None else n - len(edges)


def _union_find(n: int, edges: Iterable[Edge]) -> Callable[[int], int] | None:
    """``find`` after joining every edge, or None when an edge, a repeated one
    included, closes a cycle.

    This path-halving union-find is the package's only one.
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
