"""Core value types: checked edge lists and 2-tree build recipes.

Vertices are dense 0-based indices.  An edge is a canonical ``(u, v)`` tuple
with ``u < v``, so edge sets hash and compare independent of orientation.
A :class:`TwoTreeConstruction` is a base edge plus one attachment per
remaining vertex; reading the attachments backwards gives an elimination
ordering in which every removed vertex has degree 2.  Generators emit the
canonical labelling (base ``{0, 1}``, vertex ``k`` added at step ``k - 2``),
but the type accepts any introduction order so that recognised graphs round
trip with their original labels.

An edge is named by the build step that made it: the base edge is id 0, and
step i's new edges, from its vertex to the smaller and the larger end of its
attach edge, are ids 2i + 1 and 2i + 2.  A construction stores ``parent``,
the id of each step's attach edge, next to ``attachments``; the build rule
(each attach edge present when its vertex arrives) is then
``parent[i] < 2i + 1``.  The constructor checks it, with the vertex cover,
so every construction counts without further checks, and the counting engine
and the enumeration walk index lists by id.  Both types are immutable
``__slots__`` classes that compare and hash by field, as frozen dataclasses
would; the package does not import ``dataclasses``, which would add its
``inspect`` and ``ast`` imports to every CLI start.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
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
    """Base of the value types: the fields are the ``__match_args__``, set once
    in ``__init__``; equality, hash and repr go by field, as for a frozen
    dataclass.  A slot outside them holds what ``__init__`` derives from them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
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
        """Loops, non-int ends and ends outside 0..n-1 raise, repeats count once; O(m) in n."""
        if type(n) is not int or n < 0:
            raise OutOfRangeError(f"vertex count must be nonnegative, got {n!r}")
        return SimpleGraph(n, tuple(sorted(set(_checked_edges(n, edges)))))

    @property
    def m(self) -> int:
        return len(self.sorted_edges)

    def edges(self) -> list[Edge]:
        """All edges as sorted canonical tuples."""
        return list(self.sorted_edges)

    def __repr__(self) -> str:  # a debugging aid: the edges are left out
        return f"SimpleGraph(n={self.n}, m={self.m})"


class TwoTreeConstruction(_Frozen):
    """A 2-tree given as a base edge plus an ordered attachment sequence.

    ``attachments[i]`` is ``(new_vertex, attach_edge)``: the vertex added at
    step ``i``, glued onto both endpoints of an edge already present.  A
    caller may name the attach edge by its id instead of its ends; it is
    stored as its ends either way, and ``parent[i]`` holds its id.  The base
    endpoints together with the attached vertices must cover ``0 .. n-1``
    exactly once each, and every label, attach edge ends too, is an ``int``.
    The constructor raises InvalidConstructionError when a rule fails.
    """

    __match_args__ = ("n", "base", "attachments")
    __slots__ = (*__match_args__, "parent")

    def __init__(self, n: int, base: Edge, attachments: Iterable[tuple[int, Edge | int]]):
        if type(n) is not int or n < 2:
            raise OutOfRangeError(f"a construction needs n >= 2, got {n!r}")
        try:
            base = edge(*base)
            atts = list(attachments)
            by_id = bool(atts) and type(atts[0][1]) is int
            if not by_id:
                # Pairs already in canonical (v, (x, y)) form, as every peel
                # passes them, are kept as given rather than rebuilt.
                atts = [
                    a if type(a) is tuple and type(a[1]) is tuple and a[1][0] < a[1][1]
                    else _attach_pair(*a)
                    for a in atts
                ]
            if len(atts) != n - 2:
                raise InvalidConstructionError(
                    f"expected {n - 2} attachments for n={n}, got {len(atts)}"
                )
            introduced = [*base, *map(itemgetter(0), atts)]
            if sorted(introduced) != list(range(n)):
                raise InvalidConstructionError(
                    "base endpoints plus attached vertices must cover each of "
                    f"0..{n - 1} exactly once"
                )
            ends = () if by_id else chain.from_iterable(map(itemgetter(1), atts))
            if {*map(type, introduced), *map(type, ends)} != {int}:  # True and 2.0 pass the cover
                raise TypeError("a vertex label is not an int")
            # Each attach edge's id: as given, or looked up once from its ends.
            parent = [] if by_id else _edge_ids(n, atts, map(itemgetter(1), atts))
            for i, (v, e) in enumerate(atts):  # the build rule, parent[i] < 2i + 1
                p = e if by_id else parent[i]
                if type(p) is not int or not 0 <= p <= 2 * i:
                    e = f"id {p!r}" if by_id else e
                    raise InvalidConstructionError(f"attach edge {e} absent when vertex {v} is added")
                if by_id:  # read its ends off the step that made it; id 0 is base[0] to base[1]
                    u, ends = atts[(p - 1) >> 1] if p else (base[0], base)
                    w = ends[(p - 1) & 1]
                    atts[i] = (v, (u, w) if u < w else (w, u))
                    parent.append(p)
        except LoopEdgeError:
            raise
        except (TypeError, ValueError, IndexError) as exc:  # a record of the wrong shape
            raise InvalidConstructionError(f"malformed construction record: {exc}") from exc
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "attachments", tuple(atts))
        object.__setattr__(self, "parent", tuple(parent))

    @property
    def m(self) -> int:
        return 2 * self.n - 3

    def edges(self) -> list[Edge]:
        """The 2n - 3 edges of the 2-tree, as sorted canonical tuples."""
        out = self.edges_by_id()
        out.sort()
        return out

    def edges_by_id(self) -> list[Edge]:
        """The 2n - 3 edges of the 2-tree as canonical tuples, edge id i at index i."""
        out = [self.base]
        for v, (x, y) in self.attachments:
            out.append((v, x) if v < x else (x, v))
            out.append((v, y) if v < y else (y, v))
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


def _attach_pair(v: int, e: Edge) -> tuple[int, Edge]:
    """``(v, e)`` with ``e`` canonical, when attach edges are given as pairs."""
    if type(e) is int:
        raise InvalidConstructionError(f"attach edge {e} absent when vertex {v} is added")
    return v, edge(*e)


def _edge_ids(n: int, attachments, edges: Iterable[Edge]) -> list[int]:
    """The id of each canonical edge in ``edges`` in the 2-tree that
    ``attachments`` (checked for cover, not for order) build, or -1 for a pair
    that is not an edge.

    Edge {x, y} appears when the later of x and y arrives: it is the base edge
    when both are base vertices, else one of the later one's two step edges.
    """
    step = [-1] * n  # the step each vertex arrives at; -1 for the base vertices
    for i, (v, _) in enumerate(attachments):
        step[v] = i
    ids: list[int] = []
    append = ids.append
    for x, y in edges:
        p = -1
        if 0 <= x and y < n:
            k, kx = step[y], step[x]
            if k > kx:
                other = x
            elif kx > k:
                k, other = kx, y
            else:  # only the two base vertices share a step
                append(0)
                continue
            ends = attachments[k][1]
            if other == ends[0]:
                p = 2 * k + 1
            elif other == ends[1]:
                p = 2 * k + 2
        append(p)
    return ids


def _checked_edges(n: int, edges: Iterable[Edge]) -> Iterable[Edge]:
    """Each edge record from outside, canonical: a loop raises LoopEdgeError,
    any other record that is not two int ends in 0..n-1 OutOfRangeError."""
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise OutOfRangeError(f"edge record {e!r} is not a pair of vertices") from None
        ints = type(u) is type(v) is int  # a bool or a float passes the range test
        if ints and u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if not (ints and 0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u!r}, {v!r}) outside vertex range [0, {n})")
        yield (u, v) if u < v else (v, u)


def _neighbour_sets(n: int, edges: Iterable[Edge]) -> list[set[int]]:
    """A neighbour set per vertex, for recognition, whose caller has checked
    n >= 2; edges are checked as by :meth:`SimpleGraph.from_edges`."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in _checked_edges(n, edges):
        adj[u].add(v)
        adj[v].add(u)
    return adj


SpanningTree = frozenset  # frozenset[Edge]; edge set of a spanning tree


def _union_find(n: int, edges: Iterable[Edge]) -> Callable[[int], int] | None:
    """``find`` after joining every edge, or None when an edge, a repeated one
    included, closes a cycle.

    This path-halving union-find is the package's only one and its one forest test.
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
