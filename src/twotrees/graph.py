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
attach edge, are ids 2i + 1 and 2i + 2.  A construction stores ``order``, the
vertex of each step, and ``parent``, the id of its attach edge, and reads every
edge's ends off them; the build rule (each attach edge present when its vertex
arrives) is ``parent[i] < 2i + 1``.  The constructor checks it, with the cover,
so every construction counts without further checks, and the counting engine
and the enumeration walk index lists by id.  A lookup by ends reads only the
ids above the steps it needs.  Both types are immutable ``__slots__`` classes
that compare and hash by their stored fields, as frozen dataclasses would, and
a construction pickles as its id records; the package does not import
``dataclasses``, which would add its ``inspect`` and ``ast`` imports to every
CLI start.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator

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
    """Base of the value types: the fields are the ``__match_args__``, read off
    the slots set once in ``__init__``; repr goes by field, as for a frozen
    dataclass, and equality and hash by slot, which fixes every field at a lower cost."""

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
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, from the slots
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
    step ``i``, glued onto both endpoints of an edge already present, stored as
    ``order[i]`` and ``parent[i]``, the attach edge's id, by which a caller may
    also name it.  The base endpoints together with the attached vertices must
    cover ``0 .. n-1`` exactly once each, and every label, attach edge ends too,
    is an ``int``.  An n under 2, or not an int, raises OutOfRangeError, a loop
    LoopEdgeError, and a record that breaks any other rule InvalidConstructionError.
    """

    __match_args__ = ("n", "base", "attachments")
    __slots__ = ("n", "base", "order", "parent")

    def __init__(self, n: int, base: Edge, attachments: Iterable[tuple[int, Edge | int]]):
        if type(n) is not int or n < 2:
            raise OutOfRangeError(f"a construction needs n >= 2, got {n!r}")
        try:
            base = edge(*base)
            atts = list(attachments)
            by_id = bool(atts) and type(atts[0][1]) is int
            if not by_id:
                # Canonical (v, (x, y)) pairs, as the construction parser passes them, are not rebuilt.
                atts = [
                    a if type(a) is tuple and type(a[1]) is tuple and a[1][0] < a[1][1]
                    else _attach_pair(*a)
                    for a in atts
                ]
            if len(atts) != n - 2:
                raise InvalidConstructionError(
                    f"expected {n - 2} attachments for n={n}, got {len(atts)}"
                )
            order = tuple(map(itemgetter(0), atts))
            if sorted([*base, *order]) != list(range(n)):
                raise InvalidConstructionError(
                    "base endpoints plus attached vertices must cover each of "
                    f"0..{n - 1} exactly once"
                )
            ends = () if by_id else chain.from_iterable(map(itemgetter(1), atts))
            if {*map(type, base), *map(type, order), *map(type, ends)} != {int}:  # True and 2.0 pass the cover
                raise TypeError("a vertex label is not an int")
            # Each step's vertex and attach-edge id: as given, or the id looked up once from its ends.
            attach = () if by_id else [e for _, e in atts]
            steps = atts if by_id else zip(order, _edge_ids(n, order, attach.__getitem__, attach))
            parent = []
            for i, (v, p) in enumerate(steps):  # the build rule, parent[i] < 2i + 1
                if type(p) is not int or not 0 <= p <= 2 * i:
                    e = f"id {p!r}" if by_id else attach[i]
                    raise InvalidConstructionError(f"attach edge {e} absent when vertex {v} is added")
                parent.append(p)
        except LoopEdgeError:
            raise
        except (TypeError, ValueError, IndexError) as exc:  # a record of the wrong shape
            raise InvalidConstructionError(f"malformed construction record: {exc}") from exc
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "parent", tuple(parent))

    def __reduce__(self):  # copy and pickle rebuild from the id records
        return TwoTreeConstruction, (self.n, self.base, tuple(zip(self.order, self.parent)))

    @property
    def attachments(self) -> tuple[tuple[int, Edge], ...]:
        """Each step as ``(vertex, attach_edge)``, the attach edge read off its id."""
        by_id = self.edges_by_id()
        return tuple((v, by_id[p]) for v, p in zip(self.order, self.parent))

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
        for v, p in zip(self.order, self.parent):
            x, y = out[p]
            out.append((v, x) if v < x else (x, v))
            out.append((v, y) if v < y else (y, v))
        return out

    def adjacency(self) -> list[set[int]]:
        """A fresh neighbour set per vertex, which the caller may edit."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges_by_id():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def realize(self) -> SimpleGraph:
        """The 2-tree as a :class:`SimpleGraph`; the oracles take ``self`` as is."""
        return SimpleGraph(self.n, tuple(self.edges()))

    def _ids(self, edges: Iterable[Edge]) -> list[int]:
        """:func:`_edge_ids` in this 2-tree, each attach edge's ends read off the ids above it alone."""
        order, parent, known = self.order, self.parent, {0: self.base}

        def ends(k: int) -> Edge:
            above, p = [], parent[k]
            while p not in known:  # edge p > 0 joins step j's vertex to end r of parent[j]
                above.append(p)
                p = parent[(p - 1) // 2]
            for p in reversed(above):
                j, r = divmod(p - 1, 2)
                v, x = order[j], known[parent[j]][r]
                known[p] = (v, x) if v < x else (x, v)
            return known[parent[k]]

        return _edge_ids(self.n, order, ends, edges)


def _attach_pair(v: int, e: Edge) -> tuple[int, Edge]:
    """``(v, e)`` with ``e`` canonical, when attach edges are given as pairs."""
    if type(e) is int:
        raise InvalidConstructionError(f"attach edge {e} absent when vertex {v} is added")
    return v, edge(*e)


def _edge_ids(
    n: int, order: Iterable[int], attach: Callable[[int], Edge], edges: Iterable[Edge]
) -> list[int]:
    """The id of each canonical edge in ``edges``, or -1 for a pair that is not
    one, in the 2-tree whose step k adds vertex ``order[k]`` on the edge with
    canonical ends ``attach(k)`` (checked for cover, not for order).  Edge {x, y} appears
    when the later of x and y arrives: it is the base edge when both are base
    vertices, else one of the later one's two step edges.
    """
    step = [-1] * n  # the step each vertex arrives at; -1 for the base vertices
    for i, v in enumerate(order):
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
            ends = attach(k)
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


class _EdgeCodes(set):
    """Checked distinct edges of a graph on n vertices as codes ``u * n + v``
    (u < v), as an edge list parses: ``recognize`` takes them as they are."""

    def edges(self, n: int) -> Iterator[Edge]:
        return (divmod(code, n) for code in self)


SpanningTree = frozenset  # frozenset[Edge]; edge set of a spanning tree


def _union_find(n: int, edges: Iterable[Edge], cycles: bool = False) -> Callable[[int], int] | None:
    """``find`` after joining every edge, or None when an edge, a repeated one
    included, closes a cycle; with ``cycles``, such an edge is passed over.

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
        if ru != rv:
            parent[ru] = rv
        elif not cycles:
            return None
    return find
