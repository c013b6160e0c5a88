"""List every spanning tree of a 2-tree exactly once.

The build order makes this mechanical.  When vertex v arrives glued onto
edge {x, y}, every spanning tree of the previous graph extends in two ways
with v as a leaf (add vx, or add vy), and, when the tree contains xy, in one
further way with v internal (swap xy for vx plus vy).  Every tree of the
larger graph arises from exactly one parent this way, so walking the choices
yields each tree once.

There is one walk: a depth-first pass over the choice vectors that applies
and undoes one choice at a time, with O(n) state beyond the consumer.  The
2n - 3 edges of ``c.realize()`` are indexed once in their sorted order, each
added vertex becomes a triple of edge indices (vx, vy, xy), and the current
tree is a bytearray of flags set and cleared in place.  Within one parent the
order is always: leaf at the smaller endpoint, leaf at the larger endpoint,
then the swap.  The choice rule lives only in this walk; the list-growing
enumeration in ``tests/oracle.py`` is the reference for its order.

Two thin views read the flags after each step.  ``spanning_tree_lines``
joins precomputed ``"u-v"`` tokens into the stream line the CLI writes (index
order is the sorted order, so no per-tree sort or set is needed);
``enumerate_spanning_trees`` builds a ``frozenset`` of edges for library
callers.  Both emit the same trees in the same order.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Iterable, Iterator

from .formats import edge_tokens
from .graph import Edge, SpanningTree, TwoTreeConstruction, edge


def enumerate_spanning_trees(c: TwoTreeConstruction) -> Iterator[SpanningTree]:
    """Yield every spanning tree of ``c.realize()`` exactly once, as edge sets."""
    edges = c.realize().edges()
    return map(frozenset, map(compress, repeat(edges), _walk(c, edges)))


def spanning_tree_lines(c: TwoTreeConstruction) -> Iterator[str]:
    """Yield every spanning tree of ``c.realize()`` as its tree-stream line.

    Same trees, same order as :func:`enumerate_spanning_trees`; each line
    equals ``formats.serialize_tree`` of the matching edge set.
    """
    edges = c.realize().edges()
    tokens = edge_tokens(edges)
    return map(" ".join, map(compress, repeat(tokens), _walk(c, edges)))


def _walk(c: TwoTreeConstruction, edges: list[Edge]) -> Iterator[bytearray]:
    """Depth-first walk over the choice vectors, one flag per edge of ``edges``.

    Yields the same bytearray for every tree, updated in place; a consumer
    must read it before asking for the next tree.  Each level is one added
    vertex with edge indices (vx, vy, xy); its choices, in order, are
    vx, vy, and (when xy is in the tree) the split.
    """
    index = {e: i for i, e in enumerate(edges)}
    steps = [
        (index[edge(v, x)], index[edge(v, y)], index[(x, y)]) for v, (x, y) in c.attachments
    ]
    flags = bytearray(len(edges))
    flags[index[c.base]] = 1
    if not steps:
        yield flags
        return
    # The last level is unrolled: it emits almost every tree.
    lvx, lvy, lxy = steps.pop()
    depth = len(steps)
    tried = [0] * depth  # choices taken so far at each inner level
    level = 0
    while True:
        if level == depth:
            flags[lvx] = 1
            yield flags
            flags[lvx] = 0
            flags[lvy] = 1
            yield flags
            if flags[lxy]:
                flags[lxy] = 0
                flags[lvx] = 1
                yield flags
                flags[lvx] = 0
                flags[lxy] = 1
            flags[lvy] = 0
            level -= 1
            if level < 0:
                return
        vx, vy, xy = steps[level]
        t = tried[level]
        if t == 0:
            flags[vx] = 1
        elif t == 1:
            flags[vx] = 0
            flags[vy] = 1
        elif t == 2 and flags[xy]:
            flags[xy] = 0
            flags[vx] = 1
        else:  # choices exhausted: undo the last one and backtrack
            if t == 2:
                flags[vy] = 0
            else:
                flags[vx] = flags[vy] = 0
                flags[xy] = 1
            tried[level] = 0
            level -= 1
            if level < 0:
                return
            continue
        tried[level] = t + 1
        level += 1


def count_stream(trees: Iterable[SpanningTree]) -> int:
    """Drain a tree stream into a bare count (the cheapest possible sink)."""
    total = 0
    for _ in trees:
        total += 1
    return total


def expected_tree_count(c: TwoTreeConstruction) -> int:
    """Stream length prediction used by the CLI header."""
    from .counting import count_via_construction

    return count_via_construction(c)
