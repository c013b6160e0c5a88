"""List every spanning tree of a 2-tree exactly once.

The build order makes this mechanical.  When vertex v arrives glued onto
edge {x, y}, every spanning tree of the previous graph extends in two ways
with v as a leaf (add vx, or add vy), and, when the tree contains xy, in one
further way with v internal (swap xy for vx plus vy).  Every tree of the
larger graph arises from exactly one parent this way, so walking the choices
yields each tree once.

One walk, :func:`_walk`, applies and undoes one choice at a time on a flag
per edge of ``c.edges()``, in sorted order.  Each added vertex is a level
(vx, vy, xy) of those flags' indices, read off its edge ids by ranking the
ids once; ``tests/oracle.py`` is the reference order.

``enumerate_spanning_trees`` walks every level and reads each tree as a
``frozenset``.  ``tree_stream_blocks`` writes the CLI's stream.  Its walk
stops K levels short (the head); a head tree fixes every flag but the at most
3K the tail touches, so the token runs between those are joined once.  The
tail's trees depend only on its entry state (its attach edges' flags set
before it): per state, the walk runs once over the tail, on a copy of the
flags, into an ``itemgetter`` table, so a head tree's block of up to 3^K lines
is one C-level join.  K is the largest k <= 5 with 3^k (n - 1) <= 2^16
tokens, so a block stays small at any n.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from .formats import edge_tokens
from .graph import Edge, SpanningTree, TwoTreeConstruction


def enumerate_spanning_trees(c: TwoTreeConstruction) -> Iterator[SpanningTree]:
    """Yield every spanning tree of the 2-tree ``c`` exactly once, as edge sets."""
    edges, steps, flags = _levels(c)
    return map(frozenset, map(compress, repeat(edges), _walk(steps, flags)))


def tree_stream_blocks(c: TwoTreeConstruction) -> Iterator[tuple[str, int]]:
    """Yield the trees of :func:`enumerate_spanning_trees`, in order, as blocks
    ``(text, lines)`` of ``lines`` lines of ``formats.serialize_tree`` plus newline."""
    edges, steps, flags = _levels(c)
    k = min(len(steps), max((k for k in range(6) if 3**k * (c.n - 1) <= 1 << 16), default=0))
    head, tail = steps[: len(steps) - k], steps[len(steps) - k :]
    made = {i for vx, vy, _ in tail for i in (vx, vy)}
    entry = sorted({xy for _, _, xy in tail} - made)
    cuts = sorted(made.union(entry))
    tokens = [t + " " for t in edge_tokens(edges)]
    spans = list(zip([0] + [p + 1 for p in cuts], cuts + [len(edges)]))
    runs = [tokens[a:b] for a, b in spans]
    # A head tree's parts: each run's text; each line end (a line's last tail
    # token, or none, and the runs after it, less the final space); the tail
    # tokens; a newline.
    r = len(runs)
    parts = [""] * (2 * r) + [tokens[p] for p in cuts] + ["\n"]
    starts = [""] + parts[2 * r : -1]
    tables: dict[bytes, tuple[itemgetter, int, int]] = {}
    for flags in _walk(head, flags):
        state = bytes(map(flags.__getitem__, entry))
        if state not in tables:
            tables[state] = _tail_table(tail, cuts, runs, bytearray(flags))
        pick, lines, low = tables[state]
        end = ""
        for j in reversed(range(r)):
            a, b = spans[j]
            parts[j] = "".join(compress(runs[j], flags[a:b]))
            if j >= low:  # only the line ends the table picks
                end = parts[j] + end
                parts[r + j] = (starts[j] + end)[:-1]
        yield "".join(pick(parts)), lines


def _tail_table(tail: list, cuts: list[int], runs: list, flags: bytearray) -> tuple:
    """For the entry state in ``flags``: the getter of a head tree's block from
    its parts, the block's line count, and the first line end the getter picks."""
    closing, token, low = len(runs), 2 * len(runs), len(cuts)
    picks: list[int] = []
    for lines, flags in enumerate(_walk(tail, flags), 1):
        last = max((j for j, p in enumerate(cuts) if flags[p]), default=-1)
        for j in range(last + 1):
            if runs[j]:
                picks.append(j)
            if j < last and flags[cuts[j]]:
                picks.append(token + j)
        picks += (closing + last + 1, token + len(cuts))
        low = min(low, last + 1)
    return itemgetter(*picks), lines, low


def _levels(c: TwoTreeConstruction) -> tuple[list[Edge], list, bytearray]:
    """The sorted edges, the level of each attachment, and the flags of the
    base edge's tree; a flag's index is its edge's rank in the sorted edges."""
    by_id = c.edges_by_id()
    order = sorted(range(len(by_id)), key=by_id.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    steps = [(rank[j], rank[j + 1], rank[p]) for j, p in zip(range(1, len(by_id), 2), c.parent)]
    flags = bytearray(len(by_id))
    flags[rank[0]] = 1
    return [by_id[i] for i in order], steps, flags


def _walk(steps: list[tuple[int, int, int]], flags: bytearray) -> Iterator[bytearray]:
    """Depth-first walk over the choice vectors of ``steps``, on ``flags``.

    Yields ``flags``, updated in place (read them before the next), once per
    full choice vector, and leaves them as it found them.  Each level's
    choices, in order, are vx, vy, and (when xy is in the tree) the split.
    """
    depth = len(steps)
    tried = [0] * depth  # choices taken so far at each level
    level = 0
    while True:
        if level == depth:
            yield flags
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
