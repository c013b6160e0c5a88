"""Text formats for graphs, constructions, and tree streams.

Edge-list format::

    n m
    u v          (m lines, 0 <= u < v < n)

Construction format::

    n
    v x y        (n-2 lines: vertex v attached to edge {x, y}, in build order)

The two base vertices are the ones never introduced by an attachment line.
Tree streams carry one tree per line ("u-v" tokens, canonically sorted) after
a header line ``# n=<n> expected=<count>``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FormatError, NotTwoTreeError
from .graph import Edge, SimpleGraph, TwoTreeConstruction, edge


def serialize_edge_list(g: SimpleGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, two_tree: bool = False) -> SimpleGraph:
    """Parse an edge list.

    With ``two_tree``, a header whose m is not 2n - 3 (for n >= 2) raises
    NotTwoTreeError before the graph's n adjacency sets are allocated.
    """
    rows = _data_lines(text)
    if not rows:
        raise FormatError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"edge-list header must be 'n m', got {rows[0]!r}")
    n, m = _int(head[0]), _int(head[1])
    if len(rows) - 1 != m:
        raise FormatError(f"header promises {m} edges, found {len(rows) - 1}")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {row!r}")
        u, v = _int(parts[0]), _int(parts[1])
        if not (0 <= u < v < n):
            raise FormatError(f"edge line {row!r} violates 0 <= u < v < n={n}")
        e = (u, v)
        if e in seen:
            raise FormatError(f"duplicate edge {row!r}")
        seen.add(e)
        edges.append(e)
    if two_tree and n >= 2 and m != 2 * n - 3:
        raise NotTwoTreeError.wrong_edge_count(n, m)
    return SimpleGraph.from_edges(n, edges)


def serialize_construction(c: TwoTreeConstruction) -> str:
    lines = [str(c.n)]
    lines.extend(f"{v} {x} {y}" for v, (x, y) in c.attachments)
    return "\n".join(lines) + "\n"


def parse_construction(text: str) -> TwoTreeConstruction:
    rows = _data_lines(text)
    if not rows:
        raise FormatError("empty construction input")
    if len(rows[0].split()) != 1:
        raise FormatError(f"construction header must be a single 'n', got {rows[0]!r}")
    n = _int(rows[0])
    if len(rows) - 1 != max(n - 2, 0):
        raise FormatError(f"expected {n - 2} attachment lines, found {len(rows) - 1}")
    attachments: list[tuple[int, Edge]] = []
    introduced: set[int] = set()
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 3:
            raise FormatError(f"attachment line must be 'v x y', got {row!r}")
        v, x, y = (_int(p) for p in parts)
        if not all(0 <= w < n for w in (v, x, y)):
            raise FormatError(f"attachment line {row!r} outside vertex range [0, {n})")
        if x == y:
            raise FormatError(f"attachment line {row!r} names a loop edge")
        introduced.add(v)
        attachments.append((v, edge(x, y)))
    base_vertices = sorted(set(range(n)) - introduced)
    if len(base_vertices) != 2:
        raise FormatError(
            "exactly two vertices must never be introduced (the base edge), "
            f"found {len(base_vertices)}"
        )
    return TwoTreeConstruction(n, (base_vertices[0], base_vertices[1]), tuple(attachments))


def sniff_and_parse(
    text: str, two_tree: bool = False
) -> SimpleGraph | TwoTreeConstruction:
    """Parse either supported format, keyed off the header token count.

    ``two_tree`` is passed on to :func:`parse_edge_list`.
    """
    rows = _data_lines(text)
    if not rows:
        raise FormatError("empty input")
    width = len(rows[0].split())
    if width == 2:
        return parse_edge_list(text, two_tree)
    if width == 1:
        return parse_construction(text)
    raise FormatError(f"unrecognised header line {rows[0]!r}")


def serialize_tree(tree: Iterable[Edge]) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(tree))


def tree_stream_header(n: int, expected: int | None) -> str:
    return f"# n={n} expected={expected if expected is not None else 'unknown'}"


def parse_tree_line(line: str) -> frozenset:
    out = []
    for token in line.split():
        parts = token.split("-")
        if len(parts) != 2:
            raise FormatError(f"bad tree token {token!r}")
        u, v = _int(parts[0]), _int(parts[1])
        if u == v:
            raise FormatError(f"tree token {token!r} is a loop")
        out.append(edge(u, v))
    return frozenset(out)


def _data_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}") from None
