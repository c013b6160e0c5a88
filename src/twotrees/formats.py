"""Text formats for graphs, constructions, and tree streams.

Edge-list format::

    n m
    u v          (m lines, 0 <= u < v < n)

Construction format::

    n
    v x y        (n-2 lines: vertex v attached to edge {x, y}, in build order)

The two base vertices are the ones never introduced by an attachment line.
An edge list parses to ``(n, edges)`` with no graph built, so a header's n
costs nothing until the caller checks it; a construction parses to a checked
``TwoTreeConstruction``.  Tree streams, which are written and never read back,
carry one tree per line ("u-v" tokens, canonically sorted) after a header line
``# n=<n> expected=<count>``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FormatError
from .graph import Edge, SimpleGraph, TwoTreeConstruction, edge


def serialize_edge_list(g: SimpleGraph | TwoTreeConstruction) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> tuple[int, list[Edge]]:
    """Validate an edge list; its n and edges, with nothing sized by n built."""
    rows = list(_data_lines(text))
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
    return n, edges


def serialize_construction(c: TwoTreeConstruction) -> str:
    lines = [str(c.n)]
    lines.extend(f"{v} {x} {y}" for v, (x, y) in c.attachments)
    return "\n".join(lines) + "\n"


def parse_construction(text: str) -> TwoTreeConstruction:
    rows = list(_data_lines(text))
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


def sniff_and_parse(text: str) -> TwoTreeConstruction | tuple[int, list[Edge]]:
    """Parse either supported format, keyed off the header token count.

    Only the lines up to the header are stripped here; the parser chosen makes
    the one full pass.  An edge list comes back as ``(n, edges)``.
    """
    header = next(_data_lines(text), None)
    if header is None:
        raise FormatError("empty input")
    width = len(header.split())
    if width not in (1, 2):
        raise FormatError(f"unrecognised header line {header!r}")
    return parse_edge_list(text) if width == 2 else parse_construction(text)


def serialize_tree(tree: Iterable[Edge]) -> str:
    return " ".join(edge_tokens(sorted(tree)))


def edge_tokens(edges: Iterable[Edge]) -> list[str]:
    """The tree-stream token ``u-v`` of each edge, in the order given."""
    return [f"{u}-{v}" for u, v in edges]


def tree_stream_header(n: int, expected: int) -> str:
    return f"# n={n} expected={decimal(expected)}"


_BLOCK_DIGITS = 4000
_BLOCK = 10**_BLOCK_DIGITS


def decimal(count: int) -> str:
    """The decimal digits of a nonnegative count of any length.

    ``str`` refuses ints past 4,300 digits (a guard for parsing, which stays
    in force for inputs), and 2-trees past about 10^4 vertices have longer
    counts, so long ones are written in 4,000-digit blocks.
    """
    blocks = []
    while count >= _BLOCK:
        count, low = divmod(count, _BLOCK)
        blocks.append(str(low).zfill(_BLOCK_DIGITS))
    blocks.append(str(count))
    return "".join(reversed(blocks))


def _data_lines(text: str) -> Iterator[str]:
    """The stripped lines of ``text`` that are neither blank nor comments, lazily."""
    return (row for row in map(str.strip, text.splitlines()) if row and not row.startswith("#"))


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}") from None
