"""Text formats for graphs, constructions, and tree streams.

Edge-list format::

    n m
    u v          (m lines, 0 <= u < v < n)

Construction format::

    n
    v x y        (n-2 lines: vertex v attached to edge {x, y}, in build order)

The two base vertices are the ones never introduced by an attachment line.
An edge list parses in one pass over its lines, read lazily, to ``(n, codes)``:
its edges as one set of codes u·n + v, with no line list, no edge list and
nothing sized by n built, so a header's n costs nothing until the caller
checks it.  A construction parses to a checked ``TwoTreeConstruction``.  Tree
streams, which are written and never read back, carry one tree per line
("u-v" tokens, canonically sorted) after a header line ``# n=<n> expected=<count>``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FormatError
from .graph import Edge, SimpleGraph, TwoTreeConstruction, _EdgeCodes, edge


def serialize_edge_list(g: SimpleGraph | TwoTreeConstruction) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> tuple[int, _EdgeCodes]:
    """Validate an edge list; its n and its edges as codes u·n + v (u < v).

    Header errors come first, then a line count other than m, then the first
    bad line, which is held until the lines have been counted.
    """
    rows = _data_lines(text)
    header = next(rows, None)
    if header is None:
        raise FormatError("empty edge-list input")
    head = header.split()
    if len(head) != 2:
        raise FormatError(f"edge-list header must be 'n m', got {header!r}")
    n, m = _int(head[0]), _int(head[1])
    codes, found, bad = _EdgeCodes(), 0, None
    try:
        for row in rows:
            found += 1
            parts = row.split()
            if len(parts) != 2:
                raise FormatError(f"edge line must be 'u v', got {row!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                u, v = _int(parts[0]), _int(parts[1])  # raises for the first bad token
            if not (0 <= u < v < n):
                raise FormatError(f"edge line {row!r} violates 0 <= u < v < n={n}")
            code = u * n + v
            if code in codes:
                raise FormatError(f"duplicate edge {row!r}")
            codes.add(code)
    except FormatError as exc:
        bad = exc
        found += sum(1 for _ in rows)
    if found != m:
        raise FormatError(f"header promises {m} edges, found {found}")
    if bad is not None:
        raise bad
    return n, codes


def serialize_construction(c: TwoTreeConstruction) -> str:
    """The construction file of ``c``, written from its build order a block of
    steps at a time: each step's vertex and the ends of its attach edge's id."""
    by_id, blocks = c.edges_by_id(), [f"{c.n}\n"]
    for start in range(0, c.n - 2, _STEP_BLOCK):
        steps = slice(start, start + _STEP_BLOCK)
        ends = map(by_id.__getitem__, c.parent[steps])
        blocks.append("".join([f"{v} {x} {y}\n" for v, (x, y) in zip(c.order[steps], ends)]))
    return "".join(blocks)


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
        if v in introduced:
            raise FormatError(f"attachment line {row!r} introduces vertex {v} a second time")
        introduced.add(v)
        attachments.append((v, edge(x, y)))
    base_vertices = sorted(set(range(n)) - introduced)
    if len(base_vertices) != 2:
        raise FormatError(
            "exactly two vertices must never be introduced (the base edge), "
            f"found {len(base_vertices)}"
        )
    return TwoTreeConstruction(n, (base_vertices[0], base_vertices[1]), tuple(attachments))


def sniff_and_parse(text: str) -> TwoTreeConstruction | tuple[int, _EdgeCodes]:
    """Parse either supported format, keyed off the header token count.

    Only the lines up to the header are stripped here; the parser chosen makes
    the one full pass.  An edge list comes back as ``(n, codes)``.
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


_LINE_BLOCK = 1 << 16
_STEP_BLOCK = 1 << 12


def _data_lines(text: str) -> Iterator[str]:
    """The stripped lines of ``text`` that are neither blank nor comments, lazily:
    ``str.splitlines`` on one block of whole lines at a time, each cut just after
    a newline, which always ends a line."""
    start = 0
    while start < len(text):
        end = text.rfind("\n", start, start + _LINE_BLOCK) + 1 or len(text)
        yield from [row for row in map(str.strip, text[start:end].splitlines()) if row and row[0] != "#"]
        start = end


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}") from None
