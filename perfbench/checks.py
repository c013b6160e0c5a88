"""Output checks for the benchmark, written independently of the twotrees package.

Every checker returns ``None`` when the output is correct and a short reason
string when it is not; the runner counts any reason as one failed invocation.
Graphs are plain ``(n, edges)`` pairs with canonical ``(u, v)``, ``u < v``.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Sequence

Edge = tuple[int, int]


def edge_list_text(n: int, edges: Iterable[Edge]) -> str:
    """The twotrees edge-list format: ``n m`` then one sorted ``u v`` per line."""
    es = sorted(edges)
    return "".join([f"{n} {len(es)}\n"] + [f"{u} {v}\n" for u, v in es])


def parse_edge_list(text: str) -> tuple[int, list[Edge]] | None:
    """``(n, edges)`` from an edge list, or None when the text is malformed."""
    try:
        rows = [list(map(int, line.split())) for line in text.splitlines() if line.strip()]
    except ValueError:
        return None
    if not rows or len(rows[0]) != 2 or rows[0][1] != len(rows) - 1:
        return None
    n = rows[0][0]
    edges = []
    for row in rows[1:]:
        if len(row) != 2 or not 0 <= row[0] < row[1] < n:
            return None
        edges.append((row[0], row[1]))
    return n, edges


def _adjacency(n: int, edges: Iterable[Edge]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_order(text: str, n: int, edges: Sequence[Edge]) -> str | None:
    """A deletion order: a permutation of 0..n-1 where each of the first n-2
    vertices has, when deleted, exactly two live neighbours, and they are adjacent."""
    try:
        order = [int(tok) for tok in text.split()]
    except ValueError:
        return "order has a non-integer token"
    if sorted(order) != list(range(n)):
        return "order is not a permutation of 0..n-1"
    adj = _adjacency(n, edges)
    for v in order[:-2]:
        if len(adj[v]) != 2:
            return f"vertex {v} has {len(adj[v])} live neighbours when deleted"
        a, b = adj[v]
        if b not in adj[a]:
            return f"the live neighbours of vertex {v} are not adjacent"
        adj[a].discard(v)
        adj[b].discard(v)
        adj[v].clear()
    a, b = order[-2:]
    if b not in adj[a]:
        return "the last two vertices are not adjacent"
    return None


def peel_order(n: int, edges: Sequence[Edge]) -> list[int] | None:
    """A deletion order of a 2-tree found by greedy peeling, or None if the
    graph is not a 2-tree.  Deleting any simplicial degree-2 vertex of a
    2-tree leaves a 2-tree, so the greedy choice never blocks."""
    if n < 2 or len(edges) != 2 * n - 3 or len(set(edges)) != len(edges):
        return None
    adj = _adjacency(n, edges)
    stack = [v for v in range(n) if len(adj[v]) == 2]
    order: list[int] = []
    deleted = [False] * n
    while stack and len(order) < n - 2:
        v = stack.pop()
        if deleted[v] or len(adj[v]) != 2:
            continue
        a, b = adj[v]
        if b not in adj[a]:
            continue
        for w in (a, b):
            adj[w].discard(v)
            if len(adj[w]) == 2:
                stack.append(w)
        adj[v].clear()
        deleted[v] = True
        order.append(v)
    if len(order) != n - 2:
        return None
    rest = [v for v in range(n) if not deleted[v]]
    if rest[1] not in adj[rest[0]]:
        return None
    return order + rest


def check_tree_stream(
    text: str,
    n: int,
    edges: Sequence[Edge],
    expected_total: int,
    limit: int | None = None,
) -> str | None:
    """A tree stream: the header carries ``expected_total``; there are
    ``min(expected_total, limit)`` lines; each line is a canonical (sorted)
    spanning tree of the graph, and no two lines are equal."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "stream does not end with a newline"
    lines.pop()
    if not lines or lines[0] != f"# n={n} expected={expected_total}":
        return f"bad header {lines[0] if lines else ''!r}"
    want = expected_total if limit is None else min(expected_total, limit)
    body = lines[1:]
    if len(body) != want:
        return f"{len(body)} tree lines, expected {want}"
    if len(set(body)) != len(body):
        return "a tree line repeats"
    rank = {f"{u}-{v}": (i, u, v) for i, (u, v) in enumerate(sorted(edges))}
    for number, line in enumerate(body, 1):
        reason = _tree_line_reason(line, n, rank)
        if reason is not None:
            return f"tree line {number}: {reason}"
    return None


def _tree_line_reason(line: str, n: int, rank: dict[str, tuple[int, int, int]]) -> str | None:
    try:
        ranked = [rank[tok] for tok in line.split(" ")]
    except KeyError:
        return "token is not an edge of the graph"
    if len(ranked) != n - 1:
        return f"{len(ranked)} edges, a spanning tree has {n - 1}"
    parent = list(range(n))
    last = -1
    for i, u, v in ranked:
        if i <= last:
            return "edges are not in sorted order"
        last = i
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return "edges contain a cycle"
        parent[u] = v
    return None


def check_count(text: str, expected: int, n: int) -> str | None:
    """One decimal count equal to ``expected`` and within [2^(n-2), 3^(n-2)]."""
    if text != f"{expected}\n":
        return f"count {text.strip()!r} differs from {expected}"
    if not 2 ** (n - 2) <= expected <= 3 ** (n - 2):
        return f"count {expected} outside [2^{n - 2}, 3^{n - 2}]"
    return None


def check_improve(
    direction: str,
    stdout: str,
    out_text: str,
    t_g: int,
    count: Callable[[int, list[Edge]], int],
) -> str | None:
    """``improve`` moved the count the right way from ``t_g``, and its output
    graph is a 2-tree whose count (by ``count``) is the reported one."""
    try:
        report = json.loads(stdout)
        if direction == "min":
            before, after = int(report["t_g"]), int(report["winner_count"])
        else:
            before, after = int(report["t_g"]), int(report["t_gprime"])
    except (ValueError, KeyError, TypeError):
        return "report is not the expected JSON object"
    if before != t_g:
        return f"reported t_g {before} differs from {t_g}"
    if direction == "min" and not after < before:
        return f"min did not decrease the count ({after} >= {before})"
    if direction == "max" and not after > before:
        return f"max did not increase the count ({after} <= {before})"
    parsed = parse_edge_list(out_text)
    if parsed is None:
        return "output graph is not a valid edge list"
    n, edges = parsed
    if peel_order(n, edges) is None:
        return "output graph is not a 2-tree"
    if count(n, edges) != after:
        return "output graph's count differs from the reported count"
    return None


def check_verify(stdout: str, n_checks: int) -> str | None:
    """``n_checks`` lines, each a ``[PASS]``."""
    lines = stdout.splitlines()
    if len(lines) != n_checks:
        return f"{len(lines)} check lines, expected {n_checks}"
    for line in lines:
        if not line.startswith("[PASS] "):
            return f"check did not pass: {line!r}"
    return None
