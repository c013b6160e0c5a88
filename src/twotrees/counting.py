"""Exact spanning-tree counts: closed forms, chain recurrences, and oracles.

Counts grow like 2.618^n, so all arithmetic is on exact integers.  A 2-tree
is counted in O(n) big-integer steps by series-parallel reduction on its build
order (Takamizawa, Nishizeki and Saito, JACM 1982; Wald and Colbourn, Networks
1983).  Edge {x, y} carries (a, b) for the piece hung on it: ``a`` spanning
trees, ``b`` 2-forests separating x from y; a plain edge starts at (1, 1), a
required one at (1, 0).  Peeling in reverse build order, vertex v on {x, y}
joins its two edges in series, (a1 a2, a1 b2 + b1 a2), then that pair in
parallel into {x, y}, (a b3 + b a3, b b3); the base edge's ``a`` is the count.
Kirchhoff (Bareiss) and the subset brute force stay as independent oracles.

Chain growth (each new vertex glued onto an edge incident to the previous
one) satisfies ``t_p = 2 t_{p-1} + s_{p-1}`` and ``s_p = t_{p-1} + s_{p-1}``
with ``t`` the total count and ``s`` the count through the newest tip edge,
which closes to Fibonacci combinations of the seed values:

    t_p = F(2p+1) * alpha + F(2p) * beta
    s_p = F(2p)   * alpha + F(2p-1) * beta

with the convention F(-1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import (
    CyclicRequirementError,
    ForeignEdgeError,
    InconsistentChainError,
    InvalidConstructionError,
    OutOfRangeError,
    TooLargeError,
)
from .graph import Edge, SimpleGraph, TwoTreeConstruction, edge, spanning_forest_components

BRUTE_FORCE_EDGE_LIMIT = 25


def fibonacci(k: int) -> int:
    """F(k) with F(-1) = 1, F(0) = 0, F(1) = 1."""
    if k < -1:
        raise OutOfRangeError(f"fibonacci index must be >= -1, got {k}")
    prev, cur = 1, 0  # F(-1), F(0)
    for _ in range(k):
        prev, cur = cur, prev + cur
    return cur if k >= 0 else prev


def count_book(n: int) -> int:
    """n * 2^(n-3) spanning trees of the n-page book; 1 for n = 2."""
    if n < 2:
        raise OutOfRangeError(f"count_book needs n >= 2, got {n}")
    if n == 2:
        return 1
    return n * 2 ** (n - 3)


def count_two_simplicial(n: int) -> int:
    """F(2n-2): the count shared by every 2-tree with two degree-2 vertices."""
    if n < 2:
        raise OutOfRangeError(f"count_two_simplicial needs n >= 2, got {n}")
    return fibonacci(2 * n - 2)


@dataclass(frozen=True)
class ChainState:
    """Tree counts along a chain grown edge by edge from a seeded host.

    ``alpha``/``beta`` are the host totals (all trees / trees through the
    start edge); ``total`` and ``tip`` are the same two quantities after
    ``steps`` single-vertex extensions.  ``beta <= alpha`` always, and the
    Fibonacci closed forms above are enforced as an invariant.
    """

    alpha: int
    beta: int
    steps: int
    total: int
    tip: int

    def __post_init__(self):
        if not (0 <= self.beta <= self.alpha):
            raise OutOfRangeError(
                f"need 0 <= beta <= alpha, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.steps < 0:
            raise OutOfRangeError(f"steps must be nonnegative, got {self.steps}")
        p = self.steps
        want_total = fibonacci(2 * p + 1) * self.alpha + fibonacci(2 * p) * self.beta
        want_tip = fibonacci(2 * p) * self.alpha + fibonacci(2 * p - 1) * self.beta
        if self.total != want_total or self.tip != want_tip:
            raise InconsistentChainError(
                f"inconsistent chain state at steps={p}: "
                f"({self.total}, {self.tip}) != ({want_total}, {want_tip})"
            )

    @staticmethod
    def start(alpha: int, beta: int) -> ChainState:
        return ChainState(alpha, beta, 0, alpha, beta)


def chain_step(state: ChainState) -> ChainState:
    """Advance one chain extension: total' = 2*total + tip, tip' = total + tip."""
    return ChainState(
        state.alpha,
        state.beta,
        state.steps + 1,
        2 * state.total + state.tip,
        state.total + state.tip,
    )


def chain_edge_counts(alpha: int, beta: int, p: int) -> tuple[int, int, int]:
    """Closed-form edge-constrained counts after ``p`` chain extensions.

    Returns ``(through_start, through_first_side, through_tip)``:

    * trees through the original start edge:        F(2p+1) * beta
    * trees through the first vertex's unused side: F(2p-1) * alpha + F(2p) * beta
    * trees through the tip edge:                   F(2p)   * alpha + F(2p-1) * beta

    The tip count exceeds the start count whenever ``alpha > beta`` (true for
    any host with at least 3 vertices), and exceeds the side count whenever
    additionally ``p >= 2``; at ``p = 1`` the tip and the unused side are
    interchangeable, so those two counts coincide.
    """
    if p < 1:
        raise OutOfRangeError(f"chain_edge_counts needs p >= 1, got {p}")
    if not (0 <= beta <= alpha):
        raise OutOfRangeError(f"need 0 <= beta <= alpha, got ({alpha}, {beta})")
    through_start = fibonacci(2 * p + 1) * beta
    through_side = fibonacci(2 * p - 1) * alpha + fibonacci(2 * p) * beta
    through_tip = fibonacci(2 * p) * alpha + fibonacci(2 * p - 1) * beta
    return through_start, through_side, through_tip


@dataclass(frozen=True)
class EdgeCountQuery:
    """A graph plus an acyclic required edge set, validated on construction."""

    graph: SimpleGraph
    required: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "required", tuple(edge(*e) for e in self.required)
        )
        for u, v in self.required:
            if not (0 <= u < self.graph.n and v in self.graph.adj[u]):
                raise ForeignEdgeError(f"required edge ({u}, {v}) not in graph")
        if spanning_forest_components(self.graph.n, set(self.required)) is None:
            raise CyclicRequirementError("required edges contain a cycle")

    def count(self) -> int:
        return count_containing(self.graph, self.required)


def kirchhoff_count(g: SimpleGraph) -> int:
    """Spanning-tree count as a Laplacian cofactor, exactly; 0 if disconnected."""
    if g.n < 1:
        raise OutOfRangeError("kirchhoff_count needs at least one vertex")
    if g.n == 1:
        return 1
    if g.m < g.n - 1:  # too few edges to connect; skip the (n-1)^2 matrix
        return 0
    weights = {e: 1 for e in g.edges()}
    return _multigraph_tree_count(g.n, weights)


def count_containing(g: SimpleGraph, required: Iterable[Edge]) -> int:
    """Number of spanning trees of ``g`` containing every edge of ``required``.

    Contracts the required edges (keeping parallel-edge multiplicities,
    dropping loops) and applies the cofactor count to the quotient.
    """
    req = [edge(*e) for e in required]
    for u, v in req:
        if not (0 <= u < g.n and v in g.adj[u]):
            raise ForeignEdgeError(f"required edge ({u}, {v}) not in graph")
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in set(req):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CyclicRequirementError(f"required edges contain a cycle at ({u}, {v})")
        parent[ru] = rv

    roots = sorted({find(v) for v in range(g.n)})
    index = {r: i for i, r in enumerate(roots)}
    weights: dict[Edge, int] = {}
    for u, v in g.edges():
        ru, rv = index[find(u)], index[find(v)]
        if ru == rv:
            continue
        e = edge(ru, rv)
        weights[e] = weights.get(e, 0) + 1
    return _multigraph_tree_count(len(roots), weights)


def brute_force_count(g: SimpleGraph) -> int:
    """Independent oracle: count (n-1)-edge subsets forming spanning trees."""
    edges = g.edges()
    if len(edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(
            f"brute force capped at {BRUTE_FORCE_EDGE_LIMIT} edges, graph has {len(edges)}"
        )
    n = g.n
    if n == 1:
        return 1
    if len(edges) < n - 1:
        return 0
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))
        ok = True
        for u, v in subset:
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if ok:
            count += 1
    return count


def count_via_construction(c: TwoTreeConstruction, required: Iterable[Edge] = ()) -> int:
    """Trees of ``c.realize()`` through every ``required`` edge, in O(n) steps."""
    pair = {c.base: (1, 1)}
    for v, (x, y) in c.attachments:
        if (x, y) not in pair:
            raise InvalidConstructionError(f"attach edge {(x, y)} absent when vertex {v} is added")
        pair[edge(v, x)] = pair[edge(v, y)] = (1, 1)
    req = {edge(*e) for e in required}
    if req.difference(pair):
        raise ForeignEdgeError(f"required edge {min(req.difference(pair))} not in graph")
    if spanning_forest_components(c.n, req) is None:
        raise CyclicRequirementError("required edges contain a cycle")
    pair.update(dict.fromkeys(req, (1, 0)))
    for v, (x, y) in reversed(c.attachments):
        (a1, b1), (a2, b2), (a3, b3) = pair.pop(edge(v, x)), pair.pop(edge(v, y)), pair[(x, y)]
        a, b = a1 * a2, a1 * b2 + b1 * a2  # series: the two edges at v
        pair[(x, y)] = (a * b3 + b * a3, b * b3)  # parallel into the attach edge
    return pair[c.base][0]


def verify_bounds(g: SimpleGraph) -> tuple[bool, bool]:
    """Check 2^(n-2) <= T(g) <= 3^(n-2) for a 2-tree g."""
    from .recognition import recognize

    recognize(g)
    t = kirchhoff_count(g)
    n = g.n
    return (2 ** (n - 2) <= t, t <= 3 ** (n - 2))


def count_containing_or_zero(g: SimpleGraph, required: Iterable[Edge]) -> int:
    """Like :func:`count_containing` but 0 when the requirement is cyclic."""
    try:
        return count_containing(g, required)
    except CyclicRequirementError:
        return 0


def _multigraph_tree_count(k: int, weights: dict[Edge, int]) -> int:
    """Cofactor of the integer-weighted Laplacian on k vertices."""
    if k <= 1:
        return 1
    size = k - 1
    lap = [[0] * size for _ in range(size)]
    for (u, v), w in weights.items():
        if u > 0:
            lap[u - 1][u - 1] += w
        if v > 0:
            lap[v - 1][v - 1] += w
        if u > 0 and v > 0:
            lap[u - 1][v - 1] -= w
            lap[v - 1][u - 1] -= w
    return _det_bareiss(lap)


def _det_bareiss(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination with row pivoting."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]
