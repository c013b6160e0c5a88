"""Count-decreasing splits, count-increasing reattachments, and corpus sweeps.

Two constructive surgeries drive the extremal picture:

* ``improve_min``: pick two degree-2 vertices whose neighbourhoods differ,
  and re-home both onto one of the two neighbourhoods.  With H the graph
  minus the pair, b_i the trees of H through each neighbourhood edge and
  g the trees of H through both, the counts obey

      T(G)   = 4 T(H) + 2 b1 + 2 b2 + g
      T(G_i) = 4 T(H) + 4 b_i

  so T(G_1) + T(G_2) = 2 T(G) - 2 g < 2 T(G) and the smaller side strictly
  beats G.  Books have no such vertex pair, and they are exactly the graphs
  this walk terminates on.

* ``improve_max``: in a graph with more than two degree-2 vertices, peel
  every surplus one, read off the Hamiltonian-path ordering of the core,
  detach the hanging piece glued highest along that path, and re-glue it at
  the tip edge next to the path's end.  The tip edge lies in strictly more
  spanning trees of the kept part than the old glue edge does, and the tree
  count of a glued pair is strictly increasing in that quantity, so the
  rewired graph strictly beats the original.

``survey_extremal`` runs both classifications over every distinct small
labeled 2-tree and reports the attained extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .counting import (
    count_containing_or_zero,
    count_book,
    count_two_simplicial,
    count_via_construction,
    kirchhoff_count,
)
from .errors import (
    AlreadyTwoSimplicialError,
    BadGlueError,
    CyclicRequirementError,
    ForeignEdgeError,
    InvariantError,
    IsBookError,
    OutOfRangeError,
    TooLargeError,
)
from .generators import all_labeled_two_trees
from .graph import Edge, SimpleGraph, edge, spanning_forest_components
from .recognition import is_book, recognize


@dataclass(frozen=True)
class SplitReport:
    """Outcome of one count-decreasing split."""

    graph_h: SimpleGraph  # the two degree-2 vertices removed, labels compacted
    beta1: int
    beta2: int
    gamma: int
    t_g: int
    t_g1: int
    t_g2: int
    winner: int  # 1 or 2: which re-homed graph has fewer trees (ties -> 1)
    graph_g1: SimpleGraph
    graph_g2: SimpleGraph

    @property
    def winner_graph(self) -> SimpleGraph:
        return self.graph_g1 if self.winner == 1 else self.graph_g2

    @property
    def winner_count(self) -> int:
        return self.t_g1 if self.winner == 1 else self.t_g2


@dataclass(frozen=True)
class SurgeryReport:
    """Outcome of one count-increasing reattachment."""

    crucial_edge: Edge  # where the moved piece was glued, original labels
    p: int  # chain length between the new glue edge and the old one
    subtree_j: SimpleGraph  # the moved piece, labels compacted
    g_prime: SimpleGraph  # rewired graph, original labels
    t_g: int
    t_gprime: int


def improve_min(g: SimpleGraph) -> SplitReport:
    """Strictly decrease the spanning-tree count of a non-book 2-tree."""
    c = recognize(g)
    if g.n >= 3 and is_book(g):
        raise IsBookError("every pair of degree-2 vertices shares a neighbourhood")
    if g.n < 5:
        raise OutOfRangeError(f"improve_min needs n >= 5, got {g.n}")

    simp = [v for v in range(g.n) if g.degree(v) == 2]
    pair = next(
        (v1, v2)
        for i, v1 in enumerate(simp)
        for v2 in simp[i + 1 :]
        if g.neighbors(v1) != g.neighbors(v2)
    )
    v1, v2 = pair
    e1 = edge(*g.neighbors(v1))
    e2 = edge(*g.neighbors(v2))

    h, remap = g.induced_compact(set(range(g.n)) - {v1, v2})
    h_e1 = edge(remap[e1[0]], remap[e1[1]])
    h_e2 = edge(remap[e2[0]], remap[e2[1]])
    c_h = recognize(h)
    t_h = count_via_construction(c_h)
    beta1 = count_via_construction(c_h, [h_e1])
    beta2 = count_via_construction(c_h, [h_e2])
    gamma = count_via_construction(c_h, [h_e1, h_e2])

    g1 = _rehome_pair(g, v1, v2, e1)
    g2 = _rehome_pair(g, v1, v2, e2)
    t_g = count_via_construction(c)
    t_g1 = count_via_construction(recognize(g1))
    t_g2 = count_via_construction(recognize(g2))

    # The derivation above must hold exactly; a mismatch is an internal bug.
    _check(t_g == 4 * t_h + 2 * beta1 + 2 * beta2 + gamma, "T(G) = 4T(H) + 2b1 + 2b2 + g")
    _check(t_g1 == 4 * t_h + 4 * beta1, "T(G1) = 4T(H) + 4b1")
    _check(t_g2 == 4 * t_h + 4 * beta2, "T(G2) = 4T(H) + 4b2")
    _check(gamma >= 1 and t_g1 + t_g2 < 2 * t_g, "T(G1) + T(G2) < 2T(G)")

    winner = 1 if t_g1 <= t_g2 else 2
    return SplitReport(h, beta1, beta2, gamma, t_g, t_g1, t_g2, winner, g1, g2)


def improve_max(g: SimpleGraph) -> SurgeryReport:
    """Strictly increase the spanning-tree count when >2 degree-2 vertices exist."""
    c = recognize(g)
    simp = [v for v in range(g.n) if g.degree(v) == 2]
    if g.n >= 3 and len(simp) == 2:
        raise AlreadyTwoSimplicialError("graph already has exactly two degree-2 vertices")
    if g.n < 5:
        raise OutOfRangeError(f"improve_max needs n >= 5, got {g.n}")

    v, v_prime = simp[0], simp[1]
    core, deletions = _peel_to_core(g, v, v_prime)

    # Hamiltonian-path ordering of the core, from v down to v_prime.
    order = _core_path_order(g, core, v, v_prime)
    q = len(order)
    pos = {vertex: q - i for i, vertex in enumerate(order)}  # order[0]=v has pos q

    hanging = _hanging_pieces(core, deletions)
    attach_positions = _attach_edge_positions(g, order, pos)

    def edge_index(f: Edge) -> int:
        by_attach = attach_positions.get(f, 0)
        by_endpoint = max(pos[f[0]], pos[f[1]])
        return max(by_attach, by_endpoint)

    j_star = max(edge_index(f) for f in hanging)
    at_peak = [f for f in hanging if edge_index(f) == j_star]
    v_j = order[q - j_star]
    # Prefer the hanging edge incident to the peak vertex over its attach edge.
    incident = [f for f in at_peak if v_j in f]
    crucial = min(incident) if incident else min(at_peak)

    p = q - j_star + 1
    interior = hanging[crucial]

    kept = set(range(g.n)) - set(interior)
    tip = edge(v, min(g.neighbors(v)))
    g_prime = _reattach(g, kept, interior, crucial, tip)

    t_g = count_via_construction(c)
    t_gprime = count_via_construction(recognize(g_prime))
    _check(t_gprime > t_g, "T(G') > T(G) after the reattachment")

    piece, _ = g.induced_compact(set(interior) | {crucial[0], crucial[1]})
    return SurgeryReport(crucial, p, piece, g_prime, t_g, t_gprime)


def glue(h: SimpleGraph, j: SimpleGraph, shared: Edge) -> tuple[SimpleGraph, dict[int, int]]:
    """Union of two graphs overlapping in exactly one common edge.

    ``shared`` must name an edge of both inputs under their own labels; the
    identification is pointwise on those two labels, and every other vertex
    of ``j`` is relabelled above ``h``'s range.  Returns the glued graph and
    the map from ``j``'s labels into it.
    """
    u, v = edge(*shared)
    if not (v < h.n and h.has_edge(u, v)):
        raise BadGlueError(f"shared edge ({u}, {v}) not an edge of the first graph")
    if not (v < j.n and j.has_edge(u, v)):
        raise BadGlueError(f"shared edge ({u}, {v}) not an edge of the second graph")
    mapping: dict[int, int] = {}
    fresh = h.n
    for w in range(j.n):
        if w == u or w == v:
            mapping[w] = w
        else:
            mapping[w] = fresh
            fresh += 1
    edges = set(h.edges())
    edges.update(edge(mapping[a], mapping[b]) for a, b in j.edges())
    return SimpleGraph.from_edges(h.n + j.n - 2, sorted(edges)), mapping


def align_for_glue(
    h: SimpleGraph, h_edge: Edge, j: SimpleGraph, j_edge: Edge
) -> tuple[SimpleGraph, SimpleGraph, Edge]:
    """Relabel both graphs so the chosen edges coincide on labels (0, 1).

    Convenience for building :func:`glue` inputs out of two independently
    labelled graphs and one picked edge of each.
    """
    return (
        relabel_edge_to_base(h, h_edge),
        relabel_edge_to_base(j, j_edge),
        (0, 1),
    )


def relabel_edge_to_base(g: SimpleGraph, e: Edge) -> SimpleGraph:
    """Permute labels so that ``e`` becomes the edge (0, 1)."""
    a, b = edge(*e)
    if not g.has_edge(a, b):
        raise BadGlueError(f"({a}, {b}) is not an edge of the graph")
    m = list(range(g.n))

    def send(src: int, dst: int) -> None:
        holder = m.index(dst)
        m[holder], m[src] = m[src], dst

    send(a, 0)
    send(b, 1)
    return SimpleGraph.from_edges(g.n, [edge(m[x], m[y]) for x, y in g.edges()])


def glue_identity_check(
    h: SimpleGraph, j: SimpleGraph, shared: Edge, required: Iterable[Edge]
) -> bool:
    """Verify the leaf-splitting count identities on a glued pair.

    Let v be the smallest degree-2 vertex of ``j`` off the shared edge, with
    neighbours {w, z} and e = wz.  With t and s the constrained counts of the
    glued graph minus v (through S, and through S plus e), the glued graph
    must satisfy, for S not containing e:

        T(S) = 2t + s    T(S+vw) = t + s    T(S+vz) = t + s    T(S+vw+vz) = s

    and for S containing e: 2s, s, s, 0.  Returns True iff all four hold.
    """
    recognize(h)
    recognize(j)
    shared = edge(*shared)
    full, mapping = glue(h, j, shared)

    off_shared = [
        w for w in range(j.n) if j.degree(w) == 2 and w not in shared
    ]
    if not off_shared:
        raise BadGlueError("second graph has no degree-2 vertex off the shared edge")
    v = min(off_shared)
    w, z = sorted(j.neighbors(v))
    e_j = edge(w, z)

    req = [edge(*e) for e in required]
    for a, b in req:
        if not (max(a, b) < j.n and j.has_edge(a, b)):
            raise ForeignEdgeError(f"required edge ({a}, {b}) not in the second graph")
        if v in (a, b):
            raise ForeignEdgeError(f"required edge ({a}, {b}) touches the split vertex")
    if spanning_forest_components(j.n, req) is None:
        raise CyclicRequirementError("required edge set contains a cycle")

    prime, prime_map = full.induced_compact(set(range(full.n)) - {mapping[v]})

    def to_full(e: Edge) -> Edge:
        return edge(mapping[e[0]], mapping[e[1]])

    def to_prime(e: Edge) -> Edge:
        return edge(prime_map[e[0]], prime_map[e[1]])

    s_full = [to_full(e) for e in req]
    e_full = to_full(e_j)
    vw_full = to_full(edge(v, w))
    vz_full = to_full(edge(v, z))

    t = count_containing_or_zero(prime, [to_prime(e) for e in s_full])
    if e_full in s_full:
        s_val = t
    else:
        s_val = count_containing_or_zero(prime, [to_prime(e) for e in s_full + [e_full]])

    if e_full in s_full:
        expected = (2 * s_val, s_val, s_val, 0)
    else:
        expected = (2 * t + s_val, t + s_val, t + s_val, s_val)

    got = (
        count_containing_or_zero(full, s_full),
        count_containing_or_zero(full, s_full + [vw_full]),
        count_containing_or_zero(full, s_full + [vz_full]),
        count_containing_or_zero(full, s_full + [vw_full, vz_full]),
    )
    return got == expected


@dataclass(frozen=True)
class ExtremalSurvey:
    """Minimum/maximum tree counts over all distinct small labeled 2-trees."""

    n: int
    corpus_size: int
    min_count: int
    max_count: int
    min_attainers_all_books: bool
    max_attainers_all_two_simplicial: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "corpus_size": self.corpus_size,
            "min": str(self.min_count),
            "max": str(self.max_count),
            "min_attainers_all_books": self.min_attainers_all_books,
            "max_attainers_all_two_simplicial": self.max_attainers_all_two_simplicial,
        }


def survey_extremal(n: int) -> ExtremalSurvey:
    """Sweep the exhaustive corpus and classify the extreme attainers."""
    if n < 4:
        raise OutOfRangeError(f"survey_extremal needs n >= 4, got {n}")
    if n > 8:
        raise TooLargeError(f"survey_extremal capped at n = 8, got {n}")
    corpus = all_labeled_two_trees(n)
    counts = [kirchhoff_count(g) for g in corpus]
    lo, hi = min(counts), max(counts)
    min_ok = all(
        _is_book_shape(g) for g, c in zip(corpus, counts) if c == lo
    )
    max_ok = all(
        _degree_two_count(g) == 2 for g, c in zip(corpus, counts) if c == hi
    )
    return ExtremalSurvey(n, len(corpus), lo, hi, min_ok, max_ok)


def expected_extremes(n: int) -> tuple[int, int]:
    """The proven extreme values for an n-vertex 2-tree."""
    return count_book(n), count_two_simplicial(n)


def _check(ok: bool, identity: str) -> None:
    """Raise InvariantError when a proven identity fails (survives python -O)."""
    if not ok:
        raise InvariantError(identity)


def _degree_two_count(g: SimpleGraph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 2)


def _is_book_shape(g: SimpleGraph) -> bool:
    return g.n == 3 or _degree_two_count(g) == g.n - 2


def _rehome_pair(g: SimpleGraph, v1: int, v2: int, target: Edge) -> SimpleGraph:
    """Both split vertices re-homed onto the endpoints of ``target``."""
    edges = [e for e in g.edges() if v1 not in e and v2 not in e]
    for v in (v1, v2):
        edges.append(edge(v, target[0]))
        edges.append(edge(v, target[1]))
    return SimpleGraph.from_edges(g.n, edges)


def _peel_to_core(
    g: SimpleGraph, v: int, v_prime: int
) -> tuple[set[int], list[tuple[int, Edge]]]:
    """Delete surplus degree-2 vertices (smallest first) until only v, v' remain."""
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    deletions: list[tuple[int, Edge]] = []
    while True:
        ready = [
            u
            for u in sorted(alive - {v, v_prime})
            if len(adj[u]) == 2 and _pair_adjacent(adj, u)
        ]
        if not ready:
            break
        u = ready[0]
        a, b = sorted(adj[u])
        deletions.append((u, edge(a, b)))
        adj[a].discard(u)
        adj[b].discard(u)
        adj[u].clear()
        alive.discard(u)
    return alive, deletions


def _pair_adjacent(adj: list[set[int]], u: int) -> bool:
    a, b = adj[u]
    return b in adj[a]


def _core_path_order(
    g: SimpleGraph, core: set[int], v: int, v_prime: int
) -> list[int]:
    """Path ordering of the peeled core, reusing the recognizer's walk."""
    sub, remap = g.induced_compact(core)
    back = {new: old for old, new in remap.items()}
    from .recognition import path_ordering_if_two_simplicial

    ordering = path_ordering_if_two_simplicial(sub)
    _check(ordering is not None, "peeled core must have exactly two degree-2 vertices")
    order = [back[w] for w in ordering.order]
    if order[0] != v:
        order.reverse()
    _check(order[0] == v and order[-1] == v_prime, "core path must run from v to v'")
    return order


def _hanging_pieces(
    core: set[int], deletions: list[tuple[int, Edge]]
) -> dict[Edge, list[int]]:
    """Group peeled vertices by the core edge their attachment chains back to.

    Replaying deletions in reverse is a rebuild; each re-added vertex roots
    at its attach edge when both endpoints are in the core, else inherits the
    root of an attach endpoint added earlier.
    """
    root_of_vertex: dict[int, Edge] = {}
    pieces: dict[Edge, list[int]] = {}
    for u, (a, b) in reversed(deletions):
        if a in core and b in core:
            root = edge(a, b)
        elif a in core:
            root = root_of_vertex[b]
        elif b in core:
            root = root_of_vertex[a]
        else:
            ra, rb = root_of_vertex[a], root_of_vertex[b]
            _check(ra == rb, "a peeled vertex chains back to one core edge")
            root = ra
        root_of_vertex[u] = root
        pieces.setdefault(root, []).append(u)
    return pieces


def _attach_edge_positions(
    g: SimpleGraph, order: list[int], pos: dict[int, int]
) -> dict[Edge, int]:
    """Highest path position whose vertex has a given core edge as attach edge."""
    out: dict[Edge, int] = {}
    core_set = set(order)
    for u in order[:-2]:
        # Core neighbours at smaller positions are the attach pair at deletion time.
        below = [w for w in g.neighbors(u) if w in core_set and pos[w] < pos[u]]
        _check(len(below) == 2, "each core vertex has two lower path neighbours")
        f = edge(below[0], below[1])
        out[f] = max(out.get(f, 0), pos[u])
    return out


def _reattach(
    g: SimpleGraph, kept: set[int], interior: list[int], crucial: Edge, tip: Edge
) -> SimpleGraph:
    """Move the piece hanging at ``crucial`` so it hangs at ``tip`` instead.

    The piece's interior keeps its labels; only its two glue vertices are
    renamed, canonical endpoint to canonical endpoint.
    """
    interior_set = set(interior)
    mapping = {crucial[0]: tip[0], crucial[1]: tip[1]}
    edges = {e for e in g.edges() if e[0] in kept and e[1] in kept}
    for a, b in g.edges():
        if a in interior_set or b in interior_set:
            edges.add(edge(mapping.get(a, a), mapping.get(b, b)))
    return SimpleGraph.from_edges(g.n, sorted(edges))
