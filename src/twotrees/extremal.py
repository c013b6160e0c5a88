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
  every surplus one, then peel the core along its Hamiltonian path from its
  end v.  The first path triangle, from v, that holds a hanging edge (at
  step p) names the crucial edge; detach the piece glued on it and re-glue
  it at the tip edge next to v.  The tip edge lies in strictly more
  spanning trees of the kept part than the old glue edge does, and the tree
  count of a glued pair is strictly increasing in that quantity, so the
  rewired graph strictly beats the original.

Both surgeries, like the paper's proofs, take G's construction and edit its
order rather than a graph: every 2-tree a surgery reports is a construction
built out of G's own degree-2 peel, handed over by attach-edge id read off the
one peel state, so the next surgery can run on it as is.

``survey_extremal`` runs both classifications over every distinct small
labeled 2-tree in one pass over the corpus stream and reports the attained
extremes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .counting import _count, _required_edges, count_via_construction
from .errors import (
    AlreadyTwoSimplicialError,
    CyclicRequirementError,
    ForeignEdgeError,
    InvariantError,
    IsBookError,
    OutOfRangeError,
    TooLargeError,
)
from .graph import Edge, TwoTreeConstruction, _edge_ids, edge
from .recognition import _is_book_shape, _Live, _path_order, _peel, simplicial_vertices


class SplitReport(NamedTuple):
    """Outcome of one count-decreasing split."""

    graph_h: TwoTreeConstruction  # the two degree-2 vertices removed, labels compacted
    beta1: int
    beta2: int
    gamma: int
    t_g: int
    t_g1: int
    t_g2: int
    winner: int  # 1 or 2: which re-homed graph has fewer trees (ties -> 1)
    graph_g1: TwoTreeConstruction  # the pair re-homed onto v1's edge, original labels
    graph_g2: TwoTreeConstruction  # the pair re-homed onto v2's edge, original labels

    @property
    def winner_graph(self) -> TwoTreeConstruction:
        return self.graph_g1 if self.winner == 1 else self.graph_g2

    @property
    def winner_count(self) -> int:
        return self.t_g1 if self.winner == 1 else self.t_g2


class SurgeryReport(NamedTuple):
    """Outcome of one count-increasing reattachment."""

    crucial_edge: Edge  # where the moved piece was glued, original labels
    p: int  # chain length between the new glue edge and the old one
    subtree_j: TwoTreeConstruction  # the moved piece on the crucial edge, labels compacted
    g_prime: TwoTreeConstruction  # rewired 2-tree, original labels
    t_g: int
    t_gprime: int


def improve_min(c: TwoTreeConstruction) -> SplitReport:
    """Strictly decrease the spanning-tree count of a non-book 2-tree."""
    simp = simplicial_vertices(c) if c.n >= 3 else []
    if c.n >= 3 and _is_book_shape(c.n, simp):
        raise IsBookError("every pair of degree-2 vertices shares a neighbourhood")
    if c.n < 5:
        raise OutOfRangeError(f"improve_min needs n >= 5, got {c.n}")

    g = _Live.of(c)
    v1, v2 = pair = next(
        (v1, v2) for i, v1 in enumerate(simp) for v2 in simp[i + 1 :] if g.ends(v1) != g.ends(v2)
    )

    # Nothing hangs on the edges of a degree-2 vertex, so peeling the pair, then the
    # rest, builds H in G's labels; re-appended, the pair's attach ids name e1 and e2.
    _peel(g, keep=set(range(c.n)).difference(pair))
    order = _peel(g)
    order.reverse()
    order += pair
    base = edge(*(w for w, d in enumerate(g.deg) if d))
    *h, h1, h2 = g.ids(order)
    del g  # the peel state goes before the constructions are built
    c_g1 = TwoTreeConstruction(c.n, base, zip(order, [*h, h1, h1]))
    c_g2 = TwoTreeConstruction(c.n, base, zip(order, [*h, h2, h2]))
    c_h = _compact(base, order[:-2], h)
    t_h = _count(h)
    beta1 = _count(h, [h1])
    beta2 = _count(h, [h2])
    gamma = _count(h, [h1, h2])

    t_g = count_via_construction(c)
    t_g1 = count_via_construction(c_g1)
    t_g2 = count_via_construction(c_g2)

    # The derivation above must hold exactly; a mismatch is an internal bug.
    _check(t_g == 4 * t_h + 2 * beta1 + 2 * beta2 + gamma, "T(G) = 4T(H) + 2b1 + 2b2 + g")
    _check(t_g1 == 4 * t_h + 4 * beta1, "T(G1) = 4T(H) + 4b1")
    _check(t_g2 == 4 * t_h + 4 * beta2, "T(G2) = 4T(H) + 4b2")
    _check(gamma >= 1 and t_g1 + t_g2 < 2 * t_g, "T(G1) + T(G2) < 2T(G)")

    winner = 1 if t_g1 <= t_g2 else 2
    return SplitReport(c_h, beta1, beta2, gamma, t_g, t_g1, t_g2, winner, c_g1, c_g2)


def improve_max(c: TwoTreeConstruction) -> SurgeryReport:
    """Strictly increase the spanning-tree count when >2 degree-2 vertices exist."""
    simp = simplicial_vertices(c) if c.n >= 3 else []
    if len(simp) == 2:
        raise AlreadyTwoSimplicialError("graph already has exactly two degree-2 vertices")
    if c.n < 5:
        raise OutOfRangeError(f"improve_max needs n >= 5, got {c.n}")

    # Delete the surplus degree-2 vertices (smallest first) until only v and
    # v' remain; the core left behind has exactly those two.
    v, v_prime = simp[0], simp[1]
    g = _Live.of(c)
    deleted = _peel(g, keep={v, v_prime})
    ends = [w for w, d in enumerate(g.deg) if d == 2]
    _check(ends == [v, v_prime], "peeled core must have exactly two degree-2 vertices")

    # Peeling on with only v' kept walks the core's Hamiltonian path from v.
    order, peeled = _path_order(g, v_prime)
    _check(order[0] == v and order[-1] == v_prime, "core path must run from v to v'")
    tip = edge(v, g.ends(v)[0])

    # Replaying the deletions rebuilds G; a re-added vertex's piece hangs on
    # its attach edge when both ends are core vertices, else on an end's.
    root: dict[int, Edge] = {}
    for u in reversed(deleted):
        a, b = g.ends(u)
        root[u] = r = root.get(a) or root.get(b) or (a, b)
        _check(root.get(b, r) == r, "a peeled vertex chains back to one core edge")
    hanging = set(root.values())
    # A side at the peeled vertex beats the attach edge.  At most one side
    # hangs: v's hold nothing, and after v one is the previous attach edge.
    for p, u in enumerate(order[:peeled], 1):
        a, b = g.ends(u)
        sides = {edge(u, a), edge(u, b)} & hanging
        if sides or (a, b) in hanging:
            crucial = min(sides, default=(a, b))
            break
    else:
        raise InvariantError("no path triangle holds a hanging edge")

    # J is the moved piece rebuilt on the crucial edge, in G's rebuild order.
    moved = [u for u, r in root.items() if r == crucial]
    piece = _compact(crucial, moved, g.ids(moved))

    # G' rebuilds the core in path order, then re-adds every peeled vertex, the
    # moved piece's sums renamed canonical endpoint to canonical endpoint onto
    # the tip edge, which the core already holds.
    rename = {crucial[0]: tip[0], crucial[1]: tip[1]}
    for u in moved:
        a, b = (rename.get(w, w) for w in g.ends(u))
        g.s[u], g.q[u] = a + b, a * a + b * b
    deleted += order[:peeled]
    deleted.reverse()
    c_prime = TwoTreeConstruction(c.n, edge(order[-2], v_prime), zip(deleted, g.ids(deleted)))

    t_g = count_via_construction(c)
    t_gprime = count_via_construction(c_prime)
    _check(t_gprime > t_g, "T(G') > T(G) after the reattachment")

    return SurgeryReport(crucial, p, piece, c_prime, t_g, t_gprime)


def glue_identity_check(c: TwoTreeConstruction, required: Iterable[Edge]) -> bool:
    """Verify the leaf-splitting count identities at the last vertex of ``c``.

    The last vertex v arrives on its attach edge e = wz, so the 2-tree G of
    ``c`` is G - v glued to the triangle vwz along e.  For an acyclic edge set
    S of G - v, with t and s the constrained counts of G - v (through S, and
    through S plus e), G must satisfy

        T(S) = 2t + s    T(S+vw) = t + s    T(S+vz) = t + s    T(S+vw+vz) = s

    where the core returns s = 0 when S already joins w and z, as S + e then
    holds a cycle (e in S adds nothing to S + e).  Returns True iff all four
    hold.  An edge outside G - v raises ForeignEdgeError, a cyclic S CyclicRequirementError.
    """
    if c.n < 3:
        raise OutOfRangeError(f"glue_identity_check needs n >= 3, got {c.n}")
    req = _required_edges(required, "the graph")
    ids = _edge_ids(c.n, c.order, c._attach_ends(), req)
    for (a, b), i in zip(req, ids):
        if i < 0:
            raise ForeignEdgeError(f"required edge ({a}, {b}) not in the graph")
        if i >= c.m - 2:  # v's two edges are the last ids
            raise ForeignEdgeError(f"required edge ({a}, {b}) touches the split vertex")
    if not (t_s := _count(c.parent, ids)):  # 0 only through a cycle, as a 2-tree is connected
        raise CyclicRequirementError("required edges contain a cycle")

    # G - v is the build order minus its last step, with the same edge ids.
    prime, e, vw, vz = c.parent[:-1], c.parent[-1], c.m - 2, c.m - 1
    t = _count(prime, ids)
    s = 0 if e in ids else _count(prime, ids + [e])
    got = (
        t_s,
        _count(c.parent, ids + [vw]),
        _count(c.parent, ids + [vz]),
        _count(c.parent, ids + [vw, vz]),
    )
    return got == (2 * t + s, t + s, t + s, s)


class ExtremalSurvey(NamedTuple):
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
    """Sweep the exhaustive corpus in one pass and classify the extreme attainers."""
    if n < 4:
        raise OutOfRangeError(f"survey_extremal needs n >= 4, got {n}")
    if n > 8:
        raise TooLargeError(f"survey_extremal capped at n = 8, got {n}")
    from .generators import all_labeled_two_trees  # the corpus: only the survey reads it
    for size, c in enumerate(all_labeled_two_trees(n), 1):  # n >= 4: never empty
        t = count_via_construction(c)
        simp = simplicial_vertices(c)
        book, two = _is_book_shape(n, simp), len(simp) == 2
        if size == 1 or t < lo:
            lo, min_ok = t, book
        elif t == lo:
            min_ok = min_ok and book
        if size == 1 or t > hi:
            hi, max_ok = t, two
        elif t == hi:
            max_ok = max_ok and two
    return ExtremalSurvey(n, size, lo, hi, min_ok, max_ok)


def _check(ok: bool, identity: str) -> None:
    """Raise InvariantError when a proven identity fails (survives python -O)."""
    if not ok:
        raise InvariantError(identity)


def _compact(base: Edge, order: Sequence[int], parent: Sequence[int]) -> TwoTreeConstruction:
    """The 2-tree that ``order`` builds on ``base`` by attach-edge id ``parent``,
    its vertices relabelled densely in sorted order: the relabelling is
    increasing, so it keeps every canonical edge canonical and every edge id."""
    remap = {old: new for new, old in enumerate(sorted([*base, *order]))}
    relabelled = zip(map(remap.__getitem__, order), parent)
    return TwoTreeConstruction(len(remap), (remap[base[0]], remap[base[1]]), relabelled)
