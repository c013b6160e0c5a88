"""Named 2-tree families, seeded random 2-trees, and the small exhaustive corpus:
a lazy stream of constructions in choice order, with no deduplication.

Randomness comes from the standard library's Mersenne Twister
(``random.Random(seed)``) drawing via ``randrange``; identical seeds produce
identical constructions on any platform.  Random construction sequences are
uniform over attach-edge choices, which is NOT uniform over isomorphism
classes; consumers here only need coverage and determinism.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from .errors import OutOfRangeError, TooLargeError
from .graph import Edge, TwoTreeConstruction, _edge_ids, edge

Seed = int

ALL_LABELED_MAX_N = 9  # (2*9-5)!! = 135135 attach sequences


def book(n: int) -> TwoTreeConstruction:
    """Every added vertex glued onto the base edge {0, 1}."""
    _require_n(n, 2)
    return TwoTreeConstruction(n, (0, 1), tuple((k, (0, 1)) for k in range(2, n)))


def path_square(n: int) -> TwoTreeConstruction:
    """The n-path with extra edges between vertices at distance two."""
    _require_n(n, 2)
    return TwoTreeConstruction(n, (0, 1), tuple((k, (k - 2, k - 1)) for k in range(2, n)))


def fan(n: int) -> TwoTreeConstruction:
    """Vertex 0 joined to every vertex of the path 1 .. n-1."""
    _require_n(n, 2)
    return TwoTreeConstruction(n, (0, 1), tuple((k, (0, k - 1)) for k in range(2, n)))


def random_chain(n: int, seed: Seed) -> TwoTreeConstruction:
    """Random chain on n >= 3 vertices: two degree-2 vertices for n >= 4, and
    the triangle, all three of degree 2, at n = 3.

    The chain of :func:`extend_with_chain` grown n - 2 steps out of one edge:
    each vertex after the first glues onto an edge incident to its
    predecessor, by a fair coin between the predecessor's two attach endpoints.
    """
    _require_n(n, 3)
    return extend_with_chain(TwoTreeConstruction(2, (0, 1), ()), (0, 1), n - 2, seed)


def random_two_tree(n: int, seed: Seed) -> TwoTreeConstruction:
    """Uniform attach-edge choice at every step, deterministic per seed."""
    _require_n(n, 2)
    rng = random.Random(seed)
    return _replay(n, (rng.randrange(2 * k - 3) for k in range(2, n)))


def all_labeled_two_trees(n: int) -> Iterator[TwoTreeConstruction]:
    """Every construction on base {0, 1} adding vertex k at step k - 2, lazily.

    Vertex k goes on an edge present before it, in arrival order, so this is
    the depth-first walk of the choice product: (2n - 5)!! constructions.
    Vertex k's attach edge is its two neighbours below k, so no two realize
    the same graph.  Every 2-tree on n vertices is isomorphic to one of them.
    The range guards raise at the call, not at the first ``next``.
    """
    if type(n) is not int or n < 3:
        raise OutOfRangeError(f"all_labeled_two_trees needs n >= 3, got {n!r}")
    if n > ALL_LABELED_MAX_N:
        raise TooLargeError(f"all_labeled_two_trees capped at n = {ALL_LABELED_MAX_N}, got {n}")
    choice_ranges = (range(2 * k - 3) for k in range(2, n))
    return (_replay(n, choices) for choices in itertools.product(*choice_ranges))


def _replay(n: int, choices: Iterable[int]) -> TwoTreeConstruction:
    """The construction on base {0, 1} in which vertex k goes on the edge with
    id ``choices[k - 2]``: the base edge, then each vertex's two new edges, in
    build order.  2k - 3 edges are present when k arrives."""
    return TwoTreeConstruction(n, (0, 1), zip(range(2, n), choices))


def extend_with_chain(
    c: TwoTreeConstruction, start_edge: Edge, steps: int, seed: Seed
) -> TwoTreeConstruction:
    """Grow a random chain of ``steps`` vertices out of ``start_edge``.

    New vertices take labels ``c.n``, ``c.n + 1``, ...; each one after the
    first glues onto an edge incident to its predecessor.  Returns ``c`` with
    the chain's (vertex, attach-edge) records appended to its attachments.
    """
    if type(steps) is not int or steps < 1:
        raise OutOfRangeError(f"need at least one chain step, got {steps!r}")
    x, y = edge(*start_edge)
    if _edge_ids(c.n, c.attachments, [(x, y)]) == [-1]:
        raise OutOfRangeError(f"start edge ({x}, {y}) not in graph")
    rng = random.Random(seed)
    records: list[tuple[int, Edge]] = []
    attach: Edge = (x, y)
    for i in range(steps):
        w = c.n + i
        records.append((w, attach))
        attach = edge(w, attach[rng.randrange(2)])
    return TwoTreeConstruction(c.n + steps, c.base, c.attachments + tuple(records))


def _require_n(n: int, minimum: int) -> None:
    if type(n) is not int or n < minimum:
        raise OutOfRangeError(f"need n >= {minimum}, got {n!r}")
