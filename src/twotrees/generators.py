"""Named 2-tree families, seeded random 2-trees, and the small exhaustive corpus
(a lazy stream in choice order, with no deduplication), each built by attach-edge id.

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
from .graph import Edge, TwoTreeConstruction, _checked_edges

Seed = int

ALL_LABELED_MAX_N = 9  # (2*9-5)!! = 135135 attach sequences


def book(n: int) -> TwoTreeConstruction:
    """Every added vertex glued onto the base edge {0, 1}."""
    _require_n(n, 2)
    return _replay(n, itertools.repeat(0))


def path_square(n: int) -> TwoTreeConstruction:
    """The n-path with extra edges between vertices at distance two."""
    _require_n(n, 2)
    return _replay(n, range(0, 2 * n, 2))  # k on k - 1's edge to k - 2, id 2k - 4


def fan(n: int) -> TwoTreeConstruction:
    """Vertex 0 joined to every vertex of the path 1 .. n-1."""
    _require_n(n, 2)
    return _replay(n, itertools.chain([0], range(1, 2 * n, 2)))  # k > 2 on k - 1's edge to 0


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
    the chain's steps appended; a start edge that is no edge of ``c`` is out of range.
    """
    if type(steps) is not int or steps < 1:
        raise OutOfRangeError(f"need at least one chain step, got {steps!r}")
    try:  # the start edge's id; a loop raises LoopEdgeError
        (p,) = c._ids(_checked_edges(c.n, [start_edge]))
    except OutOfRangeError:  # not two int ends in 0..n-1
        p = -1
    if p < 0:
        raise OutOfRangeError(f"start edge {start_edge!r} not in graph")
    # Step k + 1 goes on step k's edge to the smaller end (id 2k + 1) or the larger (2k + 2), by a coin.
    rng = random.Random(seed)
    parent = [*c.parent, p, *(2 * k + 1 + rng.randrange(2) for k in range(c.n - 2, c.n + steps - 3))]
    return TwoTreeConstruction(c.n + steps, c.base, zip([*c.order, *range(c.n, c.n + steps)], parent))


def _require_n(n: int, minimum: int) -> None:
    if type(n) is not int or n < minimum:
        raise OutOfRangeError(f"need n >= {minimum}, got {n!r}")
