"""Exception types shared across the package."""

from __future__ import annotations

import enum


class TwoTreeError(Exception):
    """Base class for all library errors."""


class OutOfRangeError(TwoTreeError, ValueError):
    """A numeric argument is outside its documented range."""


class LoopEdgeError(TwoTreeError, ValueError):
    """An edge joins a vertex to itself."""


class InconsistentChainError(TwoTreeError, ValueError):
    """Chain-state counts disagree with the Fibonacci closed forms."""


class TooLargeError(TwoTreeError):
    """An exhaustive operation would exceed its combinatorial guard."""


class InvalidConstructionError(TwoTreeError):
    """A construction references an attach edge that does not exist yet."""


class ForeignEdgeError(TwoTreeError):
    """An edge set refers to an edge absent from the host graph."""


class InvalidTreeError(TwoTreeError):
    """An edge set violates the spanning-tree invariants it claims."""


class IllegalSplitError(TwoTreeError):
    """A split choice was requested while the attach edge is not in the tree."""


class CyclicRequirementError(TwoTreeError):
    """A required edge set contains a cycle, so no tree can contain it."""


class IsBookError(TwoTreeError):
    """The graph is a book, so no tree-count-decreasing split exists."""


class AlreadyTwoSimplicialError(TwoTreeError):
    """The graph already has exactly two degree-2 vertices."""


class BadGlueError(TwoTreeError):
    """Two graphs cannot be glued along the requested shared edge."""


class FormatError(TwoTreeError):
    """A text input does not match the documented file format."""


class CrossCheckError(TwoTreeError):
    """Two independent counting routes disagreed."""


class InvariantError(TwoTreeError):
    """A proven identity or structural invariant failed: an internal bug."""


class NotTwoTreeReason(enum.Enum):
    WRONG_EDGE_COUNT = "WrongEdgeCount"
    DISCONNECTED = "Disconnected"
    NO_DEGREE2_SIMPLICIAL = "NoDegree2Simplicial"
    NONADJACENT_NEIGHBORS = "NonAdjacentNeighbors"


class NotTwoTreeError(TwoTreeError):
    """The input graph is not a 2-tree; ``reason`` says which check failed."""

    def __init__(self, reason: NotTwoTreeReason, message: str = ""):
        self.reason = reason
        super().__init__(message or reason.value)

    @classmethod
    def wrong_edge_count(cls, n: int, m: int) -> NotTwoTreeError:
        return cls(
            NotTwoTreeReason.WRONG_EDGE_COUNT,
            f"a 2-tree on {n} vertices has {2 * n - 3} edges, this graph has {m}",
        )
