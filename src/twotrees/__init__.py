"""Exact spanning-tree enumeration, counting, and extremal rewiring for 2-trees."""

from .counting import (
    brute_force_count,
    chain_edge_counts,
    count_book,
    count_containing,
    count_two_simplicial,
    count_via_construction,
    fibonacci,
    kirchhoff_count,
    verify_bounds,
)
from .enumeration import (
    count_stream,
    enumerate_spanning_trees,
)
from .errors import (
    AlreadyTwoSimplicialError,
    CrossCheckError,
    CyclicRequirementError,
    ForeignEdgeError,
    FormatError,
    InvalidConstructionError,
    InvariantError,
    IsBookError,
    LoopEdgeError,
    NotTwoTreeError,
    NotTwoTreeReason,
    OutOfRangeError,
    TooLargeError,
    TwoTreeError,
)
from .extremal import (
    ExtremalSurvey,
    SplitReport,
    SurgeryReport,
    glue_identity_check,
    improve_max,
    improve_min,
    survey_extremal,
)
from .generators import (
    Seed,
    all_labeled_two_trees,
    book,
    extend_with_chain,
    fan,
    path_square,
    random_chain,
    random_two_tree,
)
from .graph import (
    Edge,
    SimpleGraph,
    SpanningTree,
    TwoTreeConstruction,
    edge,
    is_spanning_tree,
)
from .recognition import (
    is_book,
    path_ordering_if_two_simplicial,
    recognize,
    simplicial_vertices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
