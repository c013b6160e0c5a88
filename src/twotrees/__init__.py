"""Exact spanning-tree enumeration, counting, and extremal rewiring for 2-trees."""

from .counting import (
    ChainState,
    EdgeCountQuery,
    brute_force_count,
    chain_edge_counts,
    chain_step,
    count_book,
    count_containing,
    count_two_simplicial,
    count_via_construction,
    fibonacci,
    kirchhoff_count,
    verify_bounds,
)
from .enumeration import (
    ExtensionChoice,
    choice_vector_decode,
    count_stream,
    enumerate_spanning_trees,
    extend_tree,
    spanning_trees_levelwise,
)
from .errors import (
    AlreadyTwoSimplicialError,
    BadGlueError,
    CrossCheckError,
    CyclicRequirementError,
    ForeignEdgeError,
    FormatError,
    IllegalSplitError,
    InconsistentChainError,
    InvalidConstructionError,
    InvalidTreeError,
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
    align_for_glue,
    glue,
    glue_identity_check,
    improve_max,
    improve_min,
    relabel_edge_to_base,
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
    TwoSimplicialOrdering,
    is_book,
    path_ordering_if_two_simplicial,
    recognize,
    simplicial_vertices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
