from __future__ import annotations

import importlib

import twotrees

PUBLIC = [
    "AlreadyTwoSimplicialError", "CrossCheckError", "CyclicRequirementError",
    "Edge", "ExtremalSurvey", "ForeignEdgeError", "FormatError", "InvalidConstructionError",
    "InvariantError", "IsBookError", "LoopEdgeError", "NotTwoTreeError", "NotTwoTreeReason",
    "OutOfRangeError", "Seed", "SimpleGraph", "SpanningTree", "SplitReport", "SurgeryReport",
    "TooLargeError", "TwoTreeConstruction", "TwoTreeError",
    "all_labeled_two_trees", "book", "brute_force_count", "chain_edge_counts", "count_book",
    "count_containing", "count_stream", "count_two_simplicial", "count_via_construction",
    "counting", "edge", "enumerate_spanning_trees", "enumeration", "errors",
    "extend_with_chain", "extremal", "fan", "fibonacci", "formats", "generators",
    "glue_identity_check", "graph", "improve_max", "improve_min", "is_book",
    "is_spanning_tree", "kirchhoff_count", "path_ordering_if_two_simplicial", "path_square",
    "random_chain", "random_two_tree", "recognition", "recognize",
    "simplicial_vertices", "survey_extremal", "verify_bounds",
]

REMOVED = {
    "counting": ["ChainState", "chain_step", "EdgeCountQuery"],
    "enumeration": ["extend_tree", "choice_vector_decode", "ExtensionChoice"],
    "graph": ["tree_vertex_span"],
    "extremal": [
        "align_for_glue", "_peel_to_core", "_core_path_order", "_rehome_pair", "_reattach",
        "_attach_edge_positions", "_degree_two_count", "glue", "relabel_edge_to_base",
    ],
    "errors": ["InconsistentChainError", "InvalidTreeError", "IllegalSplitError", "BadGlueError"],
    "recognition": ["TwoSimplicialOrdering"],
    "formats": ["read_edges"],
}


def test_public_surface_is_pinned():
    # add or remove an export here on purpose, never as a side effect
    assert sorted(twotrees.__all__) == PUBLIC


def test_removed_names_stay_removed():
    assert not hasattr(twotrees.TwoTreeConstruction, "prefix_graph")
    assert not hasattr(twotrees.TwoTreeConstruction, "vertices_in_build_order")
    assert not hasattr(twotrees.SimpleGraph, "induced_compact")
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"twotrees.{module}")
        for name in names:
            assert not hasattr(mod, name), f"twotrees.{module}.{name}"
            assert not hasattr(twotrees, name), name
