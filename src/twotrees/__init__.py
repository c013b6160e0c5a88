"""Exact spanning-tree enumeration, counting, and extremal rewiring for 2-trees.

``import twotrees`` loads no submodule: each public name is imported from
its module on first use (PEP 562), so a CLI run loads only what its
subcommand calls.
"""

import importlib

# Each public submodule and the names the package takes from it.
_EXPORTS = {
    "counting": (
        "brute_force_count", "chain_edge_counts", "count_book", "count_containing",
        "count_two_simplicial", "count_via_construction", "fibonacci", "kirchhoff_count",
        "verify_bounds",
    ),
    "enumeration": ("count_stream", "enumerate_spanning_trees"),
    "errors": (
        "AlreadyTwoSimplicialError", "CrossCheckError", "CyclicRequirementError",
        "ForeignEdgeError", "FormatError", "InvalidConstructionError", "InvariantError",
        "IsBookError", "LoopEdgeError", "NotTwoTreeError", "NotTwoTreeReason",
        "OutOfRangeError", "TooLargeError", "TwoTreeError",
    ),
    "extremal": (
        "ExtremalSurvey", "SplitReport", "SurgeryReport", "glue_identity_check",
        "improve_max", "improve_min", "survey_extremal",
    ),
    "formats": (),
    "generators": (
        "Seed", "all_labeled_two_trees", "book", "extend_with_chain", "fan", "path_square",
        "random_chain", "random_two_tree",
    ),
    "graph": (
        "Edge", "SimpleGraph", "SpanningTree", "TwoTreeConstruction", "edge",
    ),
    "recognition": (
        "is_book", "path_ordering_if_two_simplicial", "recognize", "simplicial_vertices",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here, once
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
