from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "kirchhoff_count", "path_ordering_if_two_simplicial", "path_square",
    "random_chain", "random_two_tree", "recognition", "recognize",
    "simplicial_vertices", "survey_extremal", "verify_bounds",
]

REMOVED = {
    "counting": ["ChainState", "chain_step", "EdgeCountQuery", "count_containing_or_zero"],
    "enumeration": ["extend_tree", "choice_vector_decode", "ExtensionChoice"],
    "graph": ["tree_vertex_span", "is_spanning_tree"],
    "extremal": [
        "align_for_glue", "_peel_to_core", "_core_path_order", "_rehome_pair", "_reattach",
        "_attach_edge_positions", "_degree_two_count", "glue", "relabel_edge_to_base",
    ],
    "errors": ["InconsistentChainError", "InvalidTreeError", "IllegalSplitError", "BadGlueError"],
    "recognition": ["TwoSimplicialOrdering"],
    "formats": ["read_edges", "parse_tree_line"],
}


def test_public_surface_is_pinned():
    # add or remove an export here on purpose, never as a side effect
    assert sorted(twotrees.__all__) == PUBLIC


def test_removed_names_stay_removed():
    assert not hasattr(twotrees.TwoTreeConstruction, "prefix_graph")
    assert not hasattr(twotrees.TwoTreeConstruction, "vertices_in_build_order")
    assert not hasattr(twotrees.SimpleGraph, "induced_compact")
    # a checked edge list: the oracles read n, m and edges(), and recognize
    # checks connectivity on its own sets
    for name in ("adj", "neighbors", "degree", "has_edge", "edge_set", "is_connected"):
        assert not hasattr(twotrees.SimpleGraph, name), f"SimpleGraph.{name}"
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"twotrees.{module}")
        for name in names:
            assert not hasattr(mod, name), f"twotrees.{module}.{name}"
            assert not hasattr(twotrees, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from twotrees import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert set(PUBLIC) <= set(dir(twotrees))
    assert namespace["kirchhoff_count"] is twotrees.counting.kirchhoff_count
    assert namespace["graph"] is importlib.import_module("twotrees.graph")


# Modules a cold `gen` start has no use for.  pytest itself imports inspect
# and json, so the module set is read in a child process.
NOT_AT_COLD_START = {
    "dataclasses", "inspect", "json",
    "twotrees.counting", "twotrees.enumeration", "twotrees.extremal", "twotrees.recognition",
}
# `python -m twotrees ARGV` that prints sys.modules to stderr at exit.
PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('twotrees', run_name='__main__', alter_sys=True)\n"
)


def _child_modules(*argv: str) -> set[str]:
    src = str(Path(twotrees.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


def test_import_twotrees_loads_no_submodule():
    loaded = _child_modules("import sys, twotrees; print(*sys.modules, file=sys.stderr)")
    assert sorted(m for m in loaded if m.startswith("twotrees.")) == []
    assert not NOT_AT_COLD_START & loaded


def test_a_submodule_loads_when_the_package_attribute_is_first_read():
    loaded = _child_modules(
        "import sys, twotrees\n"
        "assert 'twotrees.counting' not in sys.modules\n"
        "counting = twotrees.counting\n"
        "assert counting is sys.modules['twotrees.counting'] is vars(twotrees)['counting']\n"
        "assert counting.count_book(4) == 8\n"
        "print(*sys.modules, file=sys.stderr)"
    )
    assert "twotrees.counting" in loaded
    assert "twotrees.extremal" not in loaded


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["gen", "book", "3", "--out", os.devnull], {"twotrees.generators"}, NOT_AT_COLD_START),
        (
            ["improve", "min", "--family", "path-square", "--n", "6"],
            {"twotrees.extremal", "json"},
            {"dataclasses", "inspect", "twotrees.enumeration"},
        ),
    ],
)
def test_a_cli_run_loads_only_what_its_subcommand_runs(argv, loads, skips):
    loaded = _child_modules(PROBE, *argv)
    assert loads <= loaded
    assert not skips & loaded


@pytest.fixture(scope="module")
def edge_list_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("inputs") / "g.edges"
    path.write_text("5 7\n0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n3 4\n")  # the path square on 5 vertices
    return str(path)


@pytest.mark.parametrize(
    "argv", [["order"], ["count"], ["enumerate", "--limit", "3"], ["improve", "min"]], ids=" ".join
)
def test_an_in_run_builds_no_family_and_skips_generators(edge_list_file, argv):
    loaded = _child_modules(PROBE, *argv, "--in", edge_list_file)
    assert "twotrees.recognition" in loaded
    assert "twotrees.generators" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "book", "3", "--out", os.devnull],
        ["count", "--family", "book", "--n", "5"],
        ["count", "--family", "book", "--n", "5", "--method", "closed-form"],
        ["verify", "oracle", "--n-max", "4"],
        ["survey", "--n", "4"],
    ],
    ids=" ".join,
)
def test_a_family_or_corpus_run_loads_generators(argv):
    assert "twotrees.generators" in _child_modules(PROBE, *argv)
