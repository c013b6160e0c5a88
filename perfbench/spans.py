"""In-memory spans around the twotrees package's public functions.

``Tracer.patch`` rebinds each traced function in every ``twotrees.*`` module
that binds it (``extremal`` imports ``kirchhoff_count`` by name, ``cli``
reaches it through ``counting``), so a call from anywhere opens a span, and
calls nested inside it become its children.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

# Module-level functions, by module; per-tree functions (serialize_tree,
# edge, the walk generator) are left out so that no span opens per tree.
TRACED = {
    "cli": ["main"],
    "formats": ["sniff_and_parse", "parse_edge_list", "parse_construction", "serialize_edge_list"],
    "recognition": ["recognize", "is_book", "simplicial_vertices", "path_ordering_if_two_simplicial"],
    "generators": [
        "book", "path_square", "fan", "random_chain", "random_two_tree",
        "all_labeled_two_trees", "extend_with_chain",
    ],
    "counting": [
        "kirchhoff_count", "count_containing", "count_containing_or_zero",
        "brute_force_count", "count_via_construction", "verify_bounds", "chain_edge_counts",
    ],
    "enumeration": ["expected_tree_count", "enumerate_spanning_trees"],
    "extremal": [
        "improve_min", "improve_max", "survey_extremal", "glue_identity_check", "glue",
        "align_for_glue", "relabel_edge_to_base",
    ],
}
# Methods, by module and class, reported as ``<module>.<method>``.
TRACED_METHODS = {"graph": {"SimpleGraph": ["from_edges", "induced_compact"], "TwoTreeConstruction": ["realize"]}}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    note: object = None  # what the tracer's note function kept of the call


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, inclusive time and self time per span name.

    Spans must be properly nested (one thread), so the children of a span
    never overlap and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = {}
    for span, child_s in zip(spans, covered):
        s = stats.setdefault(span.name, LayerStats())
        s.calls += 1
        s.total_s += span.end - span.start
        s.self_s += span.end - span.start - child_s
    return stats


class Tracer:
    """Records one span per call of each traced function while patched.

    ``notes`` maps a span name to ``f(args, result)``; its value is kept on
    the span, so that counts can be read where the work happens.
    """

    def __init__(
        self,
        notes: dict[str, Callable[[tuple, object], object]] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.notes = notes or {}
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = self.notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if note is not None:
                self.spans[index].note = note(args, result)
            return result

        return traced

    @contextmanager
    def patch(self) -> Iterator[None]:
        """Trace every function in TRACED and TRACED_METHODS until exit."""
        undo: list[tuple[object, str, object]] = []
        homes = {name: importlib.import_module(f"twotrees.{name}") for name in [*TRACED, *TRACED_METHODS]}
        modules = [m for name, m in sys.modules.items() if name == "twotrees" or name.startswith("twotrees.")]
        try:
            for mod_name, names in TRACED.items():
                home = homes[mod_name]
                for name in names:
                    original = getattr(home, name, None)
                    if original is None:  # removed from the package: no span
                        continue
                    wrapped = self.wrap(f"{mod_name}.{name}", original)
                    for mod in modules:
                        if vars(mod).get(name) is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapped)
            for mod_name, classes in TRACED_METHODS.items():
                for cls_name, methods in classes.items():
                    cls = getattr(homes[mod_name], cls_name)
                    for name in methods:
                        raw = vars(cls).get(name)
                        if raw is None:
                            continue
                        undo.append((cls, name, raw))
                        if isinstance(raw, staticmethod):
                            setattr(cls, name, staticmethod(self.wrap(f"{mod_name}.{name}", raw.__func__)))
                        else:
                            setattr(cls, name, self.wrap(f"{mod_name}.{name}", raw))
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
