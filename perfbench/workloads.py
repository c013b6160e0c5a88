"""The four benchmark workloads: seeded inputs, CLI argv and output checks.

Each workload is a list of ``Command``s run one after another (a closed loop
with one client).  Input graphs are drawn here, from the benchmark seed, and
written as edge lists; expected values are computed here too, before any
command is timed.  The program under test sees only the files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("enum-stream", "count-build", "verify-small", "recognize-large")

BOOK_N = 15
RANDOM_ENUM_N = 40
RANDOM_ENUM_LIMIT = 25_000
COUNT_N = 60
HEADER_N = 60
HEADER_LIMIT = 5
IMPROVE_N = 80
ORDER_N = 2500


@dataclass
class Command:
    """One CLI invocation and how to check what it printed and wrote.

    ``check(stdout, files)`` gets the decoded stdout and the text of each
    ``outputs`` file, in order, and returns None or the reason it is wrong.
    """

    label: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[str, list[str]], str | None]
    trees: int = 0  # tree lines an enumerate command writes


def random_two_tree_edges(n: int, rng: random.Random) -> list[checks.Edge]:
    """Base edge (0, 1); vertex k glues onto a uniformly drawn existing edge."""
    edges = [(0, 1)]
    for k in range(2, n):
        x, y = edges[rng.randrange(len(edges))]
        edges += [(x, k), (y, k)]
    return edges


def book_edges(n: int) -> list[checks.Edge]:
    return [(0, 1)] + [e for k in range(2, n) for e in ((0, k), (1, k))]


def path_square_edges(n: int) -> list[checks.Edge]:
    return [(0, 1)] + [e for k in range(2, n) for e in ((k - 2, k), (k - 1, k))]


def enum_family_seed(seed: int) -> int:
    """The ``--seed`` that enum-stream passes to ``enumerate --family random``."""
    return random.Random(f"enum-stream:{seed}").randrange(10**6)


def build(name: str, seed: int, work: Path, tt) -> list[Command]:
    """The commands of workload ``name`` for ``seed``, with inputs written
    under ``work``.  ``tt`` is the imported twotrees package, used only for
    expected counts (``kirchhoff_count``), never for the command's own route."""
    rng = random.Random(f"{name}:{seed}")
    SimpleGraph, kirchhoff = tt.SimpleGraph, tt.kirchhoff_count

    def count(n: int, edges: list[checks.Edge]) -> int:
        return kirchhoff(SimpleGraph.from_edges(n, edges))

    def write(stem: str, n: int, edges: list[checks.Edge]) -> str:
        path = work / f"{stem}.edges"
        path.write_text(checks.edge_list_text(n, edges))
        return str(path)

    if name == "enum-stream":
        s = enum_family_seed(seed)
        random_edges = tt.random_two_tree(RANDOM_ENUM_N, s).realize().edges()
        random_total = count(RANDOM_ENUM_N, random_edges)
        book_total = BOOK_N * 2 ** (BOOK_N - 3)
        f1, f2 = work / "book.trees", work / "random.trees"
        return [
            Command(
                f"book{BOOK_N}",
                ["enumerate", "--family", "book", "--n", str(BOOK_N), "--out", str(f1)],
                [f1],
                lambda out, files: checks.check_tree_stream(
                    files[0], BOOK_N, book_edges(BOOK_N), book_total
                ),
                trees=book_total,
            ),
            Command(
                f"random{RANDOM_ENUM_N}",
                ["enumerate", "--family", "random", "--n", str(RANDOM_ENUM_N), "--seed", str(s),
                 "--limit", str(RANDOM_ENUM_LIMIT), "--out", str(f2)],
                [f2],
                lambda out, files: checks.check_tree_stream(
                    files[0], RANDOM_ENUM_N, random_edges, random_total, RANDOM_ENUM_LIMIT
                ),
                trees=min(random_total, RANDOM_ENUM_LIMIT),
            ),
        ]

    if name == "count-build":
        e_count = random_two_tree_edges(COUNT_N, rng)
        e_header = random_two_tree_edges(HEADER_N, rng)
        while True:  # improve needs a non-book with more than two degree-2 vertices
            e_improve = random_two_tree_edges(IMPROVE_N, rng)
            deg = [0] * IMPROVE_N
            for u, v in e_improve:
                deg[u] += 1
                deg[v] += 1
            if deg.count(2) not in (2, IMPROVE_N - 2):
                break
        t_count, t_header, t_improve = (
            count(COUNT_N, e_count), count(HEADER_N, e_header), count(IMPROVE_N, e_improve)
        )
        f_count = write("count", COUNT_N, e_count)
        f_header = write("header", HEADER_N, e_header)
        f_improve = write("improve", IMPROVE_N, e_improve)
        trees, g_min, g_max = work / "header.trees", work / "min.edges", work / "max.edges"
        return [
            Command(
                f"count{COUNT_N}", ["count", "--in", f_count], [],
                lambda out, files: checks.check_count(out, t_count, COUNT_N),
            ),
            Command(
                f"header{HEADER_N}",
                ["enumerate", "--in", f_header, "--limit", str(HEADER_LIMIT), "--out", str(trees)],
                [trees],
                lambda out, files: checks.check_tree_stream(
                    files[0], HEADER_N, e_header, t_header, HEADER_LIMIT
                ),
                trees=HEADER_LIMIT,
            ),
            Command(
                f"improve-min{IMPROVE_N}", ["improve", "min", "--in", f_improve, "--out", str(g_min)],
                [g_min],
                lambda out, files: checks.check_improve("min", out, files[0], t_improve, count),
            ),
            Command(
                f"improve-max{IMPROVE_N}", ["improve", "max", "--in", f_improve, "--out", str(g_max)],
                [g_max],
                lambda out, files: checks.check_improve("max", out, files[0], t_improve, count),
            ),
        ]

    if name == "verify-small":
        s = rng.randrange(10**6)
        suites = [
            ("oracle7", ["verify", "oracle", "--n-max", "7"], 5),
            ("extremal7", ["verify", "extremal", "--n-max", "7"], 4),
            ("identities", ["verify", "identities", "--trials", "400", "--seed", str(s)], 3),
            ("bounds", ["verify", "bounds", "--trials", "1000", "--n-max", "24", "--seed", str(s)], 1),
        ]
        return [
            Command(label, argv, [], lambda out, files, k=k: checks.check_verify(out, k))
            for label, argv, k in suites
        ]

    if name == "recognize-large":
        e_random = random_two_tree_edges(ORDER_N, rng)
        e_path = path_square_edges(ORDER_N)
        return [
            Command(
                f"order-random{ORDER_N}", ["order", "--in", write("random", ORDER_N, e_random)], [],
                lambda out, files: checks.check_order(out, ORDER_N, e_random),
            ),
            Command(
                f"order-path-square{ORDER_N}", ["order", "--in", write("path-square", ORDER_N, e_path)], [],
                lambda out, files: checks.check_order(out, ORDER_N, e_path),
            ),
        ]

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
