"""The large-input checks that run after the tier-1 tests.  Run from the
repository root, on Linux with Python 3.10+: ``PYTHONPATH=src python tests/ci_checks.py``.

Each check is one ``Run`` row: a twotrees command line, or a function below,
spawned by ``run`` in a temporary directory under its timeout, its exit code
and max RSS read through ``os.wait4``.  A gate is written only in its row, with
the figure measured on 2 vCPU and Python 3.11.7 as a comment.  Outputs are
compared only once every child has run, since a child's max RSS counts the
high-water mark its parent had when it spawned the child.  The script prints
a line per child and exits nonzero naming every check that failed.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from checks import check_order, edge_list_text, parse_edge_list  # noqa: E402


def glue_at_fifty_thousand() -> None:
    """big.graph.edges, the n = 50,000 edge list read off ``adjacency()`` (gen
    writes it from ``edges()``), then the glued-pair identities with S the base
    edge and a forest of about 7,000 edges, which must raise once a cycle-closing
    or a foreign edge joins it, then with forests through the last vertex's
    attach edge wz and through two edges uw and uz that join its ends, timed."""
    import twotrees as t

    c = t.random_two_tree(50000, 1)
    adj = c.adjacency()
    Path("big.graph.edges").write_text(edge_list_text(c.n, [(u, v) for u in range(c.n) for v in adj[u] if u < v]))
    by_id = c.edges_by_id()
    # step i's edge to the smaller end of its attach edge for every 7th step
    # before the last one: with the base, a forest that avoids the last vertex
    steps = [by_id[2 * i + 1] for i in range(0, c.n - 3, 7)]
    for s in ([c.base], [c.base, *steps]):
        if not t.glue_identity_check(c, s):
            sys.exit(f"the glued-pair identities fail with |S| = {len(s)}")
    for extra, error in ((by_id[2], t.CyclicRequirementError), ((0, c.n + 5), t.ForeignEdgeError)):
        try:
            t.glue_identity_check(c, [c.base, *steps, extra])
        except error:
            continue
        sys.exit(f"S + {extra} did not raise {error.__name__}")

    def forest(first):
        """first, then each of the steps that keeps a forest"""
        root, s = list(range(c.n)), []

        def find(x):
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for x, y in first + steps:
            if find(x) != find(y):
                root[find(x)] = find(y)
                s.append((x, y))
        return s

    # wz, the last vertex's attach edge, in S: S + e adds nothing, so s = 0;
    # then uw and uz for a common neighbour u of w and z other than v: S
    # joins w and z without wz, and the core's own count gives T(S + vw + vz) = 0
    v, (w, z) = c.attachments[-1]
    common = sorted(adj[w] & adj[z] - {v})
    assert common, "every edge of G - v lies in a triangle of G - v"
    u = common[0]
    for case, first in (("wz in S", [(w, z)]), (f"S joins w and z through u = {u}", [t.edge(u, w), t.edge(u, z)])):
        s = forest(first)
        assert set(first) <= set(s), case
        start = time.perf_counter()
        if not t.glue_identity_check(c, s):
            sys.exit(f"the glued-pair identities fail with {case}, |S| = {len(s)}")
        print(f"glue_identity_check, {case}, |S| = {len(s)}: {time.perf_counter() - start:.2f} s", file=sys.stderr)


def walks_to_the_extremes() -> None:
    """Both surgeries walked from random 2-trees at n = 400 (seeds 1 and 2):
    improve_max until two degree-2 vertices remain, improve_min until a book,
    every count strictly monotone, ending at F(2n-2) and n 2^(n-3)."""
    import twotrees as t

    n, failures = 400, []
    walks = {  # the surgery, its new graph and count, the end, the count there
        "max": (t.improve_max, lambda r: (r.g_prime, r.t_gprime), lambda c: len(t.simplicial_vertices(c)) == 2,
                t.count_two_simplicial(n)),
        "min": (t.improve_min, lambda r: (r.winner_graph, r.winner_count), t.is_book, t.count_book(n)),
    }
    for seed in (1, 2):
        for direction, (surgery, step, done, want) in walks.items():
            c = t.random_two_tree(n, seed)
            counts, start = [t.counting.count_via_construction(c)], time.perf_counter()
            while not done(c):
                c, count = step(surgery(c))
                counts.append(count)
            wall = time.perf_counter() - start
            print(f"seed {seed}, improve_{direction}: {len(counts) - 1} steps in {wall:.2f} s", file=sys.stderr)
            if counts != sorted(set(counts), reverse=direction == "min"):
                failures.append(f"seed {seed}: the {direction} walk is not strictly monotone")
            if counts[-1] != want:
                failures.append(f"seed {seed}: the {direction} walk ends at {counts[-1]}, not {want}")
    sys.exit("\n".join(failures) or None)


class Run(NamedTuple):
    command: str | Callable[[], None]
    timeout_s: int | None = None
    gate_mb: float | None = None  # max RSS
    code: int = 0
    out: bytes | None = None  # the exact stdout, where it is fixed
    err: bytes | None = None  # the exact stderr, where it is fixed
    head: int | None = None  # stop reading stdout after this many bytes


def improve(direction: str, path: str) -> str:
    return f"improve {direction} --in {path} --out {direction}.{path}"


WRONG_COUNT = b"error: not a 2-tree (WrongEdgeCount): a 2-tree on 300000 vertices has 599997 edges, this graph has 0\n"
SURVEY = (
    b'{"corpus_size": 10395, "max": "377", "max_attainers_all_two_simplicial": true, '
    b'"min": "256", "min_attainers_all_books": true, "n": 8}\n'
)
RUNS = [
    # n = 50,000 from both input formats: minutes if a peel turns quadratic
    Run("gen random 50000 --seed 1 --out big.edges"),
    Run("gen random 50000 --seed 1 --format construction --out big.construction"),
    Run(glue_at_fifty_thousand, 60),
    Run("order --in big.edges", 60),
    Run("count --in big.edges", 60),
    Run("count --in big.construction", 60),
    *(Run(improve(d, f"big.{kind}"), 60) for d in ("min", "max") for kind in ("edges", "construction")),
    # n = 200,000: a random 2-tree from both input formats, a path square as an edge list
    Run("gen random 200000 --seed 1 --out big200k.edges"),
    Run("gen random 200000 --seed 1 --format construction --out big200k.construction"),
    Run("gen path-square 200000 --out square200k.edges"),
    Run("count --in big200k.edges", 60, 130),  # 93 MB; 167-177 MB with a neighbour set per vertex
    Run("order --in big200k.edges", 60, 110),  # 79 MB; 94 MB when it built a construction
    Run("count --in big200k.construction", 60, 160),  # 107 MB
    Run("order --in big200k.construction", 60, 160),  # 107 MB
    Run("count --in square200k.edges", 60, 130),  # 94 MB, 9.6 s
    Run("order --in square200k.edges", 60, 110),  # 82 MB
    Run(improve("min", "big200k.edges"), 60, 180),  # 137 MB; 217-224 MB from pairs
    Run(improve("min", "big200k.construction"), 60, 180),  # 140 MB
    Run(improve("max", "big200k.edges"), 60, 195),  # 150 MB; 177-179 MB from pairs
    Run(improve("max", "big200k.construction"), 60, 185),  # 141 MB
    # the engine on the families whose folded pieces grow: 7.2 GB when it kept each piece
    Run("count --family path-square --n 200000", 60, 80),  # 50.7-51.9 MB, 7-9 s
    Run("count --family book --n 200000", 60, 70),  # 44.6-45.7 MB, 2.5-4.6 s
    Run("count --family path-square --n 200000 --method closed-form", 10),  # 0.15-0.21 s; 1.8-2.5 s by k additions
    Run("count --family book --n 200000 --method closed-form", 10),
    # the tree stream through --out and stdout, and a reader that stops early
    Run("enumerate --family book --n 16 --out stream.out"),
    Run("enumerate --family book --n 16"),
    Run("enumerate --family book --n 16", head=100000),
    Run("survey --n 8", gate_mb=30, out=SURVEY),  # 15.2 MB streaming its corpus; 58 MB as a list
    # hostile edge lists are refused small: no set per vertex for a bare header, ...
    *(
        Run(f"{command} --in hostile-300000.edges", gate_mb=30, code=3, out=b"", err=WRONG_COUNT)  # 15.2-15.5 MB
        for command in ("order", "count", "enumerate", "improve min")
    ),
    *(
        Run(f"count --method {method} --in hostile-100000.edges", gate_mb=30, out=b"0\n", err=b"")  # 15.2 MB
        for method in ("kirchhoff", "brute")
    ),
    # ... no union-find slot per vertex for the brute force, and for Kirchhoff its parse, not a 20 GB matrix
    Run("count --method brute --in hostile-1e9.edges", gate_mb=30, code=2, out=b"",  # 15.2 MB
        err=b"error: brute force capped at 25 edges, graph has 26\n"),
    Run("count --method kirchhoff --in big.edges", gate_mb=60, code=2, out=b"",  # 40.4 MB
        err=b"error: kirchhoff capped at 400 vertices, graph has 50000\n"),
    # the brute-force oracle at full size: 11,464 graphs with 3 to 8 vertices
    # (1.6 s; 9 s with the edge-subset walk), then the 25-edge cap (0.1-0.2 s each)
    Run("verify oracle", 60),
    Run("count --method brute --family book --n 14", 30, out=b"28672\n"),
    Run("count --method brute --family fan --n 14", 30, out=b"121393\n"),
    Run("count --method brute --family path-square --n 14", 30, out=b"121393\n"),
    Run(walks_to_the_extremes, 60),  # about 200 max steps in 0.4 s and 400 min steps in 1 s per seed
]
# pairs that must be equal and not empty: a command's stdout, or a file a command wrote
CLOSED, STEMS = "count --family {} --n 200000 --method closed-form", ("big", "big200k")
SAME = [
    ("big.edges", "big.graph.edges"),
    *((f"count --in {stem}.edges", f"count --in {stem}.construction") for stem in STEMS),
    *((improve(d, f"{stem}.edges"), improve(d, f"{stem}.construction")) for stem in STEMS for d in ("min", "max")),
    *((f"{d}.{stem}.edges", f"{d}.{stem}.construction") for stem in STEMS for d in ("min", "max")),
    ("count --in square200k.edges", CLOSED.format("path-square")),
    *((f"count --family {family} --n 200000", CLOSED.format(family)) for family in ("path-square", "book")),
    ("enumerate --family book --n 16", "stream.out"),
]


def run(index: int, row: Run, failures: list[str]) -> Path:
    """Spawn one child under its timeout, read its exit code and max RSS, add
    each way it differs from its row to ``failures``, and return its stdout's file."""
    if isinstance(row.command, str):
        name, argv = row.command, [sys.executable, "-m", "twotrees", *row.command.split()]
    else:  # a function of this module, which reports on stderr
        name = f"{row.command.__name__}()"
        argv = [sys.executable, "-c", f"import ci_checks; ci_checks.{row.command.__name__}()"]
    if row.timeout_s:
        argv = ["timeout", str(row.timeout_s), *argv]
    out_path, err_path = Path(f"{index}.stdout"), Path(f"{index}.stderr")
    start = time.perf_counter()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        child = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE if row.head else out,
            stderr=None if row.err is None else err,
        )
        if row.head:
            child.stdout.read(row.head)
            child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
    code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{name}: exit {code}, max RSS {rss_mb:.1f} MB, {time.perf_counter() - start:.2f} s", flush=True)
    if code != row.code:
        failures.append(f"{name}: exit {code}, not {row.code}" + f" (over the {row.timeout_s} s timeout)" * (code == 124))
    if row.gate_mb is not None and rss_mb > row.gate_mb:
        failures.append(f"{name}: peaked at {rss_mb:.1f} MB, over the {row.gate_mb} MB gate")
    for want, path in ((row.out, out_path), (row.err, err_path)):
        if want is not None and path.read_bytes() != want:
            failures.append(f"{name}: printed {path.read_bytes()[:200]!r}, not {want!r}")
    return out_path


def compare(stdout: dict[str, Path], failures: list[str]) -> None:
    """The SAME pairs; each order printed from an edge list is an elimination
    of it; and the order printed from the construction file is the file's own:
    the attachment lines' vertices reversed, then the two no line introduces."""
    for a, b in SAME:
        a_path, b_path = stdout.get(a, Path(a)), stdout.get(b, Path(b))
        if a_path.stat().st_size < 2 or not filecmp.cmp(a_path, b_path, shallow=False):
            failures.append(f"{a} and {b} differ, or are empty")
    for path in ("big.edges", "big200k.edges", "square200k.edges"):
        fault = check_order(stdout[f"order --in {path}"].read_text(), *parse_edge_list(Path(path).read_text()))
        if fault:
            failures.append(f"order --in {path}: {fault}")
    n, *lines = Path("big200k.construction").read_text().split("\n")[:-1]
    added = [line.split()[0] for line in lines]
    base = sorted(set(range(int(n))) - set(map(int, added)))
    if stdout["order --in big200k.construction"].read_text() != " ".join([*added[::-1], *map(str, base)]) + "\n":
        failures.append("order --in big200k.construction differs from the file's attachment order")


def main() -> None:
    python_path = [*os.environ.get("PYTHONPATH", "").split(os.pathsep), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in python_path if p)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        Path("hostile-300000.edges").write_text("300000 0\n")
        Path("hostile-100000.edges").write_text("100000 0\n")
        Path("hostile-1e9.edges").write_text("1000000000 26\n" + "".join(f"0 {v}\n" for v in range(1, 27)))
        failures: list[str] = []
        paths = [run(index, row, failures) for index, row in enumerate(RUNS)]
        stdout = {row.command: path for row, path in zip(RUNS, paths) if not row.head}
        try:
            compare(stdout, failures)
        except (OSError, TypeError, ValueError) as error:  # an output a failed run left missing or malformed
            failures.append(f"the output checks stopped: {error!r}")
    print(f"{len(RUNS)} runs, {len(failures)} failures", flush=True)
    sys.exit("\n".join(failures) or None)


if __name__ == "__main__":
    main()
