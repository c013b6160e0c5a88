"""Tests of the benchmark's own checkers, failure accounting and span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import twotrees as tt  # noqa: E402
import twotrees.formats  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def book_stream(n: int) -> str:
    c = tt.book(n)
    lines = [tt.formats.tree_stream_header(n, tt.count_book(n))]
    lines += [tt.formats.serialize_tree(t) for t in tt.enumerate_spanning_trees(c)]
    return "\n".join(lines) + "\n"


def test_tree_stream_accepts_the_real_stream():
    assert checks.check_tree_stream(book_stream(5), 5, workloads.book_edges(5), 20) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines.__setitem__(3, lines[3].replace("0-2", "2-3")),  # edge not in graph
        lambda lines: lines.__setitem__(3, "0-1 0-2 1-2 0-3"),  # cycle
        lambda lines: lines.__setitem__(3, " ".join(reversed(lines[3].split()))),  # not canonical
        lambda lines: lines.__setitem__(3, lines[4]),  # duplicate tree
        lambda lines: lines.pop(3),  # missing tree
        lambda lines: lines.__setitem__(0, "# n=5 expected=21"),  # wrong header
    ],
)
def test_tree_stream_rejects_a_corrupted_line(corrupt):
    lines = book_stream(5).split("\n")
    corrupt(lines)
    assert checks.check_tree_stream("\n".join(lines), 5, workloads.book_edges(5), 20) is not None


def test_tree_stream_honours_the_limit():
    lines = book_stream(5).split("\n")
    limited = "\n".join(lines[:4]) + "\n"
    assert checks.check_tree_stream(limited, 5, workloads.book_edges(5), 20, limit=3) is None
    assert checks.check_tree_stream(limited, 5, workloads.book_edges(5), 20, limit=4) is not None


def test_count_check_rejects_a_wrong_count():
    assert checks.check_count("80\n", 80, 6) is None
    assert checks.check_count("81\n", 80, 6) is not None
    assert checks.check_count("8\n", 8, 6) is not None  # below 2^(n-2)


def test_order_check_rejects_an_invalid_order():
    edges = workloads.path_square_edges(6)
    good = " ".join(map(str, checks.peel_order(6, edges)))
    assert checks.check_order(good, 6, edges) is None
    assert checks.check_order("1 0 2 3 4 5", 6, edges) is not None  # 1 has three neighbours
    assert checks.check_order("5 4 3 2 1 1", 6, edges) is not None  # not a permutation
    assert checks.check_order("2 5 4 3 1 0", 6, edges) is not None  # 2 has degree 4


def test_peel_order_rejects_non_two_trees():
    assert checks.peel_order(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]) is not None
    assert checks.peel_order(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]) is not None
    assert checks.peel_order(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)]) is not None
    # the 4-cycle plus a pendant triangle: right edge count, no simplicial peel
    assert checks.peel_order(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (2, 4), (0, 4)]) is None


def test_verify_check_needs_every_line_to_pass():
    assert checks.check_verify("[PASS] a\n[PASS] b\n", 2) is None
    assert checks.check_verify("[PASS] a\n[FAIL] b\n", 2) is not None
    assert checks.check_verify("[PASS] a\n", 2) is not None


def test_each_rejected_output_counts_as_a_failure():
    edges = workloads.path_square_edges(6)
    cmds = [
        workloads.Command("trees", [], [Path("t")], lambda out, files: checks.check_tree_stream(
            files[0], 5, workloads.book_edges(5), 20)),
        workloads.Command("count", [], [], lambda out, files: checks.check_count(out, 80, 6)),
        workloads.Command("order", [], [], lambda out, files: checks.check_order(out, 6, edges)),
    ]
    bad_stream = book_stream(5).replace("0-2", "2-3", 1)
    runs = [
        (cmds[0], 0, "", [book_stream(5)]), (cmds[0], 0, "", [bad_stream]),
        (cmds[1], 0, "80\n", []), (cmds[1], 0, "81\n", []), (cmds[1], 4, "80\n", []),
        (cmds[2], 0, "1 0 2 3 4 5\n", []),
    ]
    verdicts, tally = run.Verdicts({}), run.Tally()
    for cmd, code, stdout, files in runs:
        tally.record(cmd.label, verdicts.judge(cmd, code, stdout, files)[1])
    assert (tally.attempted, tally.failed) == (6, 4)


def test_a_pinned_digest_is_enforced():
    cmd = workloads.Command("count", [], [], lambda out, files: checks.check_count(out, 80, 6))
    digest, reason = run.Verdicts({}).judge(cmd, 0, "80\n", [])
    assert reason is None
    assert run.Verdicts({"count": digest}).judge(cmd, 0, "80\n", [])[1] is None
    assert run.Verdicts({"count": "0" * 64}).judge(cmd, 0, "80\n", [])[1] is not None


def test_self_time_subtracts_the_children():
    # a: 0..10 holds b: 1..6 (holding c: 3..4 and c: 4.5..6) and b: 7..10
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0, 6.0, 7.0, 10.0, 10.0]).__next__
    tracer = Tracer(clock=clock)
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(tracer.enter("c"))
    tracer.exit(tracer.enter("c"))
    tracer.exit(b)
    tracer.exit(tracer.enter("b"))
    tracer.exit(a)
    stats = self_times(tracer.spans)
    assert (stats["a"].calls, stats["a"].total_s, stats["a"].self_s) == (1, 10.0, 2.0)
    assert (stats["b"].calls, stats["b"].total_s, stats["b"].self_s) == (2, 8.0, 5.5)
    assert (stats["c"].calls, stats["c"].total_s, stats["c"].self_s) == (2, 2.5, 2.5)


def test_self_times_of_flat_spans():
    spans = [Span("x", 0.0, 2.0, -1), Span("y", 2.0, 2.5, -1)]
    stats = self_times(spans)
    assert stats["x"].self_s == 2.0 and stats["y"].self_s == 0.5


def test_patch_traces_nested_calls_and_restores():
    original = tt.counting.count_containing
    c = tt.book(6)
    tracer = Tracer()
    with tracer.patch():
        assert tt.count_via_construction(c) == tt.count_book(6)
    assert tt.counting.count_containing is original
    stats = self_times(tracer.spans)
    assert stats["counting.count_via_construction"].calls == 1
    assert stats["counting.count_containing"].calls == 4
    root = stats["counting.count_via_construction"]
    assert 0 <= root.self_s <= root.total_s
    assert tracer.spans[0].name == "counting.count_via_construction"
    assert all(s.parent == 0 for s in tracer.spans if s.name == "counting.count_containing")


def test_timed_workload_at_tiny_sizes(tmp_path, monkeypatch):
    for name, value in [("COUNT_N", 10), ("HEADER_N", 9), ("IMPROVE_N", 12)]:
        monkeypatch.setattr(workloads, name, value)
    launcher = run.Launcher(dict(os.environ, PYTHONPATH=str(SRC)), tmp_path)
    try:
        tally, summary = run.timed_workload("count-build", 3, 0.0, tt, launcher, {})
    finally:
        launcher.close()
    assert (tally.attempted, tally.failed) == (1 + run.SETUP_RUNS + 4, 0), tally.reasons
    assert summary["wall_s"][0] > 0 and summary["peak_rss_mb"][0] > 0


def test_reference_job_prints_its_checksum(tmp_path):
    launcher = run.Launcher(dict(os.environ), tmp_path)
    try:
        assert run.reference_run(launcher) > 0
    finally:
        launcher.close()
