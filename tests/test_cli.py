from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import (
    SimpleGraph,
    TwoTreeConstruction,
    book,
    cli,
    count_two_simplicial,
    count_via_construction,
    counting,
    enumerate_spanning_trees,
    enumeration,
    extremal,
    path_square,
    random_two_tree,
    recognition,
    recognize,
)
from twotrees.formats import (
    parse_edge_list,
    serialize_construction,
    serialize_edge_list,
    serialize_tree,
)

from oracle import component_count, decimal_by_str


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_book_edges_golden(capsys):
    code, out, _ = run(capsys, "gen", "book", "5", "--format", "edges")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5 7"
    assert len(lines) == 8


def test_gen_out_of_range_exit_2(capsys):
    code, _, err = run(capsys, "gen", "book", "1")
    assert code == 2
    assert "n >= 2" in err


def test_gen_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "chain", "10", "--seed", "42")
    _, second, _ = run(capsys, "gen", "chain", "10", "--seed", "42")
    assert first == second


def test_gen_construction_format(capsys, tmp_path):
    target = tmp_path / "c.txt"
    code, _, _ = run(capsys, "gen", "book", "6", "--format", "construction", "--out", str(target))
    assert code == 0
    assert target.read_text().splitlines()[0] == "6"


def test_order_command(capsys, tmp_path):
    target = tmp_path / "g.edges"
    run(capsys, "gen", "path-square", "5", "--out", str(target))
    code, out, _ = run(capsys, "order", "--in", str(target))
    assert code == 0
    order = [int(tok) for tok in out.split()]
    assert sorted(order) == list(range(5))


def test_order_accepts_construction_file(capsys, tmp_path):
    target = tmp_path / "c.txt"
    run(capsys, "gen", "book", "5", "--format", "construction", "--out", str(target))
    code, out, _ = run(capsys, "order", "--in", str(target))
    assert code == 0
    # deletion order: attachments reversed, then the base endpoints
    assert [int(t) for t in out.split()] == [4, 3, 2, 0, 1]


@pytest.mark.parametrize(
    "argv",
    [["order"], ["count"], ["count", "--method", "kirchhoff"], ["enumerate"], ["improve", "max"]],
)
def test_construction_with_a_missing_attach_edge_exits_2(capsys, tmp_path, argv):
    # vertex 3 arrives on (0, 3), an edge it would itself create
    target = tmp_path / "c.txt"
    target.write_text("4\n2 0 1\n3 0 3\n")
    code, out, err = run(capsys, *argv, "--in", str(target))
    assert (code, out) == (2, "")
    assert err == "error: attach edge (0, 3) absent when vertex 3 is added\n"


def test_gen_json_report(capsys):
    code, out, err = run(capsys, "gen", "book", "4", "--json", "--out", "/dev/null")
    assert (code, out) == (0, "")
    report = json.loads(err)
    assert report["outputs"]["family"] == "book"
    assert report["inputs"]["format"] == "edges"
    assert report["wall_time_ms"] >= 0


def test_enumerate_internal_mismatch_exit_5(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "expected_tree_count", lambda c: 999)
    code, _, err = run(capsys, "enumerate", "--family", "book", "--n", "4")
    assert code == 5
    assert "invariant failed" in err


def test_count_family_book(capsys):
    code, out, _ = run(capsys, "count", "--family", "book", "--n", "12")
    assert code == 0
    assert out.strip() == "6144"  # 12 * 2^9


def test_count_family_path_square(capsys):
    code, out, _ = run(capsys, "count", "--family", "path-square", "--n", "9")
    assert code == 0
    assert out.strip() == "987"  # F(16)


def test_count_methods_agree(capsys, tmp_path):
    target = tmp_path / "g.edges"
    run(capsys, "gen", "random", "9", "--seed", "3", "--out", str(target))
    values = set()
    for method in ("auto", "kirchhoff", "recurrence", "brute"):
        code, out, _ = run(capsys, "count", "--in", str(target), "--method", method)
        assert code == 0
        values.add(out.strip())
    assert len(values) == 1


def test_count_closed_form_needs_family(capsys):
    code, _, err = run(capsys, "count", "--method", "closed-form", "--n", "7")
    assert code == 2
    assert "closed-form" in err


def test_count_closed_form_needs_n(capsys):
    code, _, err = run(capsys, "count", "--method", "closed-form", "--family", "book")
    assert code == 2
    assert "--n" in err


def test_count_closed_form_chain_family(capsys):
    code, out, _ = run(capsys, "count", "--method", "closed-form", "--family", "chain", "--n", "10")
    assert code == 0
    assert out.strip() == "2584"  # F(18)


def test_count_closed_form_takes_the_family_generators_bound(capsys, monkeypatch):
    # the same exit and message as the family's own run, and no family built
    for family, n, least in (("chain", 2, 3), ("book", 1, 2)):
        want = (2, "", f"error: need n >= {least}, got {n}\n")
        assert run(capsys, "count", "--family", family, "--n", str(n)) == want
        monkeypatch.setitem(cli.FAMILIES, family, None)
        argv = ["count", "--method", "closed-form", "--family", family, "--n", str(n)]
        assert run(capsys, *argv) == want
    assert run(capsys, "count", "--method", "closed-form", "--family", "chain", "--n", "3") == (0, "3\n", "")


def test_count_not_two_tree_exit_3(capsys, tmp_path):
    target = tmp_path / "c4.edges"
    target.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, _, err = run(capsys, "count", "--in", str(target), "--method", "recurrence")
    assert code == 3
    assert "WrongEdgeCount" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count"],
        ["count", "--method", "recurrence"],
        ["order"],
        ["enumerate"],
        ["improve", "min"],
        ["improve", "max"],
    ],
)
def test_huge_header_without_edges_exits_3_quickly(capsys, tmp_path, argv):
    target = tmp_path / "huge.edges"
    target.write_text("300000 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--in", str(target))
    elapsed = time.perf_counter() - start
    assert code == 3 and out == ""
    assert err == (
        "error: not a 2-tree (WrongEdgeCount): "
        "a 2-tree on 300000 vertices has 599997 edges, this graph has 0\n"
    )
    assert elapsed < 0.5


def _tripwire(monkeypatch, owner, name):
    """Make ``owner.name`` fail the test if called: a step that sizes work by n,
    or reads every edge, which the check under test must come before."""

    def refuse(*args):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize(
    "argv", [["order"], ["count"], ["enumerate"], ["improve", "min"]], ids="-".join
)
def test_two_tree_edge_list_checks_the_header_before_building(capsys, tmp_path, monkeypatch, argv):
    target = tmp_path / "g.edges"
    _tripwire(monkeypatch, recognition, "_Live")  # the peel's state per vertex
    target.write_text("300000 0\n")
    run(capsys, *argv, "--in", str(target))  # warm: the handler's lazy imports
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--in", str(target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one list of 300,000 slots is 2.4 MB, and a neighbour set per vertex 65 MB
    assert peak < 1_000_000, f"peak {peak} bytes"
    assert (code, out) == (3, "")
    assert err == (
        "error: not a 2-tree (WrongEdgeCount): "
        "a 2-tree on 300000 vertices has 599997 edges, this graph has 0\n"
    )
    target.write_text("5 1\n0 x\n")  # a malformed line is reported before the count
    assert run(capsys, *argv, "--in", str(target)) == (2, "", "error: expected an integer, got 'x'\n")


@pytest.mark.parametrize("family", ["random", "path-square"])
def test_an_edge_list_is_recognized_in_one_compact_copy(capsys, tmp_path, family):
    # n = 20,000: the text, its edge codes and a few numbers per vertex; a
    # neighbour set per vertex and the parse's line and edge lists took 15.9 MB
    target = tmp_path / "g.edges"
    seed = ["--seed", "1"] if family == "random" else []
    assert run(capsys, "gen", family, "20000", *seed, "--out", str(target))[0] == 0
    run(capsys, "count", "--in", str(target))  # warm: the handlers' lazy imports
    for argv in (["order"], ["count"]):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--in", str(target))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "") and len(out) > 1
        assert peak < 10_000_000, f"{argv}: peak {peak} bytes"


def test_brute_force_cap_is_checked_before_building_a_graph(capsys, tmp_path, monkeypatch):
    target = tmp_path / "huge.edges"
    body = "".join(f"0 {v}\n" for v in range(1, 27))
    # the graph is its 26 edges; the cap is read off m before they are listed
    # for the walk, let alone before a union-find slot per vertex
    _tripwire(monkeypatch, SimpleGraph, "edges")
    # n = 10^5 goes first, so a build per vertex fails there at megabytes,
    # before 10^9 could exhaust memory
    for n in (10**5, 10**9):
        target.write_text(f"{n} 26\n" + body)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "count", "--method", "brute", "--in", str(target))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", "error: brute force capped at 25 edges, graph has 26\n")
        assert peak < 1_000_000, f"n={n}: peak {peak} bytes"


@pytest.mark.parametrize("method", ["kirchhoff", "brute"])
def test_sparse_header_counts_zero_without_building_a_graph(capsys, tmp_path, monkeypatch, method):
    target = tmp_path / "sparse.edges"
    target.write_text("100000 0\n")

    # both oracles answer 0 off n and m, before any matrix or union-find
    _tripwire(monkeypatch, SimpleGraph, "edges")
    _tripwire(monkeypatch, counting, "_laplacian_cofactor")
    code, out, err = run(capsys, "count", "--method", method, "--in", str(target), "--json")
    assert code == 0 and out == "0\n"
    assert json.loads(err)["outputs"] == {"count": "0", "method": method, "n": 100000}
    code, out, _ = run(capsys, "count", "--method", method, "--in", str(target))
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize(
    "method, oracle", [("kirchhoff", "kirchhoff_count"), ("brute", "brute_force_count")]
)
def test_oracle_count_on_empty_and_single_vertex_graphs(capsys, tmp_path, method, oracle):
    target = tmp_path / "g.edges"
    target.write_text("0 0\n")
    code, out, err = run(capsys, "count", "--method", method, "--in", str(target))
    assert code == 2 and out == ""
    assert err == f"error: {oracle} needs at least one vertex\n"
    target.write_text("1 0\n")
    code, out, _ = run(capsys, "count", "--method", method, "--in", str(target))
    assert code == 0 and out == "1\n"


def test_edge_list_commands_build_no_simple_graph(capsys, tmp_path, monkeypatch):
    # n > 100, so count auto skips its Kirchhoff cross-check, the one oracle
    # a 2-tree command feeds a graph
    target = tmp_path / "g.edges"
    target.write_text(serialize_edge_list(random_two_tree(120, 5)))

    def refuse(*args):
        raise AssertionError("a SimpleGraph was built")

    monkeypatch.setattr(SimpleGraph, "from_edges", staticmethod(refuse))
    monkeypatch.setattr(SimpleGraph, "__init__", refuse)
    for argv in (
        ["order"],
        ["count"],
        ["count", "--method", "recurrence"],
        ["enumerate", "--limit", "20"],
        ["improve", "min", "--out", str(tmp_path / "min.edges")],
        ["improve", "max", "--out", str(tmp_path / "max.edges")],
    ):
        code, out, err = run(capsys, *argv, "--in", str(target))
        assert (code, err) == (0, "") and out, argv


def test_kirchhoff_cap_is_checked_before_building_a_graph(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(counting, "KIRCHHOFF_MAX_N", 6)
    target = tmp_path / "g.edges"
    target.write_text(serialize_edge_list(path_square(6)))
    assert run(capsys, "count", "--method", "kirchhoff", "--in", str(target)) == (0, "55\n", "")
    _tripwire(monkeypatch, counting, "_laplacian_cofactor")
    want = (2, "", "error: kirchhoff capped at 6 vertices, graph has 7\n")
    target.write_text(serialize_edge_list(path_square(7)))
    assert run(capsys, "count", "--method", "kirchhoff", "--in", str(target)) == want
    assert run(capsys, "count", "--method", "kirchhoff", "--family", "book", "--n", "7") == want
    target.write_text("7 0\n")  # fewer than n - 1 edges still count 0 past the cap
    assert run(capsys, "count", "--method", "kirchhoff", "--in", str(target)) == (0, "0\n", "")


def test_brute_force_edge_cap_still_applies_to_sparse_graphs(capsys, tmp_path):
    # 26 edges on 40 vertices: no spanning tree, but past brute force's cap
    target = tmp_path / "sparse.edges"
    target.write_text("40 26\n" + "".join(f"0 {v}\n" for v in range(1, 27)))
    code, _, err = run(capsys, "count", "--method", "brute", "--in", str(target))
    assert code == 2 and "brute force capped" in err
    code, out, _ = run(capsys, "count", "--method", "kirchhoff", "--in", str(target))
    assert code == 0 and out == "0\n"


def test_improve_invariant_failure_exit_5(capsys, monkeypatch):
    real = extremal.count_via_construction
    monkeypatch.setattr(
        extremal, "count_via_construction", lambda c, required=(): real(c, required) + 1
    )
    code, out, err = run(capsys, "improve", "min", "--family", "path-square", "--n", "6")
    assert code == 5 and out == ""
    assert err.startswith("error: invariant failed: ")


def test_count_mismatch_exit_4(capsys, tmp_path, monkeypatch):
    target = tmp_path / "g.edges"
    run(capsys, "gen", "book", "6", "--out", str(target))
    monkeypatch.setattr(counting, "count_via_construction", lambda c: 1)
    code, _, err = run(capsys, "count", "--in", str(target), "--method", "auto")
    assert code == 4
    assert "mismatch" in err


@pytest.mark.parametrize("n, cross_check", [(100, "kirchhoff"), (101, "skipped")])
def test_count_auto_cross_checks_up_to_n_100(capsys, tmp_path, n, cross_check):
    target = tmp_path / "g.edges"
    run(capsys, "gen", "random", str(n), "--seed", "5", "--out", str(target))
    code, _, err = run(capsys, "count", "--in", str(target), "--json")
    assert code == 0
    outputs = json.loads(err)["outputs"]
    assert outputs["cross_check"] == cross_check
    assert outputs["count"] == str(count_via_construction(random_two_tree(n, 5)))


def test_count_at_n_10_000_prints_the_engine_count(capsys, tmp_path, monkeypatch):
    c = random_two_tree(10**4, 3)
    target = tmp_path / "big.edges"
    target.write_text(serialize_edge_list(c))
    want = str(count_via_construction(c))

    def refuse(g):
        raise AssertionError(f"kirchhoff_count called at n={g.n}")

    monkeypatch.setattr(counting, "kirchhoff_count", refuse)
    code, out, _ = run(capsys, "count", "--in", str(target))
    assert code == 0 and out == want + "\n"
    code, out, err = run(capsys, "count", "--in", str(target), "--json")
    assert code == 0 and out == want + "\n"
    outputs = json.loads(err)["outputs"]
    assert (outputs["count"], outputs["cross_check"]) == (want, "skipped")


def test_count_prints_counts_past_4300_digits(capsys):
    want = decimal_by_str(count_two_simplicial(12_000))
    assert len(want) > 4300
    code, out, err = run(capsys, "count", "--family", "path-square", "--n", "12000")
    assert (code, out, err) == (0, want + "\n", "")


def _schema():
    from importlib import resources

    return json.loads(
        resources.files("twotrees").joinpath("run_report.schema.json").read_text()
    )


def test_count_json_report_schema(capsys):
    import jsonschema

    code, out, err = run(capsys, "count", "--family", "book", "--n", "8", "--json")
    assert (code, out) == (0, "256\n")
    report = json.loads(err)
    jsonschema.validate(report, _schema())
    assert report["outputs"]["count"] == "256"
    assert report["outputs"]["family"] == "book"
    assert report["inputs"]["n"] == 8


def test_all_json_reports_validate(capsys, tmp_path):
    import jsonschema

    target = tmp_path / "g.edges"
    run(capsys, "gen", "path-square", "6", "--out", str(target))
    schema = _schema()
    invocations = [
        ("gen", "fan", "6", "--json", "--out", str(tmp_path / "fan.edges")),
        ("count", "--in", str(target), "--json"),
        ("enumerate", "--in", str(target), "--json", "--out", str(tmp_path / "t.txt")),
        ("survey", "--n", "4", "--json"),
        ("improve", "min", "--in", str(target), "--json"),
        ("verify", "identities", "--trials", "3", "--seed", "2", "--json"),
    ]
    for argv in invocations:
        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert code == 0, argv
        report = json.loads(err)
        jsonschema.validate(report, schema)
        assert report["command"] == " ".join(argv)


# Each subcommand in each of its stdout shapes, with and without --out.
JSON_CONTRACT_RUNS = [
    ["gen", "book", "5"],
    ["gen", "random", "7", "--seed", "3", "--out", "{out}"],
    ["order", "--family", "path-square", "--n", "6"],
    *(
        ["count", "--method", m, "--family", "book", "--n", "6"]
        for m in ("auto", "kirchhoff", "recurrence", "closed-form", "brute")
    ),
    ["enumerate", "--family", "book", "--n", "5", "--limit", "7"],
    ["enumerate", "--family", "path-square", "--n", "5", "--out", "{out}"],
    ["verify", "oracle", "--n-max", "4"],
    ["verify", "bounds", "--trials", "5"],
    ["verify", "extremal", "--n-max", "5"],
    ["verify", "identities", "--trials", "2"],
    ["survey", "--n", "5"],
    ["improve", "min", "--family", "path-square", "--n", "6"],
    ["improve", "max", "--family", "book", "--n", "6", "--out", "{out}"],
]


@pytest.mark.parametrize("argv", JSON_CONTRACT_RUNS, ids=" ".join)
def test_json_adds_one_report_line_to_stderr_and_nothing_else(capsys, tmp_path, argv):
    import jsonschema

    runs = []
    for flag in ([], ["--json"]):
        written = tmp_path / f"out{len(flag)}.txt"
        args = [arg.format(out=written) for arg in argv] + flag
        code, out, err = run(capsys, *args)
        runs.append((args, code, out, err, written.read_text() if written.exists() else None))
    (_, code, out, err, written), (args, code_json, out_json, err_json, written_json) = runs
    assert (code, err) == (0, "")
    assert (code_json, out_json, written_json) == (code, out, written)
    *before, line = err_json.splitlines(True)
    assert "".join(before) == err
    report = json.loads(line)
    jsonschema.validate(report, _schema())
    assert report["command"] == " ".join(args)


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (["oracle", "--n-max", "4"], {"n_max": 4}),
        (["extremal", "--n-max", "5"], {"n_max": 5}),
        (["bounds", "--trials", "5"], {"trials": 5, "n_max": 16, "seed": 0}),
        (["identities", "--trials", "2"], {"trials": 2, "seed": 0}),
    ],
    ids=["oracle", "extremal", "bounds", "identities"],
)
def test_verify_reports_the_flags_its_suite_read(capsys, argv, inputs):
    # defaults included, and no seed for a suite that reads none
    code, _, err = run(capsys, "verify", *argv, "--json")
    assert code == 0
    assert json.loads(err)["inputs"] == {"suite": argv[0], **inputs}


@pytest.mark.parametrize(
    "argv, want",
    [
        (["count", "--in", "{tri}", "--seed", "7"], "--in FILE does not read --seed"),
        (["gen", "book", "4", "--seed", "9"], "book family does not read --seed"),
        (["improve", "min", "--family", "fan", "--n", "6", "--seed", "0"], "fan family does not read --seed"),
        (
            ["count", "--method", "closed-form", "--family", "book", "--n", "5", "--seed", "3"],
            "closed-form counting does not read --seed",
        ),
        (["count", "--family", "random", "--n", "6"], {"family": "random", "method": "auto", "n": 6, "seed": 0}),
        (["gen", "chain", "6", "--seed", "4", "--out", os.devnull], {"family": "chain", "format": "edges", "n": 6, "seed": 4}),
        (["count", "--family", "book", "--n", "6"], {"family": "book", "method": "auto", "n": 6}),
        (["count", "--in", "{tri}"], {"file": "{tri}", "method": "auto"}),
    ],
    ids=["in-file", "gen-book", "improve-fan", "closed-form", "random", "gen-chain", "book", "in-file-no-seed"],
)
def test_seed_is_echoed_where_read_and_refused_elsewhere(capsys, tmp_path, argv, want):
    # a seed nothing reads is an error, as in verify, not a value the report makes up
    tri = tmp_path / "tri.edges"
    tri.write_text("3 3\n0 1\n1 2\n0 2\n")
    argv = [str(tri) if a == "{tri}" else a for a in argv]
    code, out, err = run(capsys, *argv, "--json")
    if isinstance(want, str):
        assert (code, out, err) == (2, "", f"error: {want}\n")
    else:
        assert code == 0
        want = {k: str(tri) if v == "{tri}" else v for k, v in want.items()}
        assert json.loads(err.splitlines()[-1])["inputs"] == want


def test_enumerate_counts_and_header(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "book", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# n=4 expected=8"
    assert len(lines) == 9
    assert len(set(lines[1:])) == 8


def test_enumerate_k3(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "book", "--n", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + 3 trees


def test_enumerate_limit_truncates(capsys, tmp_path):
    target = tmp_path / "trees.txt"
    code, out, err = run(
        capsys,
        "enumerate",
        "--family",
        "book",
        "--n",
        "18",
        "--limit",
        "1000",
        "--out",
        str(target),
        "--json",
    )
    assert (code, out) == (0, "")
    report = json.loads(err)
    assert report["outputs"]["truncated"] is True
    assert report["outputs"]["emitted"] == 1000
    assert len(target.read_text().strip().splitlines()) == 1001


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ["--family", "book", "--n", "12"],
            6145,
            "b0aaa70484204d5df37b6908ee65f46b2f91880b5f4e98d6fc21a0910a2ff117",
        ),
        (
            ["--family", "random", "--n", "20", "--seed", "7", "--limit", "3000"],
            3001,
            "3b210c2109914114c64e959835e375a51e03534b39c865ae979710851fe05349",
        ),
    ],
    ids=["book12", "random20-limit3000"],
)
def test_enumerate_stream_bytes_golden(capsys, argv, lines, digest):
    # header, tree order and --limit pinned byte for byte
    code, out, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _enumerate_stdout(*argv: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["enumerate", *argv])
    return code, out.getvalue().splitlines()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_enumerate_lines_are_the_serialized_library_trees(n, seed, k):
    expected = [serialize_tree(t) for t in enumerate_spanning_trees(random_two_tree(n, seed))]
    family = ["--family", "random", "--n", str(n), "--seed", str(seed)]
    code, full = _enumerate_stdout(*family)
    assert code == 0
    assert full[0] == f"# n={n} expected={len(expected)}"
    assert full[1:] == expected
    code, limited = _enumerate_stdout(*family, "--limit", str(k))
    assert code == 0
    assert limited[1:] == expected[:k]


def _library_stream(c: TwoTreeConstruction) -> list[str]:
    return [f"# n={c.n} expected={count_via_construction(c)}"] + [
        serialize_tree(t) for t in enumerate_spanning_trees(c)
    ]


def test_enumerate_stream_is_the_library_view_on_the_corpus(corpus, tmp_path):
    # every labelled 2-tree with n <= 7 through --in, then books and path
    # squares through --family: a block of up to 3^K lines per head tree
    target = tmp_path / "g.edges"
    for g in [book(2)] + [c for n in range(3, 8) for c in corpus[n]]:
        target.write_text(serialize_edge_list(g))
        code, lines = _enumerate_stdout("--in", str(target))
        assert (code, lines) == (0, _library_stream(recognize(g.n, g.edges())))
    for family, maker in (("book", book), ("path-square", path_square)):
        for n in range(2, 13):
            code, lines = _enumerate_stdout("--family", family, "--n", str(n))
            assert (code, lines) == (0, _library_stream(maker(n)))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("family", ["book", "path-square"])
def test_enumerate_every_limit_is_a_prefix(n, family):
    # n <= 6 has no more levels than a block expands; n = 8 has several blocks
    full = _library_stream(book(n) if family == "book" else path_square(n))
    total = len(full) - 1
    for k in range(total + 2):
        err = io.StringIO()
        with redirect_stderr(err):
            code, lines = _enumerate_stdout("--family", family, "--n", str(n), "--limit", str(k), "--json")
        report = json.loads(err.getvalue())["outputs"]
        assert (code, lines) == (0, full[: k + 1])
        assert (report["emitted"], report["truncated"]) == (min(k, total), k < total)


def test_enumerate_limit_1_at_n_20000_pulls_one_block(monkeypatch, tmp_path):
    pulled = []

    def counted(c):
        for block in blocks(c):
            pulled.append(block[1])
            yield block

    blocks = enumeration.tree_stream_blocks
    monkeypatch.setattr(enumeration, "tree_stream_blocks", counted)
    target = tmp_path / "trees.txt"
    code = cli.main(["enumerate", "--family", "book", "--n", "20000", "--limit", "1", "--out", str(target)])
    first = serialize_tree(next(enumerate_spanning_trees(book(20000))))
    assert (code, pulled) == (0, [3])  # one block of 3^K = 3 lines at this n
    assert target.read_text().splitlines()[1:] == [first]


def test_enumerate_rejects_non_two_tree(capsys, tmp_path):
    target = tmp_path / "c4.edges"
    target.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, _, _ = run(capsys, "enumerate", "--in", str(target))
    assert code == 3


def test_survey_json(capsys):
    code, out, _ = run(capsys, "survey", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["min"] == "20" and payload["max"] == "21"
    assert payload["min_attainers_all_books"] is True


def test_improve_min_cli(capsys, tmp_path):
    source = tmp_path / "g.edges"
    run(capsys, "gen", "path-square", "5", "--out", str(source))
    target = tmp_path / "better.edges"
    code, out, _ = run(capsys, "improve", "min", "--in", str(source), "--out", str(target))
    assert code == 0
    payload = json.loads(out)
    assert payload["t_g"] == "21" and payload["winner_count"] == "20"
    n, _ = parse_edge_list(target.read_text())
    assert n == 5


def test_improve_max_cli(capsys, tmp_path):
    source = tmp_path / "g.edges"
    run(capsys, "gen", "book", "5", "--out", str(source))
    code, out, _ = run(capsys, "improve", "max", "--in", str(source))
    assert code == 0
    payload = json.loads(out)
    assert payload["t_g"] == "20" and payload["t_gprime"] == "21"


def test_edge_list_and_construction_inputs_give_identical_results(capsys, tmp_path):
    # one relabelled random 2-tree, its build order kept, so the edge-list run
    # recognizes a construction of its own while the other run reads this one
    n, rng = 30, random.Random(5)
    label = list(range(n))
    rng.shuffle(label)
    c = random_two_tree(n, 5)
    relabelled = TwoTreeConstruction(
        n,
        (label[c.base[0]], label[c.base[1]]),
        tuple((label[v], (label[x], label[y])) for v, (x, y) in c.attachments),
    )
    edges, construction = tmp_path / "g.edges", tmp_path / "g.txt"
    edges.write_text(serialize_edge_list(relabelled))
    construction.write_text(serialize_construction(relabelled))
    commands = [["improve", "min"], ["improve", "max"]]
    commands += [["count", "--method", m] for m in ("auto", "recurrence", "kirchhoff")]
    for argv in commands:
        results = []
        for source in (edges, construction):
            out_file = tmp_path / f"{source.name}.out"
            extra = ["--out", str(out_file)] if argv[0] == "improve" else []
            code, out, err = run(capsys, *argv, "--in", str(source), *extra)
            assert (code, err) == (0, "")
            results.append((out, out_file.read_text() if extra else None))
        assert results[0] == results[1], argv


def test_verify_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--n-max", "5")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_bounds(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--trials", "40", "--seed", "1")
    assert code == 0
    assert "[PASS]" in out


def test_verify_extremal(capsys):
    code, out, _ = run(capsys, "verify", "extremal", "--n-max", "5")
    assert code == 0
    assert out.count("[PASS]") == 2


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--trials", "10", "--seed", "3")
    assert code == 0
    assert out.count("[PASS]") == 3


def test_glue_check_draws_the_same_required_sets(monkeypatch):
    # reference: each candidate edge joins S when a fresh forest check of
    # S + e passes, with the same RNG draws in the same order
    seen = []
    monkeypatch.setattr(extremal, "glue_identity_check", lambda c, req: not seen.append((c, req)))
    assert cli._check_glue_identities(40, 7)
    rng, want = random.Random(7), []
    for i in range(40):
        n = 4 + rng.randrange(5) + rng.randrange(5)
        c = random_two_tree(n, 7 * 1000 + i)
        pool = [e for e in c.edges() if c.attachments[-1][0] not in e]
        rng.shuffle(pool)
        req: list = []
        for e in pool:
            if rng.random() < 0.4 and component_count(n, req + [e]) == n - len(req) - 1:
                req.append(e)
        want.append((c, req))
    assert seen == want and sum(map(len, (req for _, req in want))) > 40


def test_verify_extremal_guard(capsys):
    code, _, err = run(capsys, "verify", "extremal", "--n-max", "9")
    assert code == 2
    assert "n-max" in err


def _one_more(f, index=None):
    """``f`` returning one more, or one more in item ``index`` of the tuple it returns."""
    def shifted(*args):
        got = f(*args)
        if index is None:
            return got + 1
        return (*got[:index], got[index] + 1, *got[index + 1:])
    return shifted


@pytest.mark.parametrize(
    "module, name, stand_in, check",
    [
        (extremal, "glue_identity_check", lambda *a, **k: False, "glued-pair count identities"),
        (counting, "chain_edge_counts", _one_more(counting.chain_edge_counts, 0), "chain Fibonacci closed forms"),
        (counting, "chain_edge_counts", _one_more(counting.chain_edge_counts, 2), "chain Fibonacci closed forms"),
        (counting, "count_containing", _one_more(counting.count_containing), "deletion-contraction consistency"),
    ],
    ids=["glued-pair", "chain-start", "chain-tip", "deletion-contraction"],
)
def test_verify_failure_exit_5(capsys, monkeypatch, module, name, stand_in, check):
    # each identities check fails alone: the glued-pair check stubbed, the other two
    # comparing against a closed form or an oracle that is off by one
    monkeypatch.setattr(module, name, stand_in)
    code, out, err = run(capsys, "verify", "identities", "--trials", "3", "--seed", "0")
    assert code == 5
    assert out.count("[FAIL]") == 1 and f"[FAIL] {check}\n" in out
    assert err == f"error: invariant failed: {check}\n"
    # under --json the report follows the error line
    code_json, out_json, err_json = run(capsys, "verify", "identities", "--trials", "3", "--json")
    assert (code_json, out_json) == (code, out)
    error_line, line = err_json.splitlines(True)
    assert error_line == err
    assert json.loads(line)["outputs"]["checks"][check] is False


# sha256 of `twotrees [SUBCOMMAND] --help` at 80 columns: the CLI's usage
# text, byte for byte.
HELP_SHA256 = {
    "": "df2730da09715a2f5ecfbaaa1b1598a14bb5d95e40e961298edfb652b638eb1e",
    "gen": "631906904107446eb869bb73bb1c42c064ad2fde6cef18133c0c47a15a8bbdde",
    "order": "cbb62edc8a8e72f7fcf517272ce46af83c8b2c0c77ba0145fc52aa7c9d921f73",
    "count": "a6ebc661b3d6a9137227b3f30f526f89e6cba0621e9c9ebbe73739f7851d06a5",
    "enumerate": "bd2486b631b2bc00d8340e77deeafa3d3ef55a3c7dfab7c36e0ceb6e6b189839",
    "verify": "2e6f38726d6ce817ff75cba400dfe6d3286efcf3b6b39b12c3f0ebd9a2ce548f",
    "survey": "34a1850956ec450ad5649bbe6e1396d6bf67b266bc20064c30c5be7fef439f66",
    "improve": "238242580afb30d2b429e2eacae2318234115f24c4c627b95f2d31f3aba1eeef",
}


@pytest.mark.parametrize("subcommand", HELP_SHA256, ids=[s or "twotrees" for s in HELP_SHA256])
def test_help_text_is_pinned(capsys, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([subcommand, "--help"] if subcommand else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[subcommand]


def test_only_the_chosen_subcommand_gets_its_arguments():
    names = ["gen", "order", "count", "enumerate", "verify", "survey", "improve"]
    for chosen in (None, "nosuch", *names):
        sub = cli._build_parser(chosen)._subparsers._group_actions[0]
        assert list(sub.choices) == names
        for name, parser in sub.choices.items():  # -h alone, or the full set
            assert (len(parser._actions) > 1) == (name == chosen), (chosen, name)


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--method", "bogus"])
    assert exc.value.code == 2


def test_missing_input_exit_2(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2
    assert "--in" in err or "--family" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "book", "5", "--out", "{dir}"],
        ["enumerate", "--family", "book", "--n", "4", "--out", "{dir}"],
        ["improve", "min", "--family", "path-square", "--n", "6", "--out", "{dir}"],
        ["improve", "max", "--family", "book", "--n", "6", "--out", "{dir}"],
        ["count", "--in", "{dir}"],
        ["count", "--in", "{latin1}"],
        ["count", "--method", "kirchhoff", "--in", "{latin1}"],
        ["order", "--in", "{latin1}"],
        ["enumerate", "--in", "{latin1}"],
        ["improve", "max", "--in", "{latin1}"],
    ],
)
def test_bad_paths_and_bytes_exit_2_with_one_error_line(capsys, tmp_path, argv):
    latin1 = tmp_path / "g.edges"
    latin1.write_bytes("3 3\n0 1\n0 2\n1 2\n# é\n".encode("latin-1"))
    paths = {"dir": str(tmp_path), "latin1": str(latin1)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["enumerate", "--limit", "-1"], "2 1\n0 1\n", "--limit must be nonnegative, got -1"),
        (["count"], "3 3\n0 1 2\n0 2\n1 2\n", "edge line must be 'u v', got '0 1 2'"),
        (["order"], "4\n2 0 1\n3 0 4\n", "attachment line '3 0 4' outside vertex range [0, 4)"),
        (["count"], "4\n2 0 1\n2 0 1\n", "attachment line '2 0 1' introduces vertex 2 a second time"),
    ],
)
def test_malformed_input_exits_2_naming_the_fault(capsys, tmp_path, argv, text, message):
    target = tmp_path / "g.txt"
    target.write_text(text)
    code, out, err = run(capsys, *argv, "--in", str(target))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--trials", "-3"], "--trials"),
        (["bounds", "--trials", "0"], "--trials"),
        (["identities", "--trials", "-3"], "--trials"),
        (["bounds", "--n-max", "2"], "n-max"),
        (["identities", "--n-max", "2", "--trials", "2"], "--n-max"),
        (["oracle", "--n-max", "4", "--trials", "9", "--seed", "3"], "--trials"),
        (["oracle", "--seed", "3"], "--seed"),
        (["extremal", "--trials", "5"], "--trials"),
        (["extremal", "--n-max", "5", "--seed", "0"], "--seed"),
    ],
)
def test_verify_rejects_out_of_range_arguments(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag in err


def _enumerate_book_14_child(*flags: str) -> subprocess.Popen:
    """``python -m twotrees enumerate`` of book(14), about 2 MB of stream, on pipes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "twotrees", "enumerate", "--family", "book", "--n", "14", *flags],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def test_closed_stdout_pipe_exits_0_quietly():
    for flags in ([], ["--json"]):  # a report follows only a stream read whole
        with _enumerate_book_14_child(*flags) as proc:
            assert proc.stdout.readline() == b"# n=14 expected=28672\n"
            proc.stdout.close()  # the tree lines that follow overrun the pipe buffer
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (0, b""), flags


def test_a_reader_that_stops_mid_line_ends_the_stream_with_exit_0():
    # `enumerate ... | head -c 100`: head exits after 100 bytes, and the
    # stream's next write meets a closed pipe
    with _enumerate_book_14_child() as proc:
        head = subprocess.Popen(["head", "-c", "100"], stdin=proc.stdout, stdout=subprocess.PIPE)
        proc.stdout.close()  # head holds the only read end
        out, _ = head.communicate(timeout=60)
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")
    _, lines = _enumerate_stdout("--family", "book", "--n", "14", "--limit", "5")
    assert out.decode() == "".join(line + "\n" for line in lines)[:100]


# Every --in command, run on each fuzzed input; closed-form exits 2 on a file.
FUZZ_COMMANDS = [
    ["order"],
    *(["count", "--method", m] for m in ("auto", "kirchhoff", "recurrence", "closed-form", "brute")),
    ["enumerate", "--limit", "3"],
    ["improve", "min"],
    ["improve", "max"],
]
FUZZ_EXIT_CODES = {cli.EXIT_OK, cli.EXIT_RANGE, cli.EXIT_NOT_TWO_TREE, cli.EXIT_MISMATCH, cli.EXIT_INVARIANT}


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory) -> Path:
    """One input file, rewritten for each fuzzed example."""
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def _run_every_command(path: Path, text: str | bytes) -> None:
    """Each command on ``text``, as UTF-8 or as raw bytes, exits with a
    documented code and raises nothing; stderr is empty on success, and one
    ``error:`` line otherwise."""
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    for argv in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*argv, "--in", str(path)])
        assert code in FUZZ_EXIT_CODES, (argv, text, code)
        if code == cli.EXIT_OK:
            assert err.getvalue() == "", (argv, text)
        else:
            assert err.getvalue().startswith("error: "), (argv, text, err.getvalue())
            assert err.getvalue().count("\n") == 1, (argv, text, err.getvalue())


@pytest.mark.parametrize("argv", FUZZ_COMMANDS, ids=" ".join)
def test_in_with_family_or_n_exits_2(capsys, tmp_path, argv):
    # the file and a family together: neither is read or reported in place of the other
    target = tmp_path / "b5.edges"
    target.write_text(serialize_edge_list(book(5)))
    want = (2, "", f"error: {cli.EITHER_INPUT}\n")
    assert run(capsys, *argv, "--in", str(target), "--family", "path-square", "--n", "9") == want
    if "closed-form" not in argv:  # which asks for --family before reading anything else
        assert run(capsys, *argv, "--in", str(target), "--n", "9") == want


_tokens = st.one_of(st.integers(-2, 12).map(str), st.text(max_size=6))
_lines = st.one_of(st.lists(_tokens, max_size=4).map(" ".join), st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(_lines, max_size=8))
def test_fuzzed_lines_end_in_a_documented_exit_code(fuzz_input, lines):
    _run_every_command(fuzz_input, "\n".join(lines) + "\n")


@st.composite
def _perturbed_two_trees(draw) -> str:
    """A random 2-tree in either format, relabelled, then with up to two rows
    dropped, swapped, reversed or given an arbitrary vertex."""
    n = draw(st.integers(2, 9))
    c = random_two_tree(n, draw(st.integers(0, 2**32 - 1)))
    as_edges = draw(st.booleans())
    text = serialize_edge_list(c) if as_edges else serialize_construction(c)
    header, *rows = (line.split() for line in text.splitlines())
    perm = draw(st.permutations(range(n)))
    rows = [[str(perm[int(t)]) for t in row] for row in rows]
    if as_edges and draw(st.booleans()):  # a relabelled edge list, canonical again
        rows = sorted(sorted(row, key=int) for row in rows)
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["drop", "swap", "reverse", "redirect"]))
        if op == "drop":
            del rows[i]
        elif op == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "reverse":
            rows[i].reverse()
        else:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = str(draw(st.integers(-1, n)))
    return "".join(" ".join(row) + "\n" for row in [header, *rows])


@settings(max_examples=200, deadline=None)
@given(_perturbed_two_trees())
def test_perturbed_two_trees_end_in_a_documented_exit_code(fuzz_input, text):
    _run_every_command(fuzz_input, text)


@st.composite
def _spliced_two_trees(draw) -> bytes:
    """A random 2-tree in either format, as bytes, with one to three short
    runs replaced by random bytes, which are often not UTF-8."""
    c = random_two_tree(draw(st.integers(2, 9)), draw(st.integers(0, 2**32 - 1)))
    data = (serialize_edge_list(c) if draw(st.booleans()) else serialize_construction(c)).encode()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 4)))
        data = data[:i] + draw(st.binary(min_size=1, max_size=4)) + data[j:]
    return data


@settings(max_examples=200, deadline=None)
@given(_spliced_two_trees())
def test_spliced_bytes_end_in_a_documented_exit_code(fuzz_input, data):
    _run_every_command(fuzz_input, data)
