from __future__ import annotations

import json
import time

import pytest

from twotrees import cli
from twotrees.formats import parse_edge_list


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


def test_gen_json_report(capsys):
    code, out, _ = run(capsys, "gen", "book", "4", "--json", "--out", "/dev/null")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["family"] == "book"
    assert report["inputs"]["format"] == "edges"
    assert report["wall_time_ms"] >= 0


def test_enumerate_internal_mismatch_exit_5(capsys, monkeypatch):
    monkeypatch.setattr(cli.enumeration, "expected_tree_count", lambda c: 999)
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


def test_improve_invariant_failure_exit_5(capsys, monkeypatch):
    real = cli.extremal.count_via_construction
    monkeypatch.setattr(
        cli.extremal, "count_via_construction", lambda c, required=(): real(c, required) + 1
    )
    code, out, err = run(capsys, "improve", "min", "--family", "path-square", "--n", "6")
    assert code == 5 and out == ""
    assert err.startswith("error: invariant failed: ")


def test_count_mismatch_exit_4(capsys, tmp_path, monkeypatch):
    target = tmp_path / "g.edges"
    run(capsys, "gen", "book", "6", "--out", str(target))
    monkeypatch.setattr(cli.counting, "count_via_construction", lambda c: 1)
    code, _, err = run(capsys, "count", "--in", str(target), "--method", "auto")
    assert code == 4
    assert "mismatch" in err


def _schema():
    from importlib import resources

    return json.loads(
        resources.files("twotrees").joinpath("run_report.schema.json").read_text()
    )


def test_count_json_report_schema(capsys):
    import jsonschema

    code, out, _ = run(capsys, "count", "--family", "book", "--n", "8", "--json")
    assert code == 0
    report = json.loads(out)
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
        out = capsys.readouterr().out
        assert code == 0, argv
        report = json.loads(out.strip().splitlines()[-1])
        jsonschema.validate(report, schema)
        assert report["command"] == " ".join(argv)


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
    code, out, _ = run(
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
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["truncated"] is True
    assert report["outputs"]["emitted"] == 1000
    assert len(target.read_text().strip().splitlines()) == 1001


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
    winner = parse_edge_list(target.read_text())
    assert winner.n == 5


def test_improve_max_cli(capsys, tmp_path):
    source = tmp_path / "g.edges"
    run(capsys, "gen", "book", "5", "--out", str(source))
    code, out, _ = run(capsys, "improve", "max", "--in", str(source))
    assert code == 0
    payload = json.loads(out)
    assert payload["t_g"] == "20" and payload["t_gprime"] == "21"


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


def test_verify_extremal_guard(capsys):
    code, _, err = run(capsys, "verify", "extremal", "--n-max", "9")
    assert code == 2
    assert "n-max" in err


def test_verify_failure_exit_5(capsys, monkeypatch):
    monkeypatch.setattr(cli.extremal, "glue_identity_check", lambda *a, **k: False)
    code, out, err = run(capsys, "verify", "identities", "--trials", "3", "--seed", "0")
    assert code == 5
    assert "[FAIL]" in out
    assert "invariant failed" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--method", "bogus"])
    assert exc.value.code == 2


def test_missing_input_exit_2(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2
    assert "--in" in err or "--family" in err
