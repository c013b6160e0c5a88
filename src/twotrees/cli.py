"""Command-line front end.

Subcommands::

    gen        write a named family as an edge list or construction file
    order      print a 2-simplicial ordering of an input graph
    count      exact spanning-tree count via a chosen (or cross-checked) method
    enumerate  stream every spanning tree, optionally truncated
    verify     run a named invariant suite, nonzero exit on any failure
    survey     min/max tree counts over the exhaustive small corpus (JSON)
    improve    run the count-decreasing or count-increasing surgery

Exit codes: 0 success, 2 usage or out-of-range input, 3 not a 2-tree,
4 cross-check mismatch, 5 invariant failure.  ``--json`` emits a RunReport
(validated by ``run_report.schema.json``); counts are always decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import counting, enumeration, extremal, formats, generators, recognition
from .errors import (
    CrossCheckError,
    FormatError,
    InvariantError,
    NotTwoTreeError,
    OutOfRangeError,
    TooLargeError,
    TwoTreeError,
)
from .graph import SimpleGraph, TwoTreeConstruction

EXIT_OK = 0
EXIT_RANGE = 2
EXIT_NOT_TWO_TREE = 3
EXIT_MISMATCH = 4
EXIT_INVARIANT = 5

FAMILIES = {
    "book": generators.book,
    "path-square": generators.path_square,
    "fan": generators.fan,
    "chain": generators.random_chain,
    "random": generators.random_two_tree,
}
CLOSED_FORM_FAMILIES = {
    "book": counting.count_book,
    "path-square": counting.count_two_simplicial,
    "fan": counting.count_two_simplicial,
    "chain": counting.count_two_simplicial,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        outputs = args.handler(args)
    except (OutOfRangeError, TooLargeError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except NotTwoTreeError as exc:
        print(f"error: not a 2-tree ({exc.reason.value}): {exc}", file=sys.stderr)
        return EXIT_NOT_TWO_TREE
    except CrossCheckError as exc:
        print(f"error: cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except TwoTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE

    failed = bool(outputs.pop("_failed", False))
    if getattr(args, "json", False):
        report = {
            "command": " ".join(argv),
            "inputs": _echo_inputs(args),
            "outputs": outputs,
            "wall_time_ms": (time.perf_counter() - started) * 1000.0,
        }
        print(json.dumps(report, sort_keys=True))
    return EXIT_INVARIANT if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotrees", description="Exact spanning-tree toolkit for 2-trees"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a named 2-tree family")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["edges", "construction"], default="edges")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("order", help="print a 2-simplicial (deletion) ordering")
    _input_flags(p)
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("count", help="exact spanning-tree count")
    _input_flags(p)
    p.add_argument(
        "--method",
        choices=["auto", "kirchhoff", "recurrence", "closed-form", "brute"],
        default="auto",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="stream all spanning trees")
    _input_flags(p)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=["bounds", "extremal", "identities", "oracle"])
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("survey", help="extremal sweep over the exhaustive corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_survey)

    p = sub.add_parser("improve", help="run one extremal surgery")
    p.add_argument("direction", choices=["min", "max"])
    _input_flags(p)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(handler=_cmd_improve)

    return parser


def _input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", type=Path, default=None)
    p.add_argument("--family", choices=sorted(FAMILIES), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")


def _load_construction(args) -> TwoTreeConstruction:
    if args.infile is not None:
        parsed = formats.sniff_and_parse(args.infile.read_text(), two_tree=True)
        if isinstance(parsed, TwoTreeConstruction):
            return parsed
        return recognition.recognize(parsed)
    if args.family is None or args.n is None:
        raise OutOfRangeError("provide either --in FILE or --family NAME with --n N")
    return _generate(args.family, args.n, args.seed)


def _load_graph(args, two_tree: bool = False) -> SimpleGraph:
    if args.infile is not None:
        parsed = formats.sniff_and_parse(args.infile.read_text(), two_tree)
        if isinstance(parsed, TwoTreeConstruction):
            return parsed.realize()
        return parsed
    if args.family is None or args.n is None:
        raise OutOfRangeError("provide either --in FILE or --family NAME with --n N")
    return _generate(args.family, args.n, args.seed).realize()


def _generate(family: str, n: int, seed: int) -> TwoTreeConstruction:
    maker = FAMILIES[family]
    if family in ("chain", "random"):
        return maker(n, seed)
    return maker(n)


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_gen(args) -> dict:
    c = _generate(args.family, args.n, args.seed)
    if args.format == "edges":
        _write(formats.serialize_edge_list(c.realize()), args.out)
    else:
        _write(formats.serialize_construction(c), args.out)
    return {"n": args.n, "family": args.family, "format": args.format}


def _cmd_order(args) -> dict:
    c = _load_construction(args)
    deletion_order = [v for v, _ in reversed(c.attachments)] + [c.base[0], c.base[1]]
    print(" ".join(str(v) for v in deletion_order))
    return {"order": deletion_order}


def _cmd_count(args) -> dict:
    method = args.method
    outputs: dict = {"method": method}
    if method == "closed-form":
        if args.family not in CLOSED_FORM_FAMILIES:
            raise OutOfRangeError(
                "closed-form counting needs --family book, path-square, fan, or chain"
            )
        if args.n is None:
            raise OutOfRangeError("closed-form counting needs --n")
        value = CLOSED_FORM_FAMILIES[args.family](args.n)
        outputs.update({"n": args.n, "family": args.family})
    elif method == "kirchhoff":
        g = _load_graph(args)
        value = counting.kirchhoff_count(g)
        outputs["n"] = g.n
    elif method == "brute":
        g = _load_graph(args)
        value = counting.brute_force_count(g)
        outputs["n"] = g.n
    elif method == "recurrence":
        c = _load_construction(args)
        value = counting.count_via_construction(c)
        outputs["n"] = c.n
    else:  # auto: cross-check the determinant against the linear engine
        c = _load_construction(args)
        by_det = counting.kirchhoff_count(c.realize())
        by_rec = counting.count_via_construction(c)
        if by_det != by_rec:
            raise CrossCheckError(f"kirchhoff={by_det} vs recurrence={by_rec}")
        value = by_det
        outputs["n"] = c.n
    if args.family is not None:
        outputs["family"] = args.family
    outputs["count"] = str(value)
    if not args.json:
        print(value)
    return outputs


def _cmd_enumerate(args) -> dict:
    if args.limit is not None and args.limit < 0:
        raise OutOfRangeError(f"--limit must be nonnegative, got {args.limit}")
    c = _load_construction(args)
    expected = enumeration.expected_tree_count(c)
    limit = args.limit
    sink = sys.stdout if args.out is None else open(args.out, "w")
    emitted = 0
    try:
        sink.write(formats.tree_stream_header(c.n, expected) + "\n")
        for tree in enumeration.enumerate_spanning_trees(c):
            if limit is not None and emitted >= limit:
                break
            sink.write(formats.serialize_tree(tree) + "\n")
            emitted += 1
    finally:
        if sink is not sys.stdout:
            sink.close()
    truncated = limit is not None and emitted == limit and expected > limit
    if not truncated and emitted != expected:
        print(
            f"error: invariant failed: emitted {emitted} trees, expected {expected}",
            file=sys.stderr,
        )
        return {
            "_failed": True,
            "emitted": emitted,
            "expected": str(expected),
            "truncated": truncated,
        }
    return {"emitted": emitted, "expected": str(expected), "truncated": truncated}


def _cmd_survey(args) -> dict:
    summary = extremal.survey_extremal(args.n).to_json()
    if not args.json:
        print(json.dumps(summary, sort_keys=True))
    return summary


def _cmd_improve(args) -> dict:
    g = _load_graph(args, two_tree=True)
    if args.direction == "min":
        rep = extremal.improve_min(g)
        if args.out is not None:
            args.out.write_text(formats.serialize_edge_list(rep.winner_graph))
        outputs = {
            "direction": "min",
            "t_g": str(rep.t_g),
            "t_g1": str(rep.t_g1),
            "t_g2": str(rep.t_g2),
            "gamma": str(rep.gamma),
            "winner": rep.winner,
            "winner_count": str(rep.winner_count),
        }
    else:
        rep = extremal.improve_max(g)
        if args.out is not None:
            args.out.write_text(formats.serialize_edge_list(rep.g_prime))
        outputs = {
            "direction": "max",
            "crucial_edge": list(rep.crucial_edge),
            "p": rep.p,
            "t_g": str(rep.t_g),
            "t_gprime": str(rep.t_gprime),
        }
    if not args.json:
        print(json.dumps(outputs, sort_keys=True))
    return outputs


def _cmd_verify(args) -> dict:
    suite = args.suite
    checks: list[tuple[str, bool]] = []
    if suite == "oracle":
        n_max = 8 if args.n_max is None else args.n_max
        if not 3 <= n_max <= 8:
            raise OutOfRangeError(f"oracle suite needs 3 <= n-max <= 8, got {n_max}")
        for n in range(3, n_max + 1):
            ok = all(
                counting.kirchhoff_count(g) == counting.brute_force_count(g)
                for g in generators.all_labeled_two_trees(n)
            )
            checks.append((f"determinant equals subset brute force, n={n}", ok))
    elif suite == "bounds":
        trials = 200 if args.trials is None else args.trials
        n_max = 16 if args.n_max is None else args.n_max
        ok = True
        for i in range(trials):
            n = 3 + (i % max(n_max - 2, 1))
            c = generators.random_two_tree(n, args.seed + i)
            lo, hi = counting.verify_bounds(c.realize())
            ok = ok and lo and hi
        checks.append((f"2^(n-2) <= T <= 3^(n-2) over {trials} random 2-trees", ok))
    elif suite == "extremal":
        n_max = 8 if args.n_max is None else args.n_max
        if not 4 <= n_max <= 8:
            raise OutOfRangeError(f"extremal suite needs 4 <= n-max <= 8, got {n_max}")
        for n in range(4, n_max + 1):
            summary = extremal.survey_extremal(n)
            lo, hi = extremal.expected_extremes(n)
            ok = (
                summary.min_count == lo
                and summary.max_count == hi
                and summary.min_attainers_all_books
                and summary.max_attainers_all_two_simplicial
            )
            checks.append((f"extremes and attainers match closed forms, n={n}", ok))
    else:  # identities
        trials = 50 if args.trials is None else args.trials
        checks.append(
            ("glued-pair count identities", _check_glue_identities(trials, args.seed))
        )
        checks.append(
            ("chain Fibonacci closed forms", _check_chain_formulas(max(trials // 5, 5), args.seed))
        )
        checks.append(
            ("deletion-contraction consistency", _check_deletion_contraction(trials, args.seed))
        )
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    failed = [name for name, ok in checks if not ok]
    out: dict = {"suite": suite, "checks": {name: ok for name, ok in checks}}
    if failed:
        print(f"error: invariant failed: {failed[0]}", file=sys.stderr)
        out["_failed"] = True
    return out


def _check_glue_identities(trials: int, seed: int) -> bool:
    import random as _random

    rng = _random.Random(seed)
    for i in range(trials):
        h = generators.random_two_tree(3 + rng.randrange(5), seed * 1000 + 2 * i).realize()
        j = generators.random_two_tree(3 + rng.randrange(5), seed * 1000 + 2 * i + 1).realize()
        h_edges, j_edges = h.edges(), j.edges()
        h2, j2, shared = extremal.align_for_glue(
            h, h_edges[rng.randrange(len(h_edges))], j, j_edges[rng.randrange(len(j_edges))]
        )
        req = _random_acyclic_subset(j2, shared, rng)
        if not extremal.glue_identity_check(h2, j2, shared, req):
            return False
    return True


def _random_acyclic_subset(j: SimpleGraph, shared, rng) -> list:
    """An acyclic edge set of j avoiding its smallest off-edge degree-2 vertex."""
    from .graph import spanning_forest_components

    off = [w for w in range(j.n) if j.degree(w) == 2 and w not in shared]
    v = min(off)
    pool = [e for e in j.edges() if v not in e]
    rng.shuffle(pool)
    chosen: list = []
    for e in pool:
        if rng.random() < 0.4:
            if spanning_forest_components(j.n, chosen + [e]) is not None:
                chosen.append(e)
    return chosen


def _check_chain_formulas(trials: int, seed: int) -> bool:
    import random as _random

    from .graph import edge as _edge

    rng = _random.Random(seed)
    for i in range(trials):
        host = generators.random_two_tree(3 + rng.randrange(5), seed * 77 + i).realize()
        edges = host.edges()
        start = edges[rng.randrange(len(edges))]
        alpha = counting.kirchhoff_count(host)
        beta = counting.count_containing(host, [start])
        for p in range(1, 4):
            grown, records = generators.extend_with_chain(host, start, p, seed + p)
            through_start, _, through_tip = counting.chain_edge_counts(alpha, beta, p)
            tip_vertex, tip_attach = records[-1]
            tip_edge = _edge(tip_vertex, tip_attach[0])
            if counting.count_containing(grown, [start]) != through_start:
                return False
            if counting.count_containing(grown, [tip_edge]) != through_tip:
                return False
    return True


def _check_deletion_contraction(trials: int, seed: int) -> bool:
    import random as _random

    rng = _random.Random(seed)
    for i in range(trials):
        g = generators.random_two_tree(4 + rng.randrange(7), seed * 31 + i).realize()
        edges = g.edges()
        e = edges[rng.randrange(len(edges))]
        total = counting.kirchhoff_count(g)
        with_e = counting.count_containing(g, [e])
        without = SimpleGraph.from_edges(g.n, [f for f in edges if f != e])
        if total != with_e + counting.kirchhoff_count(without):
            return False
    return True


def _echo_inputs(args) -> dict:
    fields = ("n", "seed", "family", "method", "suite", "n_max", "trials", "limit", "direction", "format")
    out = {}
    for f in fields:
        val = getattr(args, f, None)
        if val is not None:
            out[f] = val
    infile = getattr(args, "infile", None)
    if infile is not None:
        out["file"] = str(infile)
    return out


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
