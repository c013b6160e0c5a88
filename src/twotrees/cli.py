"""Command-line front end.

Subcommands::

    gen        write a named family as an edge list or construction file
    order      print a 2-simplicial ordering of an input graph (heap-driven
               degree-2 peel, O(n log n), ties to the smallest index)
    count      exact spanning-tree count via a chosen method; the default
               ``auto`` runs the linear engine and, for n <= 100, checks it
               against the determinant (the RunReport says which)
    enumerate  stream every spanning tree, optionally truncated
    verify     run a named invariant suite, nonzero exit on any failure
    survey     min/max tree counts over the exhaustive small corpus (JSON)
    improve    run the count-decreasing or count-increasing surgery

Exit codes: 0 success, 2 usage or out-of-range input, 3 not a 2-tree,
4 cross-check mismatch, 5 invariant failure.  ``--json`` adds a RunReport
(``run_report.schema.json``) as stderr's last line and leaves stdout as it is;
counts are always decimal strings.

Handlers import ``counting``, ``enumeration``, ``extremal``, ``generators``,
``recognition`` and ``json`` where they use them, so a run loads only what its
subcommand runs: an ``--in`` run builds no family and never loads ``generators``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from contextlib import nullcontext

from . import formats
from .errors import (
    CrossCheckError,
    FormatError,
    InvariantError,
    NotTwoTreeError,
    OutOfRangeError,
    TwoTreeError,
)
from .graph import Edge, SimpleGraph, TwoTreeConstruction, _EdgeCodes, _union_find

EXIT_OK = 0
EXIT_RANGE = 2
EXIT_NOT_TWO_TREE = 3
EXIT_MISMATCH = 4
EXIT_INVARIANT = 5

AUTO_CROSS_CHECK_MAX_N = 100  # count --method auto runs Kirchhoff only up to here
EITHER_INPUT = "provide either --in FILE or --family NAME with --n N"

# The flags each verify suite reads: name -> (default, lowest, highest), None unbounded.
VERIFY_FLAGS = {
    "oracle": {"n_max": (8, 3, 8)},
    "bounds": {"trials": (200, 1, None), "n_max": (16, 3, None), "seed": (0, None, None)},
    "extremal": {"n_max": (8, 4, 8)},
    "identities": {"trials": (50, 1, None), "seed": (0, None, None)},
}

FAMILIES = {  # family -> the name of its maker in ``generators``
    "book": "book",
    "path-square": "path_square",
    "fan": "fan",
    "chain": "random_chain",
    "random": "random_two_tree",
}
CLOSED_FORM_FAMILIES = {  # family -> its closed form in ``counting``, its generator's least n
    "book": ("count_book", 2),
    "path-square": ("count_two_simplicial", 2),
    "fan": ("count_two_simplicial", 2),
    "chain": ("count_two_simplicial", 3),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The top-level parser takes no option but --help, so its first other token
    # is the subcommand argparse reads; if that is not a name, it stops there.
    args = _build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    started = time.perf_counter()
    try:
        outputs = args.handler(args)
        failed = bool(outputs.pop("_failed", False))
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:  # the reader stopped early (`| head`): not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except NotTwoTreeError as exc:
        print(f"error: not a 2-tree ({exc.reason.value}): {exc}", file=sys.stderr)
        return EXIT_NOT_TWO_TREE
    except CrossCheckError as exc:
        print(f"error: cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (TwoTreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    if args.json:  # the RunReport is stderr's last line, never on the data stream
        import json
        report = {
            "command": " ".join(argv),
            "inputs": _echo_inputs(args),
            "outputs": outputs,
            "wall_time_ms": (time.perf_counter() - started) * 1000.0,
        }
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return EXIT_INVARIANT if failed else EXIT_OK


def _build_parser(chosen: str | None) -> argparse.ArgumentParser:
    """Every subcommand's name and help, and the arguments of ``chosen`` alone:
    argparse reads no other subcommand's, so a start builds only what it parses."""
    parser = argparse.ArgumentParser(
        prog="twotrees", description="Exact spanning-tree toolkit for 2-trees"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a named 2-tree family")
    if chosen == "gen":
        p.add_argument("family", choices=sorted(FAMILIES))
        p.add_argument("n", type=int)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=["edges", "construction"], default="edges")
        p.add_argument("--out", default=None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("order", help="print a 2-simplicial (deletion) ordering")
    if chosen == "order":
        _input_flags(p)
        p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("count", help="exact spanning-tree count")
    if chosen == "count":
        _input_flags(p)
        p.add_argument(
            "--method",
            choices=["auto", "kirchhoff", "recurrence", "closed-form", "brute"],
            default="auto",
        )
        p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="stream all spanning trees")
    if chosen == "enumerate":
        _input_flags(p)
        p.add_argument("--out", default=None)
        p.add_argument("--limit", type=int, default=None)
        p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run an invariant suite")
    if chosen == "verify":
        p.add_argument("suite", choices=sorted(VERIFY_FLAGS))
        p.add_argument("--n-max", dest="n_max", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("survey", help="extremal sweep over the exhaustive corpus")
    if chosen == "survey":
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=_cmd_survey)

    p = sub.add_parser("improve", help="run one extremal surgery")
    if chosen == "improve":
        p.add_argument("direction", choices=["min", "max"])
        _input_flags(p)
        p.add_argument("--out", default=None)
        p.set_defaults(handler=_cmd_improve)

    return parser


def _input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--family", choices=sorted(FAMILIES), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")


def _read_input(path: str) -> str:
    """The text of an ``--in`` file; bytes that are not UTF-8 are a FormatError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load(args) -> TwoTreeConstruction | tuple[int, _EdgeCodes]:
    """The ``--in`` file as parsed (an edge list stays ``(n, codes)``, with no
    graph built), or the ``--family`` construction; never both."""
    if args.infile is not None and args.family is None and args.n is None:
        _refuse_seed(args, "--in FILE")
        return formats.sniff_and_parse(_read_input(args.infile))
    if args.infile is not None or args.family is None or args.n is None:
        raise OutOfRangeError(EITHER_INPUT)
    return _generate(args)


def _load_construction(args) -> TwoTreeConstruction:
    """The input as a construction; an edge list is recognized here, once."""
    loaded = _load(args)
    if isinstance(loaded, TwoTreeConstruction):
        return loaded
    from . import recognition
    return recognition.recognize(*loaded)


def _generate(args) -> TwoTreeConstruction:
    from . import generators
    maker = getattr(generators, FAMILIES[args.family])
    if args.family not in ("chain", "random"):
        _refuse_seed(args, f"{args.family} family")
        return maker(args.n)
    args.seed = 0 if args.seed is None else args.seed  # the report echoes the seed used
    return maker(args.n, args.seed)


def _refuse_seed(args, what: str) -> None:
    if args.seed is not None:
        raise OutOfRangeError(f"{what} does not read --seed")


def _write(text: str, out: str | None) -> None:
    with nullcontext(sys.stdout) if out is None else open(out, "w") as sink:
        sink.write(text)


def _cmd_gen(args) -> dict:
    c = _generate(args)
    if args.format == "edges":
        _write(formats.serialize_edge_list(c), args.out)
    else:
        _write(formats.serialize_construction(c), args.out)
    return {"n": args.n, "family": args.family, "format": args.format}


def _cmd_order(args) -> dict:
    loaded = _load(args)
    if isinstance(loaded, TwoTreeConstruction):
        deletion_order = [*reversed(loaded.order), *loaded.base]
    else:  # an edge list's peel is the answer: no attach-edge ids, no construction
        from . import recognition
        deletion_order, base = recognition._eliminate(*loaded)[:2]  # the peel state is dropped
        deletion_order += base
    print(" ".join(map(str, deletion_order)))
    return {"order": deletion_order}


def _cmd_count(args) -> dict:
    from . import counting
    method = args.method
    outputs: dict = {"method": method}
    if method == "closed-form":
        if args.family not in CLOSED_FORM_FAMILIES:
            raise OutOfRangeError(
                "closed-form counting needs --family book, path-square, fan, or chain"
            )
        if args.n is None:
            raise OutOfRangeError("closed-form counting needs --n")
        if args.infile is not None:
            raise OutOfRangeError(EITHER_INPUT)
        _refuse_seed(args, "closed-form counting")
        closed_form, least_n = CLOSED_FORM_FAMILIES[args.family]
        from . import generators
        generators._require_n(args.n, least_n)  # the family's own bound and message
        value = getattr(counting, closed_form)(args.n)
        outputs["n"] = args.n
    elif method in ("kirchhoff", "brute"):  # each oracle checks its own caps
        g = _load(args)
        if not isinstance(g, TwoTreeConstruction):
            n, codes = g
            g = SimpleGraph.from_edges(n, codes.edges(n))
        oracle = counting.kirchhoff_count if method == "kirchhoff" else counting.brute_force_count
        value = oracle(g)
        outputs["n"] = g.n
    else:  # recurrence, or auto: the linear engine checked by the determinant up to a cap
        c = _load_construction(args)
        value = counting.count_via_construction(c)
        if method == "auto" and c.n > AUTO_CROSS_CHECK_MAX_N:
            outputs["cross_check"] = "skipped"
        elif method == "auto":
            by_det = counting.kirchhoff_count(c)
            if by_det != value:
                raise CrossCheckError(f"kirchhoff={by_det} vs recurrence={value}")
            outputs["cross_check"] = "kirchhoff"
        outputs["n"] = c.n
    if args.family is not None:
        outputs["family"] = args.family
    outputs["count"] = formats.decimal(value)
    print(outputs["count"])
    return outputs


def _cmd_enumerate(args) -> dict:
    if args.limit is not None and args.limit < 0:
        raise OutOfRangeError(f"--limit must be nonnegative, got {args.limit}")
    from . import enumeration
    c = _load_construction(args)
    expected = enumeration.expected_tree_count(c)
    limit = args.limit
    emitted = 0  # counted from the walk's blocks, never from ``expected``
    header = formats.tree_stream_header(c.n, expected)  # the one decimal conversion of ``expected``
    with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as sink:
        sink.write(header + "\n")
        for text, lines in enumeration.tree_stream_blocks(c) if limit != 0 else ():
            if limit is not None and emitted + lines >= limit:
                sink.write("".join(text.splitlines(True)[: limit - emitted]))
                emitted = limit
                break
            sink.write(text)
            emitted += lines
    truncated = limit is not None and emitted == limit and expected > limit
    outputs = {"emitted": emitted, "expected": header.rpartition("=")[2], "truncated": truncated}
    if not truncated and emitted != expected:
        print(
            f"error: invariant failed: emitted {emitted} trees, expected {outputs['expected']}",
            file=sys.stderr,
        )
        outputs["_failed"] = True
    return outputs


def _cmd_survey(args) -> dict:
    import json
    from . import extremal
    summary = extremal.survey_extremal(args.n).to_json()
    print(json.dumps(summary, sort_keys=True))
    return summary


def _cmd_improve(args) -> dict:
    import json
    from . import extremal
    c = _load_construction(args)
    if args.direction == "min":
        rep = extremal.improve_min(c)
        if args.out is not None:
            _write(formats.serialize_edge_list(rep.winner_graph), args.out)
        outputs = {
            "direction": "min",
            "t_g": formats.decimal(rep.t_g),
            "t_g1": formats.decimal(rep.t_g1),
            "t_g2": formats.decimal(rep.t_g2),
            "gamma": formats.decimal(rep.gamma),
            "winner": rep.winner,
            "winner_count": formats.decimal(rep.winner_count),
        }
    else:
        rep = extremal.improve_max(c)
        if args.out is not None:
            _write(formats.serialize_edge_list(rep.g_prime), args.out)
        outputs = {
            "direction": "max",
            "crucial_edge": list(rep.crucial_edge),
            "p": rep.p,
            "t_g": formats.decimal(rep.t_g),
            "t_gprime": formats.decimal(rep.t_gprime),
        }
    print(json.dumps(outputs, sort_keys=True))
    return outputs


def _cmd_verify(args) -> dict:
    from . import counting, generators
    suite = args.suite
    _verify_flags(args)
    checks: list[tuple[str, bool]] = []
    if suite == "oracle":
        for n in range(3, args.n_max + 1):
            ok = all(
                counting.kirchhoff_count(c) == counting.brute_force_count(c)
                for c in generators.all_labeled_two_trees(n)
            )
            checks.append((f"determinant equals subset brute force, n={n}", ok))
    elif suite == "bounds":
        trials, n_max = args.trials, args.n_max
        ok = True
        for i in range(trials):
            n = 3 + (i % max(n_max - 2, 1))
            c = generators.random_two_tree(n, args.seed + i)
            lo, hi = counting.verify_bounds(c)
            ok = ok and lo and hi
        checks.append((f"2^(n-2) <= T <= 3^(n-2) over {trials} random 2-trees", ok))
    elif suite == "extremal":
        from . import extremal
        for n in range(4, args.n_max + 1):
            summary = extremal.survey_extremal(n)
            lo, hi = counting.count_book(n), counting.count_two_simplicial(n)
            ok = (
                summary.min_count == lo
                and summary.max_count == hi
                and summary.min_attainers_all_books
                and summary.max_attainers_all_two_simplicial
            )
            checks.append((f"extremes and attainers match closed forms, n={n}", ok))
    else:  # identities
        trials, seed = args.trials, args.seed
        checks.append(
            ("glued-pair count identities", _check_glue_identities(trials, seed))
        )
        checks.append(
            ("chain Fibonacci closed forms", _check_chain_formulas(max(trials // 5, 5), seed))
        )
        checks.append(
            ("deletion-contraction consistency", _check_deletion_contraction(trials, seed))
        )
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    failed = [name for name, ok in checks if not ok]
    out: dict = {"suite": suite, "checks": {name: ok for name, ok in checks}}
    if failed:
        print(f"error: invariant failed: {failed[0]}", file=sys.stderr)
        out["_failed"] = True
    return out


def _verify_flags(args) -> None:
    """Fill in and range-check, on ``args``, the flags ``args.suite`` reads; any other flag set is an error."""
    table = VERIFY_FLAGS[args.suite]
    for name in ("trials", "n_max", "seed"):  # the order errors are reported in
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if name not in table:
            if value is not None:
                raise OutOfRangeError(f"{args.suite} suite does not read {flag}")
            continue
        default, lo, hi = table[name]
        value = default if value is None else value
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            need = f"{flag} >= {lo}" if hi is None else f"{lo} <= {flag} <= {hi}"
            raise OutOfRangeError(f"{args.suite} suite needs {need}, got {value}")
        setattr(args, name, value)


def _check_glue_identities(trials: int, seed: int) -> bool:
    from . import extremal, generators
    rng = random.Random(seed)
    for i in range(trials):
        n = 4 + rng.randrange(5) + rng.randrange(5)
        c = generators.random_two_tree(n, seed * 1000 + i)
        v = c.order[-1]
        pool = [e for e in c.edges() if v not in e]
        rng.shuffle(pool)
        req: list[Edge] = []
        for e in pool:
            if rng.random() < 0.4 and _union_find(n, [*req, e]):
                req.append(e)
        if not extremal.glue_identity_check(c, req):
            return False
    return True


def _check_chain_formulas(trials: int, seed: int) -> bool:
    from . import counting, generators
    rng = random.Random(seed)
    for i in range(trials):
        c = generators.random_two_tree(3 + rng.randrange(5), seed * 77 + i)
        start = rng.choice(c.edges())
        alpha = counting.count_via_construction(c)
        beta = counting.count_via_construction(c, [start])
        for p in range(1, 4):
            grown_c = generators.extend_with_chain(c, start, p, seed + p)
            through_start, _, through_tip = counting.chain_edge_counts(alpha, beta, p)
            tip_edge = grown_c.edges_by_id()[-2]  # the last vertex to its attach edge's smaller end
            if counting.count_via_construction(grown_c, [start]) != through_start:
                return False
            if counting.count_via_construction(grown_c, [tip_edge]) != through_tip:
                return False
    return True


def _check_deletion_contraction(trials: int, seed: int) -> bool:
    from . import counting, generators
    rng = random.Random(seed)
    for i in range(trials):
        c = generators.random_two_tree(4 + rng.randrange(7), seed * 31 + i)
        edges = c.edges()
        e = edges[rng.randrange(len(edges))]
        total = counting.kirchhoff_count(c)
        with_e = counting.count_containing(c, [e])
        without = SimpleGraph.from_edges(c.n, [f for f in edges if f != e])
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
