"""Benchmark of the twotrees CLI: four workloads timed end to end, one traced pass.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload enum-stream --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --trace 1  # the traced pass

With ``--trace 0`` each command of the workload runs as a ``python -m
twotrees`` subprocess, one after another, each after a run of
``reference.py``, and the workload repeats for ``--seconds``; times are
reported rescaled to the reference job's speed (see README.md).  With ``--trace 1`` the commands
of all four workloads are replayed in-process through ``twotrees.cli.main``,
once untraced and once traced, and per-layer metrics are reported.  Every
output is checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference
import workloads
from spans import Tracer, self_times

DEFAULT_SEED = 0
SETUP_RUNS = 5  # fewest cold starts kept for setup_s
# wall_ref_s and setup_s are rescaled to the speed at which reference.py takes this long.
REF_NOMINAL_S = 0.15
IMPORT_RUNS = 5
CHUNK = 10_000  # trees per batch when timing serialize_tree alone
PINS = Path(__file__).with_name("pinned.json")
WORK_DIR = ".perfbench_work"

# Per-layer metrics read from the traced pass: (workload, span name, field).
SPAN_METRICS = [
    ("enum-stream", "cli.main", "self_s"),
    ("enum-stream", "enumeration.expected_tree_count", "total_s"),
    ("enum-stream", "graph.realize", "self_s"),
    ("count-build", "enumeration.expected_tree_count", "total_s"),
    ("count-build", "counting.count_via_construction", "self_s"),
    ("count-build", "counting.count_via_construction", "calls"),
    ("count-build", "counting.count_containing", "self_s"),
    ("count-build", "counting.count_containing", "calls"),
    ("count-build", "counting.kirchhoff_count", "self_s"),
    ("count-build", "counting.kirchhoff_count", "calls"),
    ("count-build", "extremal.improve_min", "self_s"),
    ("count-build", "extremal.improve_max", "self_s"),
    ("count-build", "recognition.recognize", "self_s"),
    ("count-build", "graph.realize", "self_s"),
    ("verify-small", "counting.count_containing", "self_s"),
    ("verify-small", "counting.count_containing", "calls"),
    ("verify-small", "counting.kirchhoff_count", "self_s"),
    ("verify-small", "counting.kirchhoff_count", "calls"),
    ("verify-small", "counting.brute_force_count", "self_s"),
    ("verify-small", "counting.brute_force_count", "calls"),
    ("verify-small", "extremal.survey_extremal", "self_s"),
    ("verify-small", "extremal.glue_identity_check", "self_s"),
    ("verify-small", "generators.all_labeled_two_trees", "self_s"),
    ("verify-small", "generators.random_two_tree", "self_s"),
    ("verify-small", "generators.random_two_tree", "calls"),
    ("recognize-large", "formats.sniff_and_parse", "self_s"),
    ("recognize-large", "formats.sniff_and_parse", "calls"),
    ("recognize-large", "formats.parse_edge_list", "self_s"),
    ("recognize-large", "graph.from_edges", "self_s"),
    ("recognize-large", "recognition.recognize", "self_s"),
    ("recognize-large", "recognition.recognize", "calls"),
]
COUNTING_RESULTS = ("counting.kirchhoff_count", "counting.count_containing", "counting.count_via_construction")


@dataclass
class Tally:
    """Invocations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")


class Verdicts:
    """Checks each command's output, fully the first time a digest is seen.

    A later run with the same digest produced the same bytes, so it gets the
    same verdict.  For the default seed the digest must also match the pin.
    """

    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self.seen: dict[tuple[str, str], str | None] = {}

    def judge(self, cmd: workloads.Command, code: int, stdout: str, files: list[str]) -> tuple[str, str | None]:
        h = hashlib.sha256(stdout.encode())
        for text in files:
            h.update(b"\0" + text.encode())
        digest = h.hexdigest()
        if code != 0:
            return digest, f"exit code {code}"
        key = (cmd.label, digest)
        if key not in self.seen:
            reason = cmd.check(stdout, files)
            pin = self.pins.get(cmd.label)
            if reason is None and pin is not None and pin != digest:
                reason = f"output digest {digest} differs from the pinned {pin}"
            self.seen[key] = reason
        return digest, self.seen[key]


def read_outputs(cmd: workloads.Command) -> list[str]:
    return [p.read_text() if p.exists() else "" for p in cmd.outputs]


def clear_outputs(cmd: workloads.Command) -> None:
    for p in cmd.outputs:
        p.unlink(missing_ok=True)


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


class Launcher:
    """Client of ``launcher.py``, which spawns each CLI child and reports its
    exit code, wall time from spawn to exit and max RSS from ``os.wait4``."""

    def __init__(self, env: dict[str, str], work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def spawn(self, argv: list[str]) -> Child:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["code"], reply["wall_s"], reply["rss_mb"], out_path.read_text())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def reference_run(launcher: Launcher) -> float:
    """Wall time of one run of ``reference.py``, the machine-speed probe."""
    child = launcher.spawn([sys.executable, "-I", str(Path(__file__).with_name("reference.py"))])
    if child.code != 0 or child.stdout.strip() != reference.EXPECTED:
        raise RuntimeError(f"reference job failed: exit code {child.code}, output {child.stdout.strip()!r}")
    return child.wall_s


def timed_workload(name: str, seed: int, seconds: float, tt, launcher: Launcher, pins: dict) -> tuple[Tally, dict]:
    work = launcher.work
    cmds = workloads.build(name, seed, work, tt)
    verdicts = Verdicts(pins.get(name, {}) if seed == DEFAULT_SEED else {})
    tally = Tally()
    cli = [sys.executable, "-m", "twotrees"]

    setup_out = work / "setup.edges"
    setup_want = checks.edge_list_text(3, workloads.book_edges(3))
    setup_s: list[float] = []

    def cold_start() -> float:
        setup_out.unlink(missing_ok=True)
        child = launcher.spawn(cli + ["gen", "book", "3", "--out", str(setup_out)])
        ok = child.code == 0 and setup_out.exists() and setup_out.read_text() == setup_want
        tally.record("setup", None if ok else f"exit code {child.code} or wrong output")
        return child.wall_s

    cold_start()  # writes bytecode caches; not kept

    per_cmd: dict[str, list[float]] = {c.label: [] for c in cmds}
    ref_s: list[float] = []
    digests: dict[str, str] = {}
    peak_rss = 0.0
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        # One cold start per round, so that setup_s samples the whole run.
        setup_s.append(cold_start())
        for cmd in cmds:
            ref_s.append(reference_run(launcher))  # right before each command, to see the same phase
            clear_outputs(cmd)
            child = launcher.spawn(cli + cmd.argv)
            per_cmd[cmd.label].append(child.wall_s)
            peak_rss = max(peak_rss, child.rss_mb)
            digests[cmd.label], reason = verdicts.judge(cmd, child.code, child.stdout, read_outputs(cmd))
            tally.record(cmd.label, reason)
        rounds += 1
    while len(setup_s) < SETUP_RUNS:
        setup_s.append(cold_start())

    for cmd in cmds:
        walls = per_cmd[cmd.label]
        print(f"  {cmd.label:<24} best {min(walls):7.3f} s  mean {statistics.fmean(walls):7.3f} s  sha256 {digests[cmd.label]}")
    wall = sum(statistics.fmean(walls) for walls in per_cmd.values())
    speed = REF_NOMINAL_S / statistics.fmean(ref_s)
    summary = {
        "wall_s": (wall, "s", f"sum over commands of the mean of {rounds} runs"),
        "wall_ref_s": (wall * speed, "s", f"wall_s times {REF_NOMINAL_S} s over the reference job's mean {statistics.fmean(ref_s):.4g} s"),
        "cold_start_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} cold starts"),
        "setup_s": (statistics.median(setup_s) * speed, "s", "cold_start_s rescaled like wall_ref_s"),
        "peak_rss_mb": (peak_rss, "MB", "largest max-RSS of one CLI child"),
    }
    if all(c.trees for c in cmds):
        rate = sum(c.trees for c in cmds) / wall
        summary["trees_per_s"] = (rate, "1/s", "trees written per second of enumerate wall time")
    return tally, summary


def replay(cmds: list[workloads.Command], cli_module) -> tuple[float, list[tuple[int, str, list[str]]]]:
    """Run each command in-process through ``cli.main``; total wall and outputs."""
    wall = 0.0
    outputs = []
    for cmd in cmds:
        clear_outputs(cmd)
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli_module.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        wall += time.perf_counter() - start
        outputs.append((code, out.getvalue(), read_outputs(cmd)))
    return wall, outputs


def per_tree_costs(tt, seed: int) -> dict[str, tuple[float, str]]:
    """Walk and serialization cost per tree, by direct calls on the
    enum-stream inputs (no span per tree)."""
    from twotrees.formats import serialize_tree

    streams = [
        (tt.book(workloads.BOOK_N), None),
        (tt.random_two_tree(workloads.RANDOM_ENUM_N, workloads.enum_family_seed(seed)), workloads.RANDOM_ENUM_LIMIT),
    ]
    trees = 0
    walk_s = serialize_s = 0.0
    n_bytes = 0
    for construction, limit in streams:
        start = time.perf_counter()
        trees += tt.count_stream(itertools.islice(tt.enumerate_spanning_trees(construction), limit))
        walk_s += time.perf_counter() - start
        stream = itertools.islice(tt.enumerate_spanning_trees(construction), limit)
        while chunk := list(itertools.islice(stream, CHUNK)):
            start = time.perf_counter()
            lines = [serialize_tree(t) for t in chunk]
            serialize_s += time.perf_counter() - start
            n_bytes += sum(len(line) + 1 for line in lines)
    return {
        "enum-stream.enumeration.trees": (trees, "count"),
        "enum-stream.enumeration.walk_us_per_tree": (walk_s / trees * 1e6, "us"),
        "enum-stream.formats.serialize_tree.us_per_tree": (serialize_s / trees * 1e6, "us"),
        "enum-stream.formats.bytes_per_tree": (n_bytes / trees, "B"),
    }


def import_seconds(env: dict[str, str], work: Path) -> float:
    """Median wall time of ``import twotrees.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import twotrees.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=work, capture_output=True, text=True, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def brute_force_note(args: tuple, result: int) -> tuple[int, int]:
    g = args[0]
    return result, (math.comb(g.m, g.n - 1) if g.n > 1 else 0)


def traced_pass(seed: int, tt, env: dict[str, str], work: Path, pins: dict) -> tuple[Tally, dict[str, tuple[float, str]]]:
    import twotrees.cli as cli_module

    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {"cli.import_s": (import_seconds(env, work), "s")}
    notes = {name: (lambda args, result: result.bit_length()) for name in COUNTING_RESULTS}
    notes["counting.brute_force_count"] = brute_force_note
    for name in workloads.WORKLOADS:
        cmds = workloads.build(name, seed, work, tt)
        verdicts = Verdicts(pins.get(name, {}) if seed == DEFAULT_SEED else {})
        plain_wall, plain = replay(cmds, cli_module)
        tracer = Tracer(notes)
        with tracer.patch():
            traced_wall, traced = replay(cmds, cli_module)
        for cmd, (code, stdout, files), again in zip(cmds, plain, traced):
            digest, reason = verdicts.judge(cmd, code, stdout, files)
            tally.record(cmd.label, reason)
            traced_digest, _ = verdicts.judge(cmd, *again)
            tally.record(f"{cmd.label} (traced)", None if traced_digest == digest else "traced output differs from untraced")
        stats = self_times(tracer.spans)
        for workload, span, attr in SPAN_METRICS:
            if workload == name:
                value = getattr(stats[span], attr) if span in stats else 0
                metrics[f"{name}.{span}.{attr}"] = (value, "count" if attr == "calls" else "s")
        metrics[f"{name}.trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
        if name == "count-build":
            bits = [s.note for s in tracer.spans if s.name in COUNTING_RESULTS]
            metrics["count-build.counting.count_bits"] = (max(bits, default=0), "bit")
        if name == "verify-small":
            hits = [s.note for s in tracer.spans if s.name == "counting.brute_force_count"]
            found, tried = sum(h[0] for h in hits), sum(h[1] for h in hits)
            metrics["verify-small.counting.brute_force_count.hit_ratio"] = (found / tried if tried else 0.0, "ratio")
        if name == "enum-stream":
            costs = per_tree_costs(tt, seed)
            trees = costs["enum-stream.enumeration.trees"][0]
            tally.record("per-tree walk", None if trees == sum(c.trees for c in cmds) else "walk count differs")
            metrics.update(costs)
    return tally, metrics


def run_context(root: Path, seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {"seed": seed, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "twotrees" / "__init__.py").is_file():
        print(f"error: no twotrees sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    pins = json.loads(PINS.read_text())
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    # Started while this process is still small; see launcher.py.
    launcher = None if args.trace else Launcher(env, work)
    try:
        sys.path.insert(0, str(src))
        import twotrees as tt

        print(f"context {json.dumps(run_context(root, args.seed), sort_keys=True)}")
        if args.trace:
            tally, metrics = traced_pass(args.seed, tt, env, work, pins)
            for key, (value, unit) in metrics.items():
                print(f"{key} {value:.6g} {unit}")
        else:
            names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
            tally = Tally()
            summaries = []
            for name in names:
                print(f"workload {name} (seed {args.seed})")
                part, summary = timed_workload(name, args.seed, args.seconds, tt, launcher, pins)
                for key, (value, unit, note) in summary.items():
                    print(f"  {key} {value:.6g} {unit} ({note})")
                print(f"  failed_ratio {part.failed / part.attempted:.6g} ({part.failed} of {part.attempted} attempted)")
                tally.attempted += part.attempted
                tally.failed += part.failed
                tally.reasons += part.reasons
                summaries.append(summary)
            metrics = {
                "wall_ref_s": (sum(s["wall_ref_s"][0] for s in summaries), "s"),
                "setup_s": (statistics.median(s["setup_s"][0] for s in summaries), "s"),
                "peak_rss_mb": (max(s["peak_rss_mb"][0] for s in summaries), "MB"),
            }
        for reason in tally.reasons:
            print(f"failure: {reason}")
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
