#!/usr/bin/env python3
"""Time the enumerator on books and report scaling ratios.

Usage:
    python scripts/enumeration_benchmark.py [--n-min 12] [--n-max 18] [--repeats 3]

``seconds`` drains the library view (one frozenset per tree); work should
scale like n * T(B_n), and the last column shows the measured step ratio next
to that prediction.  ``line us/tree`` is the cost per tree of the line view
the CLI writes (walk plus serialization), the figure the 3 us/tree target on
book(17) is read against.
"""

from __future__ import annotations

import argparse
import time

from twotrees import book, count_book, count_stream, enumerate_spanning_trees
from twotrees.enumeration import spanning_tree_lines


def best_time(stream, n: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = count_stream(stream(book(n)))
        best = min(best, time.perf_counter() - t0)
        if total != count_book(n):
            raise SystemExit(f"book({n}): streamed {total} trees, expected {count_book(n)}")
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=12)
    parser.add_argument("--n-max", type=int, default=18)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>4} {'trees':>10} {'seconds':>9} {'ratio':>7} {'predicted':>9} {'line us/tree':>12}")
    prev = None
    for n in range(args.n_min, args.n_max + 1):
        dt = best_time(enumerate_spanning_trees, n, args.repeats)
        trees = count_book(n)
        line_us = best_time(spanning_tree_lines, n, args.repeats) / trees * 1e6
        if prev is None:
            ratio = pred = float("nan")
        else:
            ratio = dt / prev[1]
            pred = (n * trees) / (prev[0] * count_book(prev[0]))
        print(f"{n:>4} {trees:>10} {dt:>9.3f} {ratio:>7.2f} {pred:>9.2f} {line_us:>12.2f}")
        prev = (n, dt)


if __name__ == "__main__":
    main()
