"""A fixed pure-Python job that measures how fast the machine runs right now.

The benchmark runs it as its own child (``python -I reference.py``) right
before every command of the workload, and rescales the commands' mean wall
time and the median cold start by this job's mean wall time over the same run.  On a shared host the
same computation can take 1x to 1.8x its time in phases of a few seconds to
minutes; both means see the same phases, so their ratio moves far less than
either.  The job does the kinds of work the twotrees CLI does (set and dict
updates on a growing 2-tree, big-integer arithmetic, string formatting) and
none of the package's code, so a change to the package cannot change it.
``-I`` keeps it from reading ``PYTHONPATH`` or site customisations.

It prints one checksum line; ``EXPECTED`` is that line.
"""

ROUNDS = 16
N = 1500
EXPECTED = "reference b6c5e359f"


def one_round(seed: int) -> int:
    x = seed
    edges = [(0, 1)]
    adj: dict[int, set[int]] = {0: {1}, 1: {0}}
    for k in range(2, N):
        x = (x * 1103515245 + 12345) % 2**31
        u, v = edges[x % len(edges)]
        edges += [(u, k), (v, k)]
        adj[k] = {u, v}
        adj[u].add(k)
        adj[v].add(k)
    total = 1
    for k in range(N - 1, 1, -1):  # peel in reverse insertion order
        a, b = adj.pop(k)
        adj[a].discard(k)
        adj[b].discard(k)
        total = 2 * total + len(adj[a]) * len(adj[b])
    text = " ".join(f"{u}-{v}" for u, v in sorted(edges))
    return (total ^ len(text)) % 2**36


def main() -> None:
    acc = 0
    for seed in range(ROUNDS):
        acc = (acc * 31 + one_round(seed)) % 2**36
    print(f"reference {acc:x}")


if __name__ == "__main__":
    main()
