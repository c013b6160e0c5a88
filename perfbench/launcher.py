"""Spawns and times CLI children for the benchmark, one request at a time.

A child's ``ru_maxrss`` also counts the memory of the process that spawned
it, up to its exec.  The benchmark process holds large outputs while it
checks them, so it hands spawning to this small process, started before any
of that memory is used.  Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path}``, answered by
one JSON line ``{"code": int, "wall_s": float, "rss_mb": float}``.
"""

import json
import os
import subprocess
import sys
import threading
import time

# A child still running after this long is killed (and then fails its
# check), so that a hung program cannot hold the benchmark past its deadline.
CHILD_TIMEOUT_S = 60


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": code, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024}), flush=True)


if __name__ == "__main__":
    main()
