"""Run one command and record its wall time, peak RSS and exit code as JSON.

    python3 perfbench/spawn.py USAGE.json PROGRAM [ARGS...]

On Linux a child's ru_maxrss starts from the resident size of the process
that forked it, so a command started straight from the benchmark, which
holds its results in memory, could not report a peak below the
benchmark's own.  This process is started fresh and stays small, so the
peak it reads for its child is the child's own.
"""

import json
import os
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    usage_path, command = argv[0], argv[1:]
    t0 = perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - t0
    with open(usage_path, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "peak_mb": usage.ru_maxrss / 1024,
                   "exit": os.waitstatus_to_exitcode(status)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
