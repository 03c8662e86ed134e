"""Run one command; write its wall time, peak RSS and exit code as JSON.

    python3 -S perfbench/launch.py REPORT.json -- ARGV...

Linux carries the forking process's memory high-water mark into the
child's ru_maxrss across exec, so a command forked straight from the
benchmark process (run.py), which holds tables and parsed reports, would
report run.py's memory.  This small process forks the command instead.  It
times the command alone, so its own start-up is not counted.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.stderr.write(__doc__)
        return 2
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as out:
        json.dump({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                   "exit_code": proc.returncode}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
