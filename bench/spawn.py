"""Start the benchmark's child processes one at a time and measure each.

A child's peak RSS includes the memory of the process that started it, so the
benchmark, which holds sympy, starts its children through this small process.
Each input line is a JSON object {"argv", "stdout", "stderr"}; for each, one
output line gives the child's wall time, exit code and peak RSS in MB.  The
process ends when its input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "returncode": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
