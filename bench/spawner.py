"""Start the CLI children of cli-fixtures from a process that holds no arrays.

Linux carries a process's peak resident size through fork and exec into
the child's own accounting, so a child started by the benchmark process
(NumPy, SciPy and its inputs loaded) would report that process's peak as
its own.  Started from this small process, each child's peak is its own.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "env"}; one
JSON reply per line on stdout, {"code", "stdout", "stderr",
"peak_rss_kb"}, where peak_rss_kb is the largest peak of any child so far.
The process ends when stdin closes.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        proc = subprocess.run(request["argv"], cwd=request["cwd"], env=request["env"],
                              capture_output=True, text=True, timeout=120)
        reply = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                 "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
