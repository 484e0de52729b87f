"""Start child commands one at a time; report each one's wall time and peak RSS.

The peak RSS that ``os.wait4`` reports for a child includes the high-water
mark of the address space it was spawned from, because vfork and exec
carry it over. The benchmark process can be large, so children are spawned
from this small process instead, and each one's own peak stays readable.

Protocol: one JSON request per stdin line, ``{"argv", "env", "cwd",
"stdout", "stderr"}`` (stdout and stderr are file paths), answered by one
JSON line ``{"code", "wall_s", "maxrss_kb"}`` on stdout.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"], cwd=req["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
