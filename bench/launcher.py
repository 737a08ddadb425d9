"""Helper process that starts the benchmark's child processes.

Reads one JSON job per line from stdin, [argv, stdout path, stderr path,
env, cwd], runs it to its end and answers with one JSON line
[wall seconds, exit code, ru_maxrss in KiB].

A child's ru_maxrss also counts the memory of the process that spawned it,
because the kernel carries the spawner's high-water mark across exec.  The
benchmark process grows while it checks outputs, so children are started
from this process instead, whose footprint stays that of a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    argv, out_path, err_path, env, cwd = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, proc.returncode, usage.ru_maxrss]), flush=True)
