"""A fixed gauge of the host's speed, for the reference unit of the time metrics.

The host this benchmark was written on runs the same code up to 60 % slower
for minutes at a time (see README.md).  The time end-to-end metrics are
therefore divided by a reference time taken in the same run, between the
workload's operations, so the host's phases cancel and the program's own
cost stays.

A sample is the wall time to start and stop a bare interpreter in isolated
mode (`-I`: PYTHONPATH is ignored, so cobcalc is never imported); the run's
reference time is the median sample.  The child is spawned without copying
the caller's memory, so the time does not grow with the process that asks
for it either, and a change to the program cannot move the reference.
"""

import subprocess
import sys
import threading
from time import perf_counter

ARGV = [sys.executable, "-I", "-c", "pass"]
TIMEOUT_S = 30


def start_time():
    """Seconds to start and stop one bare interpreter; raises if it fails.
    It waits with a blocking wait and kills the child from a timer: a wait
    with a timeout polls at growing intervals of up to 50 ms, which would
    round the time up to the next poll."""
    t0 = perf_counter()
    with subprocess.Popen(ARGV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL) as proc:
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        code = proc.wait()
        timer.cancel()
    dt = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, ARGV)
    return dt
