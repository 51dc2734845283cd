"""Machine-speed probe, pinned to the CPU the benchmark's operations run on.

    python3 perfbench/probe.py OUT CPU

Every ``INTERVAL`` seconds it times a fixed piece of pure-Python work and
records ``<monotonic end time> <seconds>``.  On SIGTERM it writes the samples
to OUT and exits.  The probe shares the CPU with the operation being timed,
so a sample taken during an operation shows how fast that CPU ran then: on
a shared host the same loop runs up to half again as slow at times.
"""

from __future__ import annotations

import os
import signal
import sys
import time

INTERVAL = 0.025


def work():
    table = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return table


def main():
    out, cpu = sys.argv[1], int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    while not stopped:
        time.sleep(INTERVAL)
        t0 = time.perf_counter()
        work()
        samples.append((time.monotonic(), time.perf_counter() - t0))
    with open(out, "w") as fh:
        fh.writelines(f"{t:.6f} {d:.9f}\n" for t, d in samples)


if __name__ == "__main__":
    main()
