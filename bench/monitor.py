"""Speed monitor of the benchmark: times a fixed pure-Python loop, again and again.

    monitor.py <readings file>

Every PERIOD_S it times ROUNDS rounds of 64-bit integer mixing, about half a
millisecond of interpreter work, and appends ``<start> <duration>`` in
``time.perf_counter()`` seconds to the file.  On Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the benchmark can match each
reading to the step that ran beside it.  The monitor exits when it is
terminated or when the process that started it is gone.
"""

import os
import sys
import time

PERIOD_S = 0.03
ROUNDS = 40
M64 = (1 << 64) - 1


def mix() -> None:
    x = [(i * 0x9E3779B97F4A7C15) & M64 for i in range(25)]
    for _ in range(ROUNDS):
        for i in range(25):
            v = x[i]
            x[i] = (((v << 7) | (v >> 57)) & M64) ^ x[i - 1] ^ (~x[i - 2] & x[i - 3])


def main(path: str) -> int:
    parent = os.getppid()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
    try:
        while os.getppid() == parent:
            start = time.perf_counter()
            mix()
            duration = time.perf_counter() - start
            os.write(fd, f"{start!r} {duration!r}\n".encode())
            time.sleep(PERIOD_S)
    finally:
        os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
