"""Host-speed probe: a fixed reference kernel, timed on request.

    python3 perfbench/probe.py

Each line read from standard input asks for one probe; the answer, one
line on standard output, is the kernel's best time of three, in seconds.
The kernel -- a Python loop and small FFTs -- is benchmark code, and it
runs in a process that never imports the program, so nothing the
program does or leaves behind moves it: it moves only with the speed of
the host, which drifts on a shared machine. ``child.py`` starts this
process; ``run.py`` scales campaign times by its answers.
"""

import sys
import time

import numpy


def kernel_s(signal: numpy.ndarray) -> float:
    """Seconds the reference kernel takes now, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for index in range(20000):
            total += index * 0.5
        for _ in range(40):
            numpy.fft.rfft(signal)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    signal = numpy.arange(4096, dtype=float)
    for _ in sys.stdin:
        print(repr(kernel_s(signal)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
