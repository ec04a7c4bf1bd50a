"""Host-speed probe: a fixed pure-Python loop timed five times a second.

Started by ``run.py`` as ``python3 probe.py OUT``; appends one line
``<perf_counter at start> <seconds taken>`` per sample to ``OUT`` until
its stdin closes.  Its duty cycle is under 1 %.  ``time.perf_counter``
is system-wide monotonic on Linux, so samples line up with the spans and
operation intervals of the benchmark's other processes.
"""

from __future__ import annotations

import select
import sys
import time

INTERVAL_S = 0.2
ITERATIONS = 8000


def sample() -> float:
    t0 = time.perf_counter()
    x, d = 0, {}
    for i in range(ITERATIONS):
        x += i * i % 7
        d[i & 1023] = x
    return time.perf_counter() - t0


def main(out: str) -> int:
    with open(out, "a", buffering=1) as fh:
        while True:
            ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
            if ready and not sys.stdin.readline():
                return 0
            t0 = time.perf_counter()
            fh.write(f"{t0!r} {sample()!r}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
