"""Time a fixed pure-Python loop, in a fresh interpreter of its own.

Usage: python3 calibrate.py

Prints one JSON object: the loop's wall time and process CPU time.  The
loop does the kind of work netadopt spends its time on (Fraction, tuple
and dict operations) and uses no netadopt code, so its time tracks the
speed of the host and nothing else.  run.py times it before and after
every measured run and scales the run's times by it.
"""

import json
import time
from fractions import Fraction

ITERATIONS = 120_000


def main() -> None:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    total, table = Fraction(0), {}
    for i in range(1, ITERATIONS):
        total += Fraction(i % 7, i % 11 + 1)
        table[(i % 97, i % 13)] = sorted((i % 5, i % 3))
    print(json.dumps({"wall_s": time.perf_counter() - wall0,
                      "cpu_s": time.process_time() - cpu0}))


if __name__ == "__main__":
    main()
