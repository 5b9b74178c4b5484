"""Sample how fast the memory system serves this core, while operations run.

Usage: python3 pace.py CPU OUT_PATH

On a shared machine, planeot operations slow down by tens of percent for
minutes at a time, and the slowdown follows the memory system, not the
clock: a small cache-resident loop does not see it, while a gather over an
array larger than the last-level cache slows down in step with the solves.
This process pins itself to CPU (the core the operations run on), and every
``PERIOD_S`` seconds times one fixed gather-and-sort kernel in its own CPU
seconds, so waiting for the core does not count. Each sample is written to
OUT_PATH as ``<time.monotonic()> <kernel CPU seconds>``. It runs until the
process that started it ends or stops it.
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.2


def main():
    cpu, path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    rng = np.random.default_rng(0)
    table = rng.random(4_000_000)  # 32 MB, beyond the last-level cache
    index = rng.integers(0, table.size, 300_000)
    with open(path, "w") as out:
        while os.getppid() == parent:
            start = time.process_time()
            table[index].sum()
            np.sort(table[:100_000])
            out.write(f"{time.monotonic()!r} {time.process_time() - start!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
