"""A fixed pure-Python reference loop that measures how fast the host runs Python right now.

The benchmark's shared 2-CPU virtual machine slows down by up to 1.9x for
minutes at a time when other tenants load the host; CPU time inflates with
wall time, so nothing inside the process can tell contention from slow code.
This loop runs no orbistring code, so a change to the library cannot move
it.  The worker times it before every op.  run.py takes the median sample of
each cycle of ops as the host's speed during that cycle and scales each op's
time in the cycle by QUIET_S / (that median).

The loop does what the library mostly does: tuple keys, dict updates, a
sort and a list comprehension.  Measured against the workloads' cycle times
under contention, it tracked them better than a loop of Fraction additions
did.  Each sample runs the loop twice and times only the second pass, so the
sample does not pay for caches the previous op evicted, and it runs with the
garbage collector off, so no collection of the library's heap lands in it.
"""

import gc
from time import perf_counter

# The loop's time on a quiet core of the 2-CPU VM (Intel Xeon, Python 3.11)
# the benchmark was defined on.  Scaled timings read as time on that quiet core.
QUIET_S = 175e-6


def _loop() -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(700):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:50]
    residues = [x * 3 % 7 for x in tuple(range(200))]
    return sum(v for _, v in top) + sum(residues)


def reference_seconds() -> float:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()  # untimed: refills the caches the previous op evicted
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
