"""Machine-speed calibration for the timed loop.

The benchmark runs on shared hosts whose speed drifts by up to about 30 %
over minutes, and that drift moves every wall-clock time alike.  A fixed
block of pure-Python work, written here and independent of trdeg, is timed
between jobs; a job's measured time is then scaled by REFERENCE_BLOCK_S over
the block time measured around it.  The reported times are therefore the
times the job would take on a machine that runs the block in
REFERENCE_BLOCK_S, and a change to trdeg moves them as it moves wall-clock
time, while a change in host speed moves job and block alike and cancels.

The block mixes the kinds of work trdeg does: a product of integer
polynomials held as dicts of exponent tuples, a row reduction over
Fractions, and sorts of tuple keys.  It allocates no reference cycles, and
the collector is off while it runs, so trdeg's live objects do not slow it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median block time on a 2-vCPU Intel Xeon VM (2.1 GHz), Python 3.11.7.
REFERENCE_BLOCK_S = 0.00115
# Blocks per burst; a burst reports their median, so one interrupted block
# does not count.
BURST_BLOCKS = 3


def block() -> int:
    p = {(i, j): 7 * i + 3 * j + 1 for i in range(5) for j in range(5)}
    q = p
    for _ in range(2):
        r: dict = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                k = (a + d, b + e)
                r[k] = r.get(k, 0) + c * f
        q = {k: v * v + 1 for k, v in r.items() if k[0] + k[1] < 9}
    rows = [[Fraction(1, i + j + 1) for j in range(5)] + [Fraction(i + 1)] for i in range(5)]  # Hilbert
    for col in range(5):
        pivot = rows[col][col]
        for i in range(col + 1, 5):
            factor = rows[i][col] / pivot
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    keys = sorted(q, key=lambda k: (k[0] + k[1], k[1], k[0]), reverse=True)
    return len(keys) + rows[4][5].denominator % 7 + max(q.values()) % 11


def burst(blocks: int = BURST_BLOCKS) -> float:
    """Median seconds of `blocks` runs of the block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(blocks):
            t = time.perf_counter()
            block()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
