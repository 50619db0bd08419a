"""CPU-speed probe that runs beside the benchmark worker.

The speed of one core on a shared host drifts by up to 2x within tens of
seconds, so raw request times of identical work spread far wider than
any useful regression bound.  This probe runs on the same core as the
worker (the driver pins both) and, after each ``PERIOD_S`` of sleep,
times one fixed chunk of pure-Python exact arithmetic by its thread CPU
time.  The
driver divides each CPU time it measures by the probe's chunk cost over
the same interval and multiplies by ``REFERENCE_CHUNK_S``, which gives
the time the work would take on a core running at reference speed.

Run by ``run.py`` as ``python perfbench/calibrate.py``; it probes until
a line (or end of file) arrives on stdin, then prints its samples, one
JSON list of [monotonic time at chunk end, chunk CPU seconds].
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import sys
import time
from fractions import Fraction

PERIOD_S = 0.005
REFERENCE_CHUNK_S = 0.00025  # chunk cost on an uncontended core
MIN_SAMPLES = 5             # samples behind one speed estimate


def chunk():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 90):
        acc += Fraction(1, i % 13 + 1)
        seen[i % 17] = sorted((i, i // 3, i // 7))
    return acc


def probe():
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        c0 = time.thread_time()
        chunk()
        samples.append((time.monotonic(), time.thread_time() - c0))
    return samples


class SpeedLog:
    """Chunk costs by time; ``scale(t0, t1)`` converts CPU seconds spent
    in [t0, t1] to reference seconds."""

    def __init__(self, samples):
        self.times = [t for t, _ in samples]
        self.costs = [c for _, c in samples]
        if len(self.costs) < MIN_SAMPLES:
            raise ValueError(f"only {len(self.costs)} speed samples")

    def scale(self, t0, t1):
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        # widen to MIN_SAMPLES around the interval for short intervals
        while hi - lo < MIN_SAMPLES:
            lo = max(0, lo - 1)
            hi = min(len(self.costs), hi + 1)
        return REFERENCE_CHUNK_S / statistics.fmean(self.costs[lo:hi])


if __name__ == "__main__":
    print(json.dumps(probe()))
