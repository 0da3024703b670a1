"""Host-speed calibration for the timed metrics.

On a shared 2-vCPU VM the same pure-Python code runs up to 1.5x slower
for seconds to minutes at a time, with CPU time tracking wall time, so raw
wall times of identical runs spread by 20-40%. The benchmark therefore
times every graph in wall seconds and brackets it with a short fixed probe,
measured in this thread's CPU time and run at most every PROBE_INTERVAL_S.
A graph's time is scaled by REFERENCE_PROBE_S over the median of the recent
probes, averaged before and after the graph: the time the work would have
taken on a host that runs the probe in REFERENCE_PROBE_S.

The probe is benchmark code and never calls isobound, so a change to the
program cannot move it. It mixes an arithmetic loop with a recursive bitset
search, the two kinds of work the program does.
"""

import random
import statistics
import time

REFERENCE_PROBE_S = 0.0006
PROBE_INTERVAL_S = 0.05
WINDOW = 3

_ORDER = 20
_rng = random.Random(0)
_ADJ = [0] * _ORDER
for _u in range(_ORDER):
    for _v in range(_u + 1, _ORDER):
        if _rng.random() < 0.3:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _independent_sets(cand, need, prefix, out):
    if need == 0:
        out.append(tuple(prefix))
        return
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        prefix.append(v)
        _independent_sets(cand & ~_ADJ[v], need - 1, prefix, out)
        prefix.pop()


def probe():
    """Thread CPU seconds of a fixed pure-Python workload."""
    start = time.thread_time()
    x = 0
    for i in range(4_000):
        x = (x + i * i) % 1_000_003
    _independent_sets((1 << _ORDER) - 1, 3, [], [])
    return time.thread_time() - start


class Calibrator:
    """Tracks the host's speed from probes taken between units of work.

    `tick()` runs a probe when PROBE_INTERVAL_S has passed since the last
    one and returns the factor that scales wall time next to it to
    reference-host time.
    """

    def __init__(self):
        self.recent = []
        self.last = float("-inf")
        self.factor = 1.0

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now - self.last >= PROBE_INTERVAL_S:
            self.recent = (self.recent + [probe()])[-WINDOW:]
            self.factor = REFERENCE_PROBE_S / statistics.median(self.recent)
            self.last = time.perf_counter()
        return self.factor
