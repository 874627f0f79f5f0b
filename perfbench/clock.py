"""Host timing calibrated against a fixed reference loop.

The shared virtual CPUs this benchmark was built on ran up to 3x slower
for tens of seconds at a time as neighbouring load came and went; a raw
wall-clock time then says more about the neighbours than about the code.
:class:`Clock` therefore brackets every timed call with a short run of
:func:`reference_loop`, a fixed pure-Python loop owned by the benchmark
(so no change to the simulator can move it), and rescales the call's host
seconds to the speed at which the reference loop takes
:data:`REFERENCE_S`:

    calibrated_s = host_s * REFERENCE_S / reference_s

where ``reference_s`` is the mean of the loop's readings just before and
just after the call. Raw host seconds are kept alongside.
"""

from __future__ import annotations

import heapq
from time import perf_counter

# The reference loop's time on an unloaded 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.018
# Reference-loop runs per reading. Their mean, not their median, is the
# reading: the vCPU speed flips between levels within a second, and a
# timed call averages over the flips, so the reading must too.
REFERENCE_RUNS = 10


def reference_loop() -> float:
    """A fixed mix of the operations the simulator's event loops spend
    their time on: heap pushes and pops of tuples, dict updates, float
    arithmetic."""
    heap, totals, x = [], {}, 0.5
    for i in range(20_000):
        x = (x * 3.9) % 1.0
        heapq.heappush(heap, (x, i, i % 97))
        if len(heap) > 64:
            t, _, key = heapq.heappop(heap)
            totals[key] = totals.get(key, 0.0) + t
    return sum(totals.values())


def reference_seconds() -> float:
    """Mean host seconds of one :func:`reference_loop` run, now."""
    t0 = perf_counter()
    for _ in range(REFERENCE_RUNS):
        reference_loop()
    return (perf_counter() - t0) / REFERENCE_RUNS


class Clock:
    """Accumulates raw and calibrated host seconds over timed calls; the
    reading after one call is the reading before the next."""

    def __init__(self):
        self.host_s = 0.0
        self.calibrated_s = 0.0
        self._reference = None

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` and add its host time, raising what it raises."""
        before = self._reference if self._reference is not None else reference_seconds()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            self._reference = reference_seconds()
            self.host_s += elapsed
            self.calibrated_s += elapsed * REFERENCE_S / ((before + self._reference) / 2)
