"""How fast the machine runs at a given moment, from a fixed reference.

The machine the benchmark was built on shares its cores: a process there is
slowed by 1.2 to 2 times for seconds to minutes at a time, in CPU time as in
wall time.  :class:`Speed` takes the CPU time of a fixed interpreter loop at
least every ``EVERY_S`` seconds between items.  An item's CPU time
multiplied by ``NOMINAL_S`` over the reference's CPU time around it is the
item's time on a machine where the reference takes ``NOMINAL_S``: a slower
moment slows both, a slower library only the item.

Of three references tried there (this loop; dict and set updates; object
allocation with sorting and frozensets), this loop left the smallest spread
of scaled item times across 10 s windows: 0.04 to 0.06 of the median on the
three workloads, against 0.12 to 0.16 unscaled.
"""

from __future__ import annotations

import bisect
import statistics
import time

EVERY_S = 0.1  # at most this long between two reference timings, outside items
WINDOW = 3  # the level at t is the median of this many timings before t and after
NOMINAL_S = 0.0015  # the reference's time on the calibration machine, fast state


def reference() -> int:
    """The fixed computation; the same work on every call."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class Speed:
    """Reference timings: when each was taken and the CPU time it took."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            c0 = time.process_time()
            reference()
            self.took.append(time.process_time() - c0)
            self.at.append(time.perf_counter())

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] > EVERY_S:
            self.probe()

    def scale(self, t: float) -> float:
        """NOMINAL_S over the reference's time around the moment t."""
        i = bisect.bisect_right(self.at, t)
        near = self.took[max(0, i - WINDOW):i + WINDOW]
        return NOMINAL_S / statistics.median(near)
