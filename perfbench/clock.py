"""Host time calibrated against a fixed reference loop.

On a shared VM the speed of a vCPU swings by up to 2x over seconds to
minutes, as other tenants load the host; a workload timed in raw host
seconds then reads differently from one run to the next.  A
:class:`Stopwatch` therefore times a fixed pure-Python reference loop at
the start and end of every *lap*, and scales the lap's host seconds by
``REFERENCE_S / mean(reference before, reference after)``: the lap's
duration on a host that runs the reference loop in :data:`REFERENCE_S`
seconds.  The reference loop is not repo code, so a change to the program
moves the calibrated time while a change of host speed cancels.

Laps should be short (a second or less) so the two reference timings
bracket the speed the lap actually ran at; the reference loop itself runs
outside every lap.  Of the loops tried on repeated passes of one input
(integer arithmetic; string, dict and sort work; heap work; NumPy work
on cache-sized and on 32 MB arrays), integer arithmetic plus string and
dict work tracked the slow-downs of all three workloads most closely.
"""

from __future__ import annotations

import time
from typing import Callable

#: Seconds the reference loop takes on the host the benchmark was tuned on
#: (2-vCPU Intel Xeon VM, Python 3.11).  Calibrated times are host seconds
#: at that speed.
REFERENCE_S = 0.008


def reference_s() -> float:
    """Host seconds of one run of the fixed reference loop: integer
    arithmetic, then string formatting, dict inserts and a sort."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    table = {}
    for i in range(4_000):
        key = f"w{i % 997}-{i}"
        table[key] = len(key)
    sorted(table.items())
    return time.perf_counter() - t0


class Stopwatch:
    """Sums laps of host time, raw and calibrated.

    Creating one times the reference loop and starts the first lap; each
    :meth:`lap` closes the running lap, times the reference loop again and
    starts the next lap.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        reference: Callable[[], float] = reference_s,
    ) -> None:
        self.clock = clock
        self.reference = reference
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._reference_s = reference()
        self._start = clock()

    def lap(self) -> float:
        """Close the running lap; return its calibration factor."""
        raw = self.clock() - self._start
        reference = self.reference()
        factor = 2.0 * REFERENCE_S / (self._reference_s + reference)
        self.raw_s += raw
        self.scaled_s += raw * factor
        self._reference_s = reference
        self._start = self.clock()
        return factor
