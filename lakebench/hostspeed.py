"""Host-speed-normalized timing for the benchmark's shared, drifting host.

On a shared 2-core VM the same pure-Python loop runs up to ~1.6x slower
for seconds to minutes at a time, and CPU time drifts with wall time, so
no clock avoids it.  Every timed phase (a set-up, a client's measured
ops) therefore runs a fixed probe every :data:`PROBE_EVERY_S` seconds of
work and divides the times in between by the host's speed there:

- the probe is stdlib-only code in this directory (dict counting, string
  work, hashing, sorting), so no change to the program can move it;
- it is timed in the calling thread's CPU time, so waiting for the GIL
  (the served workload's other threads) does not count, and it runs with
  the garbage collector off, so it never pays for the program's garbage;
- the factor of a slice of work is the mean of the probes at its two
  ends over :data:`REFERENCE_PROBE_S`, and a time divided by it reads as
  on a host where the probe takes that long.
"""

from __future__ import annotations

import gc
import hashlib
import time
from typing import Dict, List

#: seconds of work between two probes
PROBE_EVERY_S = 0.05

#: the probe's time on the reference host (2-core x86 VM at its usual
#: speed); normalized times read as if the host ran the probe this fast
REFERENCE_PROBE_S = 0.00035

_WORDS = tuple(f"Word{index % 97}_{(index * 31) % 13}" for index in range(300))


def _probe_once() -> float:
    started = time.thread_time()
    counts: Dict[str, int] = {}
    for word in _WORDS:
        key = word.lower()
        counts[key] = counts.get(key, 0) + 1
        hashlib.md5(key.encode("ascii")).digest()
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    " ".join(key for key, _ in ranked).split()
    return time.thread_time() - started


def probe() -> float:
    """CPU seconds of the fastest of three probe runs, with GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_once() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Speed factors of the slices of one thread's timed work.

    Create it where the timed work starts, on the thread that does it;
    call :meth:`tick` after each timed step (it returns the step's slice
    and probes once the slice is long enough) and :meth:`finish` at the
    end.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]
        self.walls: List[float] = []
        self._started = time.perf_counter()

    def tick(self) -> int:
        index = len(self.walls)
        elapsed = time.perf_counter() - self._started
        if elapsed >= PROBE_EVERY_S:
            self._close(elapsed)
        return index

    def finish(self) -> None:
        self._close(time.perf_counter() - self._started)

    def _close(self, elapsed: float) -> None:
        self.walls.append(elapsed)
        self.probes.append(probe())
        self._started = time.perf_counter()

    def factor(self, index: int) -> float:
        """How much slower than the reference host slice *index* ran."""
        return (self.probes[index] + self.probes[index + 1]) / (2.0 * REFERENCE_PROBE_S)

    def normalized(self, seconds: float, index: int) -> float:
        return seconds / self.factor(index)

    def elapsed_s(self) -> float:
        """Normalized seconds of all finished slices, probes excluded."""
        return sum(wall / self.factor(index) for index, wall in enumerate(self.walls))

    def median_factor(self) -> float:
        factors = sorted(self.factor(index) for index in range(len(self.walls)))
        return factors[len(factors) // 2] if factors else 1.0
