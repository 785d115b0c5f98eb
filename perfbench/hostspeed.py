"""Host-speed calibration for the benchmark's timings.

On a shared host the simulator's speed drifts by up to +-25 % in
phases of seconds to minutes, as other tenants contend for the
last-level cache and memory.  An interpreter-bound loop does not see
those phases (its time correlated 0.16 with the simulator's point
times); a random walk over a 32 MiB buffer does (0.45-0.76).  So
every timed interval is bracketed by walks, and its host seconds are
scaled by ``REF_S`` over the walks' median time: the benchmark reports
seconds on a host whose walk takes ``REF_S``.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

__all__ = ["HostSpeed"]


class HostSpeed:
    """A 32 MiB permutation cycle and the walks that time the host."""

    #: int64 cells in the buffer (32 MiB)
    CELLS = 1 << 22
    #: steps per walk (about 12 ms on a 2-core Xeon VM)
    STEPS = 60_000
    #: walks before and after each timed interval
    WALKS = 3
    #: walk time of the reference host, in seconds
    REF_S = 0.012

    def __init__(self) -> None:
        # a full-period LCG modulo 2**22 (odd increment, multiplier
        # 1 mod 4) visits every cell once per cycle in scattered order;
        # built in chunks so that no temporary adds to the peak RSS
        self._next = array("q", [0]) * self.CELLS
        chunk = 1 << 16
        for start in range(0, self.CELLS, chunk):
            cells = np.arange(start, start + chunk, dtype=np.int64)
            successor = (cells * 1103515245 + 12345) & (self.CELLS - 1)
            self._next[start:start + chunk] = array("q", successor.tobytes())

    @property
    def buffer_mb(self) -> float:
        """Resident size of the walk buffer, in MiB."""
        return len(self._next) * self._next.itemsize / 2**20

    def walks(self) -> list[float]:
        """Seconds each of ``WALKS`` walks takes now."""
        nxt = self._next
        times = []
        for _ in range(self.WALKS):
            start = time.monotonic()
            cell = 0
            for _ in range(self.STEPS):
                cell = nxt[cell]
            times.append(time.monotonic() - start)
        return times

    def bracket(self) -> "_Bracket":
        """``with speed.bracket() as b:`` times the host around the
        block; ``b.scale`` then converts its host seconds to
        reference-host seconds."""
        return _Bracket(self)


class _Bracket:
    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.scale = 1.0

    def __enter__(self) -> "_Bracket":
        self.before = self.speed.walks()
        return self

    def __exit__(self, *exc) -> None:
        walks = self.before + self.speed.walks()
        self.scale = HostSpeed.REF_S / statistics.median(walks)
