"""Two-bank interleaved port memory (paper Figure 4, Section III-B).

A port buffer must serve four logical ports once stashing is added: the
normal read/write pair plus a stash read/write pair.  Rather than a
4-ported or double-clocked RAM, the paper divides the memory into two
banks holding even and odd flit offsets; a multi-flit access alternates
banks, so up to four sequential accesses can be in flight as long as no
two target the same bank in the same cycle.  Write sequences remember
which bank they started on (one bit per packet); reads start in a
non-conflicting order.

This module is a functional model of that memory: it allocates flit
storage at two-flit page granularity on either side of a movable
partition point and schedules per-cycle accesses with bank-conflict
arbitration.  The tests use it to validate the isolation claims, and the
conflict scheduler demonstrates that the paper's four-port access pattern
sustains full throughput.  The cycle-level switch model does not
instantiate it: it takes only the two-flit page size (``PAGE_FLITS``),
which rounds every stash partition and stored packet to whole pages
(:mod:`repro.core.stash`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BankedBuffer", "BufferAccess"]

PAGE_FLITS = 2  # one even + one odd slot; the paper's partition granularity


@dataclass
class BufferAccess:
    """An in-progress sequential access (read or write) of ``length`` flits.

    ``start_bank`` is the bank of the first flit (0 = even, 1 = odd); the
    access touches ``(start_bank + progress) % 2`` each active cycle.
    """

    port: str  # "normal_read" | "normal_write" | "stash_read" | "stash_write"
    length: int
    start_bank: int = 0
    progress: int = 0
    stalls: int = 0

    @property
    def done(self) -> bool:
        return self.progress >= self.length

    @property
    def current_bank(self) -> int:
        return (self.start_bank + self.progress) % 2


class BankedBuffer:
    """Even/odd interleaved flit memory with a normal/stash partition.

    Parameters
    ----------
    capacity_flits:
        Total memory size; rounded **down** to a whole number of pages.
    stash_flits:
        Flits assigned to the stash partition, rounded down to pages.
        The normal partition gets the remainder.
    """

    def __init__(self, capacity_flits: int, stash_flits: int = 0) -> None:
        if capacity_flits < PAGE_FLITS:
            raise ValueError("buffer must hold at least one page")
        if not 0 <= stash_flits <= capacity_flits:
            raise ValueError("stash partition exceeds buffer capacity")
        self.capacity = (capacity_flits // PAGE_FLITS) * PAGE_FLITS
        self.stash_capacity = (stash_flits // PAGE_FLITS) * PAGE_FLITS
        self.normal_capacity = self.capacity - self.stash_capacity
        self._normal_used = 0
        self._stash_used = 0
        self._active: list[BufferAccess] = []

    # ------------------------------------------------------------------
    # capacity bookkeeping (pages allocated per partition)
    # ------------------------------------------------------------------

    def normal_free(self) -> int:
        return self.normal_capacity - self._normal_used

    def stash_free(self) -> int:
        return self.stash_capacity - self._stash_used

    def allocate(self, partition: str, flits: int) -> None:
        """Reserve ``flits`` (rounded up to pages) in a partition."""
        pages = -(-flits // PAGE_FLITS) * PAGE_FLITS
        if partition == "normal":
            if pages > self.normal_free():
                raise RuntimeError("normal partition overflow")
            self._normal_used += pages
        elif partition == "stash":
            if pages > self.stash_free():
                raise RuntimeError("stash partition overflow")
            self._stash_used += pages
        else:
            raise ValueError(f"unknown partition {partition!r}")

    def free(self, partition: str, flits: int) -> None:
        pages = -(-flits // PAGE_FLITS) * PAGE_FLITS
        if partition == "normal":
            if pages > self._normal_used:
                raise RuntimeError("freeing more than allocated (normal)")
            self._normal_used -= pages
        elif partition == "stash":
            if pages > self._stash_used:
                raise RuntimeError("freeing more than allocated (stash)")
            self._stash_used -= pages
        else:
            raise ValueError(f"unknown partition {partition!r}")

    def repartition(self, stash_flits: int) -> None:
        """Move the partition point (allowed only when stash side is empty,
        as when a switch is reconfigured for a different topology role)."""
        if self._stash_used:
            raise RuntimeError("cannot repartition with stashed data present")
        pages = (stash_flits // PAGE_FLITS) * PAGE_FLITS
        if pages > self.capacity - self._normal_used:
            raise RuntimeError("new stash partition would overlap live data")
        self.stash_capacity = pages
        self.normal_capacity = self.capacity - pages

    # ------------------------------------------------------------------
    # per-cycle bank-conflict scheduling
    # ------------------------------------------------------------------

    def begin_access(self, port: str, length: int) -> BufferAccess:
        """Start a sequential access.  Writes pick the start bank that
        avoids conflict with accesses already in flight this cycle
        (the paper: "write sequences can simply avoid one another");
        reads likewise start on the free bank when possible."""
        if length < 1:
            raise ValueError("access length must be positive")
        if any(a.port == port and not a.done for a in self._active):
            raise RuntimeError(f"port {port!r} already has an access in flight")
        busy_banks = {a.current_bank for a in self._active if not a.done}
        start_bank = 1 if 0 in busy_banks and 1 not in busy_banks else 0
        access = BufferAccess(port=port, length=length, start_bank=start_bank)
        self._active.append(access)
        return access

    def tick(self) -> dict[str, bool]:
        """Advance one memory cycle.  Each bank serves at most one access;
        ties resolve in begin order (oldest first).  Returns which ports
        advanced this cycle."""
        served_banks: set[int] = set()
        advanced: dict[str, bool] = {}
        for access in self._active:
            if access.done:
                continue
            bank = access.current_bank
            if bank in served_banks:
                access.stalls += 1
                advanced[access.port] = False
            else:
                served_banks.add(bank)
                access.progress += 1
                advanced[access.port] = True
        self._active = [a for a in self._active if not a.done]
        return advanced

    @property
    def active_accesses(self) -> int:
        return len(self._active)
