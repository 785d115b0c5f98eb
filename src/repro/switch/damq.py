"""Dynamically Allocated Multi-Queue (DAMQ) buffers and their space accounting.

The paper's ports share one physical memory among six network VCs using a
DAMQ (Tamir & Frazier), and the stashing switch carves a stash partition
out of the same memory (Section III-B/C).  This module implements the
*normal* partition: per-VC FIFOs drawing on a shared flit pool, with a
per-VC private reserve that guarantees every VC can always land one full
packet (forward progress / deadlock safety).

Flow-control discipline
-----------------------
Credits are **flit-granular**, as in BookSim: a flit (head or body) may
advance into a downstream buffer whenever at least one slot is available
to its VC; credits return one per flit as flits *leave* the downstream
buffer.  The upstream sender tracks the downstream buffer through a
*credit mirror*: a plain :class:`VcSpaceAccounting` with the downstream
buffer's capacity and reserves, admitted once per flit sent and released
once per credit returned.  Because both sides apply the same rules, the
mirror is always a conservative image of the downstream buffer (it leads
arrivals and lags pops by one link latency each way).  Wormhole packets
therefore trickle through minimal free space, and the per-VC private
reserves needed for deadlock freedom are one or two flits rather than
whole packets, keeping the shared pool — and thus the queueing depth
available before head-of-line blocking — large.

Every operation moves exactly one flit: flits, credits and link-level
ACKs are all flit-granular, so no caller ever needs a batch form.
"""

from __future__ import annotations

from collections import deque

from repro.switch.flit import Flit

__all__ = ["Damq", "VcSpaceAccounting"]


class VcSpaceAccounting:
    """Shared-pool space accounting with per-VC private reserves.

    ``capacity`` flits total; VC ``v`` owns ``reserves[v]`` private
    flits; the remainder is shared.  A VC's occupancy consumes its
    private reserve first, then shared space.

    The per-VC reserves are not an optimization — they are the deadlock
    guarantee.  With a fully shared pool, packets of one VC can consume
    all buffering and starve the higher (escape) VCs whose progress
    would eventually free them, closing a cycle; a private reserve of
    one maximum packet per *usable* VC restores the strictly-increasing
    VC ladder argument (each VC's packets can always land downstream
    once the current occupant of the private slot advances, by induction
    from the always-sinking ejection ports).  Real DAMQ designs reserve
    per-VC minimums for exactly this reason.
    """

    __slots__ = (
        "num_vcs",
        "capacity",
        "reserves",
        "committed",
        "_shared_used",
        "shared_capacity",
        "_total",
        "peak_committed",
    )

    def __init__(
        self, num_vcs: int, capacity: int, reserve: "int | list[int]"
    ) -> None:
        if num_vcs < 1:
            raise ValueError("need at least one VC")
        if isinstance(reserve, int):
            reserves = [reserve] * num_vcs
        else:
            reserves = list(reserve)
            if len(reserves) != num_vcs:
                raise ValueError("one reserve entry required per VC")
        if any(r < 0 for r in reserves):
            raise ValueError("reserves must be non-negative")
        if capacity < sum(reserves):
            raise ValueError(
                f"capacity {capacity} cannot cover VC reserves {reserves}"
            )
        self.num_vcs = num_vcs
        self.capacity = capacity
        self.reserves = reserves
        self.committed = [0] * num_vcs
        self._shared_used = 0
        self.shared_capacity = capacity - sum(reserves)
        self._total = 0
        self.peak_committed = 0

    @property
    def total_committed(self) -> int:
        """Flits committed across all VCs (running total, O(1))."""
        return self._total

    def can_admit(self, vc: int) -> bool:
        """True if VC ``vc`` could commit one more flit right now: the
        shared pool has room, or its private reserve does."""
        return (
            self._shared_used < self.shared_capacity
            or self.committed[vc] < self.reserves[vc]
        )

    def admit(self, vc: int) -> None:
        """Commit one flit to VC ``vc`` (reserve first, then pool).

        Raises if there is no room: callers check :meth:`can_admit`
        first, so an overflow here is a credit-accounting bug upstream."""
        occ = self.committed[vc]
        if occ >= self.reserves[vc]:
            if self._shared_used >= self.shared_capacity:
                raise RuntimeError(
                    f"admit({vc}) without space: occ={occ}, "
                    f"shared={self._shared_used}/{self.shared_capacity}"
                )
            self._shared_used += 1
        self.committed[vc] = occ + 1
        total = self._total + 1
        self._total = total
        if total > self.peak_committed:
            self.peak_committed = total

    def release(self, vc: int) -> None:
        """Return one flit of VC ``vc``'s space (pool first, then reserve)."""
        occ = self.committed[vc]
        if occ < 1:
            raise RuntimeError(f"release({vc}) with no flit committed")
        if occ > self.reserves[vc]:
            self._shared_used -= 1
        self.committed[vc] = occ - 1
        self._total -= 1

    def occupancy_fraction(self) -> float:
        """Committed occupancy as a fraction of total capacity."""
        return self.total_committed / self.capacity if self.capacity else 0.0


class Damq:
    """A real DAMQ buffer: per-VC flit FIFOs over shared-pool accounting.

    ``push`` admits and files one arriving flit (space is guaranteed by
    the sender's credit mirror); ``pop`` releases one flit of space, and
    the caller is responsible for sending the corresponding credit
    upstream.
    """

    __slots__ = ("space", "queues", "flit_count", "occ_mask")

    def __init__(
        self, num_vcs: int, capacity: int, reserve: "int | list[int]"
    ) -> None:
        self.space = VcSpaceAccounting(num_vcs, capacity, reserve)
        self.queues: list[deque[Flit]] = [deque() for _ in range(num_vcs)]
        self.flit_count = 0  # fast emptiness check for the cycle loop
        # bit ``v`` set iff ``queues[v]`` is non-empty: the datapath scan
        # loops iterate set bits instead of every VC FIFO
        self.occ_mask = 0

    @property
    def num_vcs(self) -> int:
        """Number of virtual-channel FIFOs sharing this buffer."""
        return self.space.num_vcs

    @property
    def capacity(self) -> int:
        """Total flit capacity of the shared physical memory."""
        return self.space.capacity

    def push(self, vc: int, flit: Flit) -> None:
        """Admit one arriving flit of VC ``vc`` and file it at the tail of
        its FIFO (raises if the VC has no room)."""
        self.space.admit(vc)
        self.queues[vc].append(flit)
        self.flit_count += 1
        self.occ_mask |= 1 << vc

    def pop(self, vc: int) -> Flit:
        """Remove VC ``vc``'s head flit and release its space.

        The caller owes the upstream sender one credit for it."""
        flit = self.pop_no_release(vc)
        self.space.release(vc)
        return flit

    def pop_no_release(self, vc: int) -> Flit:
        """Pop a flit but keep its space committed.  Used by output
        buffers, which retain transmitted flits until the link-level
        acknowledgment round trip completes (Section II); the caller
        releases via ``space.release`` when the retention expires."""
        q = self.queues[vc]
        flit = q.popleft()
        if not q:
            self.occ_mask &= ~(1 << vc)
        self.flit_count -= 1
        return flit

    @property
    def total_flits(self) -> int:
        """Flits physically queued (excludes popped-but-retained space)."""
        return self.flit_count

    @property
    def total_committed(self) -> int:
        """Flits of space committed, including post-pop retention."""
        return self.space.total_committed

    @property
    def peak_committed(self) -> int:
        """High-water mark of committed occupancy over the buffer's life."""
        return self.space.peak_committed

    def occupancy_fraction(self) -> float:
        """Committed occupancy over capacity (drives ECN detection)."""
        return self.space.occupancy_fraction()

    @property
    def empty(self) -> bool:
        """True when no flits are queued and no space is committed."""
        return self.total_flits == 0 and self.space.total_committed == 0
