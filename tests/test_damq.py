"""DAMQ buffers and the credit-mirror protocol."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.switch.damq import Damq, VcSpaceAccounting
from repro.switch.flit import Packet


def admit_n(acc: VcSpaceAccounting, vc: int, n: int) -> bool:
    """Admit ``n`` flits to ``vc`` one at a time while each has room;
    True iff all ``n`` were admitted."""
    for _ in range(n):
        if not acc.can_admit(vc):
            return False
        acc.admit(vc)
    return True


def can_take(acc: VcSpaceAccounting, vc: int, n: int) -> bool:
    """True if ``n`` successive flits of ``vc`` would fit right now."""
    return admit_n(copy.deepcopy(acc), vc, n)


def release_n(acc: VcSpaceAccounting, vc: int, n: int) -> None:
    for _ in range(n):
        acc.release(vc)


class TestVcSpaceAccounting:
    def test_reserve_guarantees_per_vc_space(self):
        acc = VcSpaceAccounting(num_vcs=2, capacity=20, reserve=5)
        assert admit_n(acc, 0, 10)  # 5 private + 5 shared; shared pool = 10
        assert can_take(acc, 1, 5)  # vc1's private reserve is untouchable
        assert admit_n(acc, 1, 5)
        assert not can_take(acc, 1, 6)
        assert can_take(acc, 1, 5)

    def test_shared_pool_exhaustion(self):
        acc = VcSpaceAccounting(num_vcs=2, capacity=10, reserve=0)
        assert admit_n(acc, 0, 7)
        assert not can_take(acc, 1, 4)
        assert can_take(acc, 1, 3)

    def test_release_returns_shared_first(self):
        acc = VcSpaceAccounting(num_vcs=2, capacity=10, reserve=2)
        assert admit_n(acc, 0, 6)  # 2 private + 4 shared
        release_n(acc, 0, 4)
        assert acc.committed[0] == 2
        assert can_take(acc, 1, 8)  # all shared space back

    def test_over_release_rejected(self):
        acc = VcSpaceAccounting(1, 10, 0)
        assert admit_n(acc, 0, 3)
        release_n(acc, 0, 3)
        with pytest.raises(RuntimeError):
            acc.release(0)

    def test_over_admit_rejected(self):
        acc = VcSpaceAccounting(1, 4, 0)
        for _ in range(4):
            acc.admit(0)
        with pytest.raises(RuntimeError):
            acc.admit(0)

    def test_capacity_must_cover_reserves(self):
        with pytest.raises(ValueError):
            VcSpaceAccounting(num_vcs=4, capacity=10, reserve=3)

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 8)), max_size=60
        )
    )
    @settings(max_examples=60)
    def test_invariants_under_random_traffic(self, ops):
        acc = VcSpaceAccounting(num_vcs=4, capacity=64, reserve=4)
        for vc, n in ops:
            if can_take(acc, vc, n):
                assert admit_n(acc, vc, n)
            elif acc.committed[vc] >= n:
                release_n(acc, vc, n)
        # invariants: never exceed capacity; shared accounting consistent
        assert 0 <= acc.total_committed <= acc.capacity
        shared = sum(
            max(0, c - r) for c, r in zip(acc.committed, acc.reserves)
        )
        assert shared == acc._shared_used
        assert shared <= acc.shared_capacity


class TestDamq:
    def _pkt(self, size=4, pid=1):
        return Packet(pid, 0, 1, size)

    def test_admit_then_stream(self):
        d = Damq(num_vcs=2, capacity=16, reserve=0)
        pkt = self._pkt(4)
        for f in pkt.flits:
            assert d.space.can_admit(0)
            d.push(0, f)
        assert len(d.queues[0]) == 4
        assert d.total_committed == 4
        out = [d.pop(0) for _ in range(4)]
        assert out == pkt.flits
        assert d.empty

    def test_admit_respects_capacity(self):
        d = Damq(1, 2, 0)
        pkt = self._pkt(3)
        d.push(0, pkt.flits[0])
        d.push(0, pkt.flits[1])
        assert not d.space.can_admit(0)
        with pytest.raises(RuntimeError):
            d.push(0, pkt.flits[2])

    def test_pop_no_release_retains_space(self):
        d = Damq(1, 8, 0)
        pkt = self._pkt(2)
        d.push(0, pkt.flits[0])
        d.pop_no_release(0)
        assert d.total_committed == 1  # space still held
        d.space.release(0)
        assert d.total_committed == 0

    def test_occupancy_fraction(self):
        d = Damq(1, 10, 0)
        for _ in range(5):
            d.space.admit(0)
        assert d.occupancy_fraction() == pytest.approx(0.5)


class TestMirrorProtocol:
    """The upstream mirror must track the downstream buffer exactly."""

    def test_mirror_and_real_agree(self):
        real = Damq(num_vcs=2, capacity=12, reserve=0)
        mirror = VcSpaceAccounting(num_vcs=2, capacity=12, reserve=0)
        p1, p2 = Packet(1, 0, 1, 4), Packet(2, 0, 1, 4)

        for f in p1.flits:
            assert mirror.can_admit(0)
            mirror.admit(0)
            real.push(0, f)
        for f in p2.flits:
            mirror.admit(1)
            real.push(1, f)

        assert mirror.total_committed == real.total_committed == 8
        for _ in range(4):
            mirror.admit(0)
        assert not mirror.can_admit(0)

        # downstream pops two flits and returns credits
        real.pop(0)
        real.pop(0)
        release_n(mirror, 0, 2)
        assert mirror.total_committed - 4 == real.total_committed == 6

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=30),
    )
    @settings(max_examples=50)
    def test_mirror_never_overflows_real(self, sizes):
        """Admission control through the mirror guarantees the real
        buffer always accepts what arrives."""
        real = Damq(num_vcs=3, capacity=24, reserve=0)
        mirror = VcSpaceAccounting(num_vcs=3, capacity=24, reserve=0)
        in_flight: list[int] = []
        for i, size in enumerate(sizes):
            vc = i % 3
            sent = 0
            while sent < size and mirror.can_admit(vc):
                mirror.admit(vc)
                real.space.admit(vc)  # must never raise
                in_flight.append(vc)
                sent += 1
            if sent < size and in_flight:
                vc0 = in_flight.pop(0)
                real.space.release(vc0)
                mirror.release(vc0)
        assert mirror.total_committed == real.total_committed
