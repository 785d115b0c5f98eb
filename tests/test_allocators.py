"""Separable output-first crossbar allocator."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.switch.allocators import SeparableOutputFirstAllocator
from repro.switch.arbiters import RoundRobinArbiter


def test_empty_requests():
    alloc = SeparableOutputFirstAllocator(2, 2, 2)
    assert alloc.allocate([]) == []


def test_single_request_granted():
    alloc = SeparableOutputFirstAllocator(3, 2, 3)
    assert alloc.allocate([(1, 0, 2)]) == [(1, 0, 2)]


def test_one_grant_per_output():
    alloc = SeparableOutputFirstAllocator(3, 1, 1)
    granted = alloc.allocate([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    assert len(granted) == 1


def test_one_grant_per_input():
    alloc = SeparableOutputFirstAllocator(1, 1, 3)
    granted = alloc.allocate([(0, 0, 0), (0, 0, 1), (0, 0, 2)])
    assert len(granted) == 1


def test_disjoint_requests_all_granted():
    alloc = SeparableOutputFirstAllocator(3, 1, 3)
    reqs = [(0, 0, 0), (1, 0, 1), (2, 0, 2)]
    assert sorted(alloc.allocate(reqs)) == reqs


def test_round_robin_fairness_per_output():
    alloc = SeparableOutputFirstAllocator(2, 1, 1)
    wins = Counter()
    for _ in range(100):
        for inp, _vc, _out in alloc.allocate([(0, 0, 0), (1, 0, 0)]):
            wins[inp] += 1
    assert wins[0] == wins[1] == 50


def test_vcs_share_fairly():
    """All VCs have equal priority (paper Section V) — including slots
    that model the S and R VCs."""
    alloc = SeparableOutputFirstAllocator(1, 3, 1)
    wins = Counter()
    for _ in range(300):
        for _inp, vc, _out in alloc.allocate([(0, 0, 0), (0, 1, 0), (0, 2, 0)]):
            wins[vc] += 1
    assert wins[0] == wins[1] == wins[2] == 100


@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=60)
def test_matching_is_valid(num_in, num_vcs, num_out, data):
    alloc = SeparableOutputFirstAllocator(num_in, num_vcs, num_out)
    reqs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_in - 1),
                st.integers(0, num_vcs - 1),
                st.integers(0, num_out - 1),
            ),
            max_size=20,
            unique=True,
        )
    )
    granted = alloc.allocate(reqs)
    # every grant was requested
    assert all(g in reqs for g in granted)
    # at most one grant per input and per output
    assert len({g[0] for g in granted}) == len(granted)
    assert len({g[2] for g in granted}) == len(granted)
    # work-conserving at the single-request level
    if len(reqs) == 1:
        assert granted == reqs


class SeparableOracle:
    """Textbook separable output-first allocation from two banks of
    :class:`RoundRobinArbiter`: each output picks one requesting
    (input, vc) slot, then each input picks one granting output."""

    def __init__(self, num_in: int, num_vcs: int, num_out: int) -> None:
        self.num_vcs = num_vcs
        self.out_arbs = [RoundRobinArbiter(num_in * num_vcs) for _ in range(num_out)]
        self.in_arbs = [RoundRobinArbiter(num_out) for _ in range(num_in)]

    def allocate(self, requests):
        slots_by_out: dict[int, list[int]] = {}
        for inp, vc, out in requests:
            slots_by_out.setdefault(out, []).append(inp * self.num_vcs + vc)
        grants: dict[int, dict[int, int]] = {}  # input -> {output: vc}
        for out, slots in slots_by_out.items():
            inp, vc = divmod(self.out_arbs[out].pick(slots), self.num_vcs)
            grants.setdefault(inp, {})[out] = vc
        accepted = []
        for inp, offers in grants.items():
            out = self.in_arbs[inp].pick(list(offers))
            accepted.append((inp, offers[out], out))
        return accepted


@st.composite
def allocation_rounds(draw):
    """An allocator shape and a sequence of request rounds mixing lone
    requests, disjoint pairs, conflicting pairs and larger sets."""
    num_in = draw(st.integers(1, 5))
    num_vcs = draw(st.integers(1, 4))
    num_out = draw(st.integers(1, 5))
    inp = st.integers(0, num_in - 1)
    vc = st.integers(0, num_vcs - 1)
    out = st.integers(0, num_out - 1)
    kinds = ["lone", "conflicting", "many"]
    if num_in > 1 and num_out > 1:
        kinds.append("disjoint")
    rounds = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(kinds))
        first = (draw(inp), draw(vc), draw(out))
        if kind == "lone":
            rounds.append([first])
        elif kind == "disjoint":
            second = (
                draw(inp.filter(lambda i: i != first[0])),
                draw(vc),
                draw(out.filter(lambda o: o != first[2])),
            )
            rounds.append([first, second])
        elif kind == "conflicting":
            if draw(st.booleans()):  # same input, any output
                second = (first[0], draw(vc), draw(out))
            else:  # same output, any input
                second = (draw(inp), draw(vc), first[2])
            if second != first:
                rounds.append([first, second])
        else:
            triple = st.tuples(inp, vc, out)
            rounds.append(
                draw(st.lists(triple, min_size=3, max_size=12, unique=True))
            )
    return num_in, num_vcs, num_out, rounds


@given(allocation_rounds())
@settings(max_examples=150, deadline=None)
def test_allocate_matches_separable_oracle(case):
    """The lone-request and disjoint-pair shortcuts and the general path
    all grant exactly what the two-stage round-robin algorithm grants,
    and leave every arbiter pointer where its pick() would."""
    num_in, num_vcs, num_out, rounds = case
    alloc = SeparableOutputFirstAllocator(num_in, num_vcs, num_out)
    oracle = SeparableOracle(num_in, num_vcs, num_out)
    for requests in rounds:
        assert alloc.allocate(list(requests)) == oracle.allocate(requests)
        assert [a._next for a in alloc._out_arbiters] == [
            a._next for a in oracle.out_arbs
        ]
        assert [a._next for a in alloc._in_arbiters] == [
            a._next for a in oracle.in_arbs
        ]
