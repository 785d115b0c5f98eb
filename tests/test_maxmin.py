"""The flow engine's array water-filling against a pure-Python oracle.

``_oracle_maxmin`` is the list-based progressive filling the flow
engine used before its solver became array code: every round scans
every link and every flow.  ``repro.engine.fastpath._maxmin`` must
agree with it on random incidences (including stash-pool links, whose
per-flow coefficient is a round-trip time rather than 1), and its
allocation must be feasible and max-min fair in its own right.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fastpath import _EPS, _Incidence, _maxmin


def _oracle_maxmin(
    entries: list[tuple[tuple[int, ...], tuple[float, ...]]],
    weights: list[float],
    caps: list[float],
    demand_caps: list[float],
) -> list[float]:
    """Progressive-filling max-min fair allocation, one flow and one
    link at a time: per-unit rate of each flow, with link ``l``
    constraining ``sum(weight * coeff * rate) <= caps[l]``."""
    n = len(entries)
    alloc = [0.0] * n
    residual = list(caps)
    active = [demand_caps[i] > _EPS for i in range(n)]
    link_weight = [0.0] * len(caps)
    link_flows: list[list[int]] = [[] for _ in caps]
    for i, (links, coeffs) in enumerate(entries):
        if not active[i]:
            continue
        for l, c in zip(links, coeffs):
            link_weight[l] += weights[i] * c
            link_flows[l].append(i)

    def freeze(i: int) -> None:
        active[i] = False
        links, coeffs = entries[i]
        for l, c in zip(links, coeffs):
            link_weight[l] -= weights[i] * c

    remaining = sum(active)
    while remaining:
        inc = math.inf
        for l, w in enumerate(link_weight):
            if w > _EPS:
                inc = min(inc, residual[l] / w)
        for i in range(n):
            if active[i]:
                inc = min(inc, demand_caps[i] - alloc[i])
        if inc is math.inf:
            break
        inc = max(inc, 0.0)
        for i in range(n):
            if active[i]:
                alloc[i] += inc
        for l, w in enumerate(link_weight):
            if w > _EPS:
                residual[l] -= inc * w
        for i in range(n):
            if active[i] and alloc[i] >= demand_caps[i] - _EPS:
                freeze(i)
        for l in range(len(caps)):
            if residual[l] <= _EPS and link_weight[l] > _EPS:
                for i in link_flows[l]:
                    if active[i]:
                        freeze(i)
        new_remaining = sum(active)
        if new_remaining == remaining:
            break  # numerical stall; allocation is already feasible
        remaining = new_remaining
    return alloc


@st.composite
def _instances(draw):
    """Random flows over ``data`` unit-coefficient links plus ``pools``
    stash links consumed at a per-flow round-trip coefficient."""
    data = draw(st.integers(1, 6))
    pools = draw(st.integers(0, 2))
    n = draw(st.integers(1, 10))
    entries = []
    for _ in range(n):
        links = draw(st.lists(st.integers(0, data - 1), unique=True,
                              max_size=data))
        coeffs = [1.0] * len(links)
        if pools and draw(st.booleans()):
            links.append(data + draw(st.integers(0, pools - 1)))
            coeffs.append(draw(st.floats(2.0, 400.0)))
        entries.append((tuple(links), tuple(coeffs)))
    weights = draw(st.lists(st.floats(0.25, 8.0), min_size=n, max_size=n))
    caps = draw(st.lists(st.floats(0.05, 10.0), min_size=data,
                         max_size=data))
    caps += draw(st.lists(st.floats(1.0, 600.0), min_size=pools,
                          max_size=pools))
    demand_caps = draw(st.lists(
        st.one_of(st.just(0.0), st.just(0.3), st.floats(0.0, 2.0)),
        min_size=n, max_size=n,
    ))
    return entries, weights, caps, demand_caps


def _solve(entries, weights, caps, demand_caps) -> np.ndarray:
    lens = [len(links) for links, _coeffs in entries]
    ptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    link = np.array([l for links, _c in entries for l in links],
                    dtype=np.int32)
    coeffs = np.array([c for _l, cs in entries for c in cs], dtype=float)
    inc = _Incidence(ptr, link, len(caps))
    entry_weight = np.repeat(np.array(weights), inc.lens) * coeffs
    return _maxmin(inc, entry_weight, np.array(caps), np.array(demand_caps))


def _link_loads(entries, weights, alloc, num_links) -> list[float]:
    load = [0.0] * num_links
    for (links, coeffs), w, x in zip(entries, weights, alloc):
        for l, c in zip(links, coeffs):
            load[l] += w * c * x
    return load


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_maxmin_matches_oracle_and_is_maxmin_fair(instance):
    entries, weights, caps, demand_caps = instance
    got = _solve(entries, weights, caps, demand_caps)
    want = _oracle_maxmin(entries, weights, caps, demand_caps)
    for x, y in zip(got.tolist(), want):
        assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)

    load = _link_loads(entries, weights, got.tolist(), len(caps))
    for l, cap in enumerate(caps):
        assert load[l] <= cap + 1e-9, f"link {l} over capacity"
    saturated = {l for l, cap in enumerate(caps) if load[l] >= cap - 1e-9}
    for i, ((links, _coeffs), x) in enumerate(zip(entries, got.tolist())):
        assert x >= -1e-12
        assert x >= demand_caps[i] - 1e-9 or saturated & set(links), (
            f"flow {i} is below its demand cap on unsaturated links"
        )


def test_maxmin_bottleneck_example():
    """Two flows share link 0 (cap 1); flow 1 also crosses a stash pool
    at coefficient 10 with room for 0.2 of its rate: flow 1 freezes at
    0.2 on the pool and flow 0 takes the rest of link 0."""
    entries = [((0,), (1.0,)), ((0, 1), (1.0, 10.0))]
    got = _solve(entries, [1.0, 1.0], [1.0, 2.0], [5.0, 5.0]).tolist()
    assert got == _oracle_maxmin(entries, [1.0, 1.0], [1.0, 2.0], [5.0, 5.0])
    assert got == [0.8, 0.2]
