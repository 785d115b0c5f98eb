"""Flow-level fastpath engine: fluid bandwidth allocation over the
scenario topology.

Where the cycle engine moves individual flits through a modelled switch
microarchitecture, :class:`FlowEngine` treats traffic as fluid flows and
solves for the steady state directly:

* **Topology graph** — the *same* topology objects the cycle engine
  wires (:mod:`repro.topology`), flattened into directed unit-capacity
  links (injection, ejection, local, global).  Routes are minimal,
  composed for every (source switch, destination switch) pair at once
  from the topology's routing tables; the fat-tree splits flows evenly
  across spines (fluid ECMP).
* **Max-min fair sharing** — progressive filling: all unfrozen flows
  grow at the same rate until a link saturates or a flow reaches its
  demand, the allocation a fair per-flit arbiter converges to.
* **ACK background traffic** — the cycle engine acknowledges every
  delivered data packet with a priority single-flit ACK on the reverse
  path, so each link's data capacity is derated by the ACK load it
  carries (``rate / msg_flits`` per crossing flow).  Solved as a damped
  fixed point alongside the allocation.
* **Stash as a fluid buffer pool** — with end-to-end reliability each
  source switch holds a retransmission copy of every in-flight packet,
  so Little's law bounds its endpoints' aggregate rate:
  ``sum(rate_f * rtt_f) <= stash_pool_flits``.  The pool is a virtual
  link whose per-flow consumption coefficient is the flow's round-trip
  time — the same arithmetic as :mod:`repro.analysis.littles_law`, per
  switch instead of averaged, and the RTT includes the queueing delay
  of the current allocation (congestion inflates RTT, which tightens
  the pool, which throttles injection — the feedback loop behind the
  stash-variant throughput curves).
* **ECN as coarse time-stepped window dynamics** — each traffic class
  carries one fluid congestion window; every step the allocation is
  re-solved under ``rate <= window / rtt`` caps, then windows do
  multiplicative decrease (times ``window_decrease``) when a route link
  exceeds the congestion threshold and additive recovery otherwise.
  The reported numbers average the post-convergence tail of the steps.

Flows live in a struct-of-arrays :class:`_FlowTable` (one column per
flow attribute, CSR flow x link incidences for data and ACKs, and the
ACKs to each source switch's members charged once per block), built
one traffic class at a time into preallocated columns, and the solver
is numpy array code over those incidences.  Every floating-point
reduction is order-fixed (``np.bincount``, ``np.add.at``,
``np.add.accumulate``: sequential, in flow order), never a pairwise or
SIMD-dispatched sum, so results are a pure function of the
:class:`~repro.scenario.spec.ScenarioSpec` — no RNG, no dict-order
dependence — hence byte-identical for any ``--jobs`` value.

Accuracy envelope (measured by :mod:`repro.analysis.crosscheck`; see
docs/FASTPATH.md): mean throughput within 10 % of the cycle engine on
the cross-validation presets; latency is trend-level only.  Transient
time-series experiments (fig7/fig8), trace replay (fig6), and
microarchitecture probes (occupancy, placement/speedup ablations)
remain cycle-only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.engine.base import EngineResult, EngineUnsupported, GroupStats
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.config import NetworkConfig
    from repro.scenario.spec import ScenarioSpec
    from repro.topology.topology import Topology

__all__ = ["FlowEngine"]

#: per-switch-traversal pipeline cost (route + arbitration + crossbar),
#: calibrated against the cycle engine's zero-load latency
_HOP_CYCLES = 5.0

#: link utilization above which the fluid model reports ECN congestion
#: (occupancy thresholds only bind near saturation in steady state)
_ECN_UTILIZATION = 0.95

#: solver steps: ECN window dynamics need the longer schedule; plain
#: ack/rtt fixed points converge in a few damped iterations
_ECN_STEPS = 48
_FP_STEPS = 12

_EPS = 1e-12

#: hops after which a route walk gives up (minimal dragonfly paths are
#: at most 3)
_MAX_HOPS = 8

#: flows frozen per slice in max-min (bounds its temporaries)
_FREEZE_SLICE = 1 << 16

class _LinkTable:
    """Directed links with capacities, addressed by stable string keys."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.caps: list[float] = []

    def add(self, key: str, capacity: float) -> int:
        if key in self._ids:
            raise ValueError(f"duplicate link {key!r}")
        self._ids[key] = len(self.caps)
        self.caps.append(capacity)
        return self._ids[key]

    def ensure(self, key: str, capacity: float) -> int:
        if key not in self._ids:
            return self.add(key, capacity)
        return self._ids[key]

    def id(self, key: str) -> int:
        return self._ids[key]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``,
    as one running sum of steps (1 inside a range, a jump between)."""
    nonempty = lens > 0
    starts, lens = starts[nonempty], lens[nonempty]
    out = np.ones(int(lens.sum()), dtype=np.int64)
    if len(out):
        out[0] = starts[0]
        out[np.cumsum(lens[:-1])] = starts[1:] - starts[:-1] - lens[:-1] + 1
        np.cumsum(out, out=out)
    return out


def _seqsum(values: np.ndarray) -> float:
    """Left-to-right float sum (what a Python ``sum`` loop computes)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class _Incidence:
    """A flow x link incidence in CSR (by flow) and CSC (by link) order.

    Entry ``e`` of flow ``f`` (``ptr[f] <= e < ptr[f + 1]``) crosses
    link ``link[e]``; ``link_flow[link_ptr[l]:link_ptr[l + 1]]`` are the
    flows on link ``l``, ascending.
    """

    def __init__(self, ptr: np.ndarray, link: np.ndarray,
                 num_links: int) -> None:
        self.ptr = ptr
        self.link = link
        self.num_flows = len(ptr) - 1
        self.num_links = num_links
        self.lens = np.diff(ptr)
        flow = np.repeat(np.arange(self.num_flows, dtype=np.int32), self.lens)
        # a stable sort of the narrowest key type (a radix sort for
        # up to 65,536 links)
        keys = link.astype(np.min_scalar_type(max(num_links - 1, 0)))
        self.link_flow = flow[np.argsort(keys, kind="stable")]
        del flow, keys
        self.link_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(link, minlength=num_links)))
        )

    def entries(self, flows: np.ndarray) -> np.ndarray:
        """Entry ids of ``flows``, flow by flow, in CSR order."""
        return _ranges(self.ptr[flows], self.lens[flows])


def _maxmin(
    inc: _Incidence,
    entry_weight: np.ndarray,
    caps: np.ndarray,
    demand_caps: np.ndarray,
) -> np.ndarray:
    """Progressive-filling max-min fair allocation.

    Returns the per-unit rate of each flow.  ``demand_caps`` bounds each
    flow's per-unit rate; link ``l`` constrains
    ``sum(entry_weight[e] * rate[flow(e)]) <= caps[l]`` over the entries
    ``e`` on ``l`` (an entry's weight is its flow's weight times the
    entry's coefficient: 1 on a data link, the round trip on a stash
    pool).

    Every unfrozen flow sits at one common level ``t``, so a round is
    event-driven: the next event is the nearer of the first link to
    saturate (an O(links) minimum of ``residual / link_weight``) and the
    smallest unfrozen demand cap (from one sort per call).  Freezing
    touches only the frozen flows' entries, in the order progressive
    filling freezes them: demand-capped flows by index, then the flows
    of each saturated link, links ascending.
    """
    n = inc.num_flows
    alloc = np.zeros(n)
    active = demand_caps > _EPS
    link_weight = np.zeros(inc.num_links)
    if active.all():
        np.add.at(link_weight, inc.link, entry_weight)
        # active flows per link: a saturated link with none left is done
        link_active = np.diff(inc.link_ptr)
    else:
        live = np.repeat(active, inc.lens)
        np.add.at(link_weight, inc.link[live], entry_weight[live])
        link_active = np.bincount(inc.link[live], minlength=inc.num_links)
    residual = np.array(caps, dtype=float)
    order = np.argsort(demand_caps, kind="stable")
    sorted_caps = demand_caps[order]
    thresholds = sorted_caps - _EPS
    head = 0  # order[:head] holds no active flow

    def freeze(frozen: np.ndarray, level: float) -> None:
        nonlocal remaining
        active[frozen] = False
        alloc[frozen] = level
        remaining -= len(frozen)
        if not remaining:
            return  # the link totals are not read again
        # slice by slice, in order, to bound the entry temporaries
        for lo in range(0, len(frozen), _FREEZE_SLICE):
            entries = inc.entries(frozen[lo:lo + _FREEZE_SLICE])
            links = inc.link[entries]
            np.subtract.at(link_weight, links, entry_weight[entries])
            np.subtract.at(link_active, links, 1)

    t = 0.0
    remaining = int(np.count_nonzero(active))
    while remaining:
        loaded = link_weight > _EPS
        step = math.inf
        if loaded.any():
            step = float(np.min(residual[loaded] / link_weight[loaded]))
        span = 64
        while not active[order[head]]:
            block = active[order[head:head + span]]
            if block.any():
                head += int(np.argmax(block))
                break
            head += span
            span *= 2
        step = min(step, float(sorted_caps[head]) - t)
        if step == math.inf:
            break
        step = max(step, 0.0)
        t += step
        residual[loaded] -= step * link_weight[loaded]

        before = remaining
        capped = order[head:np.searchsorted(thresholds, t, side="right")]
        capped = np.sort(capped[active[capped]])
        if len(capped):
            freeze(capped, t)
            if not remaining:
                break
        saturated = np.flatnonzero(
            (residual <= _EPS) & (link_weight > _EPS) & (link_active > 0)
        )
        if len(saturated):
            on_links = inc.link_flow[_ranges(
                inc.link_ptr[saturated], np.diff(inc.link_ptr)[saturated]
            )]
            on_links = on_links[active[on_links]]
            flows, first = np.unique(on_links, return_index=True)
            freeze(flows[np.argsort(first)], t)
        if remaining == before:
            break  # numerical stall; allocation is already feasible
    alloc[active] = t
    return alloc


def _weighted_percentiles(
    values: np.ndarray, weights: np.ndarray, pcts: tuple[float, ...]
) -> list[float]:
    """Nearest-rank percentiles of (value, weight) samples."""
    total = _seqsum(weights)
    if total <= 0.0:
        return [math.nan] * len(pcts)
    order = np.lexsort((weights, values))
    ordered = values[order]
    acc = np.add.accumulate(weights[order])
    out = []
    for pct in pcts:
        target = pct / 100.0 * total
        i = int(np.searchsorted(acc, target - _EPS, side="left"))
        out.append(float(ordered[min(i, len(ordered) - 1)]))
    return out


class _FlowTable:
    """Every aggregated fluid flow of one run, as preallocated columns.

    Flow ``f`` stands for ``weight[f]`` unit sources on switch
    ``src_switch[f]`` sharing one route, each offering ``demand[f]``
    flits/cycle.  Its data links are ``data_links[data_ptr[f]:
    data_ptr[f + 1]]`` (injection, switch hops, ejection).
    ``stash_link`` is the virtual stash-pool link (consumed at
    coefficient ``rtt``) or -1.  ``rtt`` and ``qdelay`` are left at
    their converged values by the solver.

    A flow's ACKs (rate ``rate / msg_flits``) load its destination's
    injection link, the reverse switch hops, and the ejection link of
    every source member of its block (its traffic class and source
    switch), each member at ``1 / len(members)``.  The first two are
    per-flow entries, ``ack_links[ack_ptr[f]:ack_ptr[f + 1]]``: the
    injection link first if ``ack_inj[f]`` (at the full ACK rate), then
    the hops, each at ``ack_hop_share[f]`` (``1 / ECMP splits``).
    Every flow of a block would repeat the same member list, so members
    are charged per *member set* instead: set ``s`` is the ejection
    links ``member_links[member_ptr[s]:
    member_ptr[s + 1]]``, charged by the flows ``member_first[s]:
    member_first[s] + member_count[s]`` at ``member_share[s]`` each, on
    top of the running total of set ``member_prev[s]`` (-1: none), the
    set an earlier class last charged those links in.  The sets of the
    ``c``-th traffic class are ``member_class_ptr[c]:
    member_class_ptr[c + 1]``.
    """

    def __init__(self, groups: list[str], plans: list["_ClassPlan"]) -> None:
        """Allocate the columns of ``plans``' flows (filled by the
        engine) and gather their member sets."""
        #: group names; the ``group`` column indexes this list
        self.groups = groups
        num_flows = sum(p.num_flows for p in plans)
        num_data = sum(p.num_data for p in plans)
        num_acks = sum(p.num_acks for p in plans)
        self.weight = np.empty(num_flows)
        self.demand = np.empty(num_flows)
        self.base_latency = np.empty(num_flows)
        self.msg_flits = np.empty(num_flows, dtype=np.int64)
        self.klass = np.empty(num_flows, dtype=np.int32)
        self.group = np.empty(num_flows, dtype=np.int32)
        self.src_switch = np.empty(num_flows, dtype=np.int32)
        self.data_links = np.empty(num_data, dtype=np.int32)
        self.data_ptr = np.zeros(num_flows + 1, dtype=np.int64)
        self.ack_links = np.empty(num_acks, dtype=np.int32)
        self.ack_inj = np.empty(num_flows, dtype=bool)
        self.ack_hop_share = np.empty(num_flows)
        self.ack_ptr = np.zeros(num_flows + 1, dtype=np.int64)
        self.stash_link = np.full(num_flows, -1, dtype=np.int32)
        self.rtt = np.empty(num_flows)
        self.qdelay = np.zeros(num_flows)
        first_flow = np.cumsum([0] + [p.num_flows for p in plans])
        self.member_ptr = np.concatenate(
            ([0], np.cumsum(np.concatenate([p.member_sizes for p in plans])))
        )
        self.member_links = np.concatenate([p.member_links for p in plans])
        self.member_share = np.concatenate([p.member_share for p in plans])
        self.member_prev = np.concatenate([p.member_prev for p in plans])
        self.member_first = np.concatenate(
            [p.member_first + f0 for p, f0 in zip(plans, first_flow)]
        )
        self.member_count = np.concatenate([p.member_count for p in plans])
        self.member_class_ptr = np.cumsum(
            [0] + [len(p.member_share) for p in plans]
        )

    def __len__(self) -> int:
        return len(self.weight)


class _AckLoad:
    """The ACK background load per link of a :class:`_FlowTable`, as a
    function of the per-flow rates.

    Each link's load is the sequential sum of its charges in flow order
    (what one ``np.add.at`` over every flow's full ACK list would
    compute).  A member set's charges are summed in one ``np.bincount``
    bin that starts with its ``member_prev`` total, so a link charged by
    several classes continues one running sum; the sets of one class
    are summed together once the earlier classes' totals are known.
    """

    def __init__(self, flows: _FlowTable, num_links: int) -> None:
        self.flows = flows
        self.num_links = num_links
        self.msg = flows.msg_flits.astype(float)
        self.ack_lens = np.diff(flows.ack_ptr)
        self.inj_entries = flows.ack_ptr[:-1][flows.ack_inj]
        #: per class: (first set, end set, charging flows, their bins
        #: after one prior slot per set, their shares)
        self.classes: list[
            tuple[int, int, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        ptr = flows.member_class_ptr
        for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist()):
            count = flows.member_count[lo:hi]
            sets = np.arange(hi - lo)
            self.classes.append((
                lo, hi,
                _ranges(flows.member_first[lo:hi], count),
                np.concatenate((sets, np.repeat(sets, count))),
                np.repeat(flows.member_share[lo:hi], count),
            ))
        # a link in several sets ends at its last (latest-class) total
        sizes = np.diff(flows.member_ptr)
        last = np.full(num_links, -1, dtype=np.int64)
        np.maximum.at(last, flows.member_links,
                      np.repeat(np.arange(len(sizes)), sizes))
        self.final_links = np.flatnonzero(last >= 0)
        self.final_sets = last[self.final_links]

    def __call__(self, rate: np.ndarray) -> np.ndarray:
        flows = self.flows
        unit = rate / self.msg
        acks = np.repeat(unit * flows.ack_hop_share, self.ack_lens)
        acks[self.inj_entries] = unit[flows.ack_inj]
        load = np.zeros(self.num_links)
        np.add.at(load, flows.ack_links, acks)
        totals = np.zeros(len(flows.member_share))
        for lo, hi, charging, bins, share in self.classes:
            prev = flows.member_prev[lo:hi]
            prior = np.where(prev >= 0, totals[prev], 0.0)
            totals[lo:hi] = np.bincount(
                bins, weights=np.concatenate((prior, unit[charging] * share)),
                minlength=hi - lo,
            )
        load[self.final_links] = totals[self.final_sets]
        return load


class _ClassPlan(NamedTuple):
    """One traffic class's flows before the table is allocated.

    One *entry* per (source switch, destination node) pair with at
    least one source that is not the destination, in source switch,
    then destination order; an entry becomes one flow per route.
    """

    klass: int
    group: int
    unit: float
    msg_flits: int
    outstanding_flits: int | None
    #: per switch: the class's injection link there (-1: none)
    inj_of: np.ndarray
    # per entry
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    #: the injection link its ACKs charge (-1: none)
    dst_inj: np.ndarray
    num_routes: np.ndarray
    # sizes of the class's part of the table
    num_flows: int
    num_data: int
    num_acks: int
    # the class's member sets (see _FlowTable); flows count from the
    # class's first
    member_links: np.ndarray
    member_sizes: np.ndarray
    member_share: np.ndarray
    member_prev: np.ndarray
    member_first: np.ndarray
    member_count: np.ndarray


class _RouteTable:
    """The routes of every (source, destination) pair of node-hosting
    switches, computed once per run; pair ``(a, b)`` is ``a * S + b``.

    Pair ``p`` owns routes ``route_ptr[p]:route_ptr[p] + num_routes[p]``
    (ECMP splits; one elsewhere).  Route ``r`` crosses the first
    ``hop_lens[r]`` links of row ``hop_links[r]`` (padded with -1),
    with summed hop latency ``hop_latency[r]`` and ``hop_count[r]``
    switch traversals.  Row ``pair_hops[p]`` is the hops of every route
    of ``p`` in route order (each route's padding kept; -1 is skipped),
    ``pair_hop_lens[p]`` links in all: the ACK path of pair ``(b, a)``,
    each hop at share ``1 / num_routes``.
    """

    def __init__(
        self, num_switches: int, num_routes: np.ndarray,
        hop_links: np.ndarray, hop_latency: np.ndarray,
    ) -> None:
        """Route ``r`` is row ``r`` of the (routes x hops) matrices, in
        pair order: its links up to the first -1, at ``hop_latency``."""
        self.num_switches = num_switches
        self.num_routes = num_routes
        self.route_ptr = np.cumsum(num_routes) - num_routes
        self.hop_links = hop_links.astype(np.int32)
        self.hop_lens = (hop_links >= 0).sum(axis=1)
        # added hop by hop, in route order (padding adds 0.0)
        self.hop_latency = np.zeros(len(hop_links))
        for column in hop_latency.T:
            self.hop_latency += column
        self.hop_count = self.hop_lens + 1.0
        width = hop_links.shape[1]
        self.pair_hops = np.full(
            (len(num_routes), int(num_routes.max()) * width), -1,
            dtype=np.int32,
        )
        for k in range(int(num_routes.max())):
            split = num_routes > k
            self.pair_hops[split, k * width:(k + 1) * width] = (
                self.hop_links[self.route_ptr[split] + k]
            )
        self.pair_hop_lens = (self.pair_hops >= 0).sum(axis=1)
        with np.errstate(divide="ignore"):
            self.share = 1.0 / self.num_routes


class FlowEngine:
    """Flow-level fastpath behind the Engine protocol."""

    name = "flow"

    def __init__(self) -> None:
        #: per-run node columns: switch, endpoint latency, ejection link,
        #: the class injection link last registered for the node (-1
        #: while unregistered; for ACK contention), and the member set
        #: that last charged its ejection link with ACKs (-1: none)
        self._node_switch = np.zeros(0, dtype=np.int64)
        self._ej_latency = np.zeros(0)
        self._ej_link = np.zeros(0, dtype=np.int64)
        self._node_inj = np.zeros(0, dtype=np.int64)
        self._member_set = np.zeros(0, dtype=np.int64)
        self._num_sets = 0
        #: per-run (switch, port) tables of the switch-to-switch links:
        #: link id (-1: none), latency and peer switch
        self._port_link = np.zeros((0, 0), dtype=np.int64)
        self._port_latency = np.zeros((0, 0))
        self._port_peer = np.zeros((0, 0), dtype=np.int64)
        #: latency group names of this run's flows (``""``: untracked)
        self._groups: list[str] = []

    # ------------------------------------------------------------------
    # topology graph
    # ------------------------------------------------------------------

    def _build_graph(self, topo: "Topology", links: _LinkTable) -> None:
        """One directed unit-capacity link per wired switch port."""
        shape = (topo.num_switches, topo.num_ports)
        self._port_link = np.full(shape, -1, dtype=np.int64)
        self._port_latency = np.zeros(shape)
        self._port_peer = np.full(shape, -1, dtype=np.int64)
        for s in range(topo.num_switches):
            for spec in topo.switch_ports(s):
                if spec.link_class in ("local", "global"):
                    assert spec.peer is not None
                    port = spec.port
                    self._port_link[s, port] = links.add(f"l:{s}.{port}", 1.0)
                    self._port_latency[s, port] = float(spec.latency)
                    if spec.peer[0] == "switch":
                        self._port_peer[s, port] = spec.peer[1]

    def _route(self, topo: "Topology", links: _LinkTable) -> _RouteTable:
        """Minimal routes of every node-hosting switch pair, composed for
        all pairs at once: none within a switch, next-hop expansion on
        the dragonfly, one route per spine on the fat tree."""
        size = topo.num_switches
        hosts = np.unique(self._node_switch)
        src = np.repeat(hosts, len(hosts))
        dst = np.tile(hosts, len(hosts))
        far = src != dst
        splits = 1
        hop_links = np.zeros((0, 0), dtype=np.int64)
        hop_latency = np.zeros((0, 0))
        if not far.any():
            pass
        elif isinstance(topo, DragonflyTopology):
            hop_links, hop_latency = self._dragonfly_hops(
                topo, src[far], dst[far]
            )
        elif isinstance(topo, FatTreeTopology):
            splits = topo.num_spines
            hop_links, hop_latency = self._fattree_hops(
                topo, src[far], dst[far]
            )
        else:
            raise EngineUnsupported(
                f"flow engine has no routes for {type(topo).__name__}"
            )
        per_pair = np.where(far, splits, 1)
        num_routes = np.zeros(size * size, dtype=np.int64)
        num_routes[src * size + dst] = per_pair
        far_rows = np.repeat(far, per_pair)
        rows = (len(far_rows), hop_links.shape[1])
        all_links = np.full(rows, -1, dtype=np.int64)
        all_links[far_rows] = hop_links
        all_latency = np.zeros(rows)
        all_latency[far_rows] = hop_latency
        return _RouteTable(size, num_routes, all_links, all_latency)

    def _dragonfly_hops(
        self, topo: DragonflyTopology, src: np.ndarray, dst: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hop by hop for every pair at once: through the topology's
        group-routing table towards another group, then its local port
        to the destination.  One row of (links, latencies) per pair,
        padded with -1 and 0.0."""
        size = topo.num_switches
        group = np.array([topo.group_of(s) for s in range(size)])
        slot = np.array([topo.pos_in_group(s) for s in range(size)])
        to_group = np.full((size, topo.g), -1, dtype=np.int64)
        to_peer = np.full((size, topo.a), -1, dtype=np.int64)
        mates: dict[int, list[int]] = {}
        for s in range(size):
            mates.setdefault(int(group[s]), []).append(s)
        for s in range(size):
            home = int(group[s])
            for g in range(topo.g):
                if g != home:
                    to_group[s, g] = topo.route_to_group(s, g)
            for peer in mates[home]:
                if peer != s:
                    to_peer[s, slot[peer]] = topo.local_port(s, peer)

        links: list[np.ndarray] = []
        latency: list[np.ndarray] = []
        cur = src.copy()
        live = np.arange(len(src))
        for _hop in range(_MAX_HOPS):
            if not len(live):
                break
            at, to = cur[live], dst[live]
            port = np.where(group[at] == group[to], to_peer[at, slot[to]],
                            to_group[at, group[to]])
            nxt = self._port_peer[at, port]
            hop = np.full(len(src), -1, dtype=np.int64)
            hop[live] = self._port_link[at, port]
            links.append(hop)
            hop_latency = np.zeros(len(src))
            hop_latency[live] = self._port_latency[at, port]
            latency.append(hop_latency)
            cur[live] = nxt
            live = live[nxt != to]
        if len(live):
            raise EngineUnsupported(
                "flow routing failed to converge on this topology"
            )
        return np.stack(links, axis=1), np.stack(latency, axis=1)

    def _fattree_hops(
        self, topo: FatTreeTopology, src: np.ndarray, dst: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every leaf->spine->leaf route of every leaf pair, spine by
        spine (fluid ECMP splits): one row of (links, latencies) each."""
        leaves, spines = topo.num_leaves, topo.num_spines
        up = np.array([[topo.uplink_port(leaf, k) for k in range(spines)]
                       for leaf in range(leaves)])
        down = np.array([[topo.downlink_port(leaves + k, leaf)
                          for leaf in range(leaves)] for k in range(spines)])
        a = np.repeat(src, spines)
        b = np.repeat(dst, spines)
        k = np.tile(np.arange(spines), len(src))
        ports = ((a, up[a, k]), (leaves + k, down[k, b]))
        return (np.stack([self._port_link[p] for p in ports], axis=1),
                np.stack([self._port_latency[p] for p in ports], axis=1))

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self, spec: "ScenarioSpec") -> EngineResult:
        """Solve the scenario's fluid steady state and aggregate stats
        in the shared :class:`EngineResult` schema."""
        from repro.scenario.spec import (
            HotspotTraffic,
            UniformAggressorTraffic,
            UniformTraffic,
            build_topology,
        )

        cfg = spec.resolved_config()
        topo, cfg = build_topology(spec, cfg)
        if topo is None:
            topo = DragonflyTopology(cfg.dragonfly, cfg.switch.num_ports)
        total = topo.num_nodes
        links = _LinkTable()
        self._build_graph(topo, links)
        self._node_switch = np.array(
            [topo.node_switch(v) for v in range(total)], dtype=np.int64
        )
        self._ej_latency = np.array(
            [self._endpoint_latency(topo, v) for v in range(total)]
        )
        self._ej_link = np.full(total, -1, dtype=np.int64)
        self._node_inj = np.full(total, -1, dtype=np.int64)
        self._member_set = np.full(total, -1, dtype=np.int64)
        self._num_sets = 0
        self._groups = []
        routes = self._route(topo, links)

        plans: list[_ClassPlan] = []
        ecn_classes: list[str] = []
        all_nodes = np.arange(total)
        for traffic in spec.traffic:
            if isinstance(traffic, UniformTraffic):
                msg = traffic.msg_flits or cfg.switch.max_packet_flits
                self._uniform_flows(
                    links, routes, plans, ecn_classes,
                    nodes=all_nodes, rate=traffic.rate,
                    msg_flits=msg, group="", name="uniform",
                )
            elif isinstance(traffic, HotspotTraffic):
                msg = cfg.switch.max_packet_flits
                num_hot = traffic.num_hotspots
                if num_hot is None:
                    num_hot = max(1, round(total * 12 / 3080))
                n_aggr = num_hot * traffic.oversubscription
                if n_aggr + num_hot >= total:
                    raise EngineUnsupported(
                        "network too small for this hotspot configuration"
                    )
                hot = all_nodes[total - num_hot:]
                aggr = all_nodes[total - num_hot - n_aggr:total - num_hot]
                victims = all_nodes[:total - num_hot - n_aggr]
                self._uniform_flows(
                    links, routes, plans, ecn_classes,
                    nodes=victims, rate=traffic.victim_rate,
                    msg_flits=msg, group="victim", name="victim",
                )
                self._targeted_flows(
                    links, routes, plans, ecn_classes,
                    nodes=aggr, rate=1.0, dsts=hot,
                    msg_flits=msg, group="aggressor", name="aggressor",
                )
            elif isinstance(traffic, UniformAggressorTraffic):
                msg = cfg.switch.max_packet_flits
                half = total // 2
                self._uniform_flows(
                    links, routes, plans, ecn_classes,
                    nodes=all_nodes[:half], rate=traffic.victim_rate,
                    msg_flits=msg, group="victim", name="victim",
                )
                # closed-loop burst source: two messages outstanding, so
                # its open-loop equivalent demand is window / rtt
                self._uniform_flows(
                    links, routes, plans, ecn_classes,
                    nodes=all_nodes[half:], rate=1.0,
                    msg_flits=traffic.burst_flits, group="aggressor",
                    name="aggressor",
                    outstanding_flits=2 * traffic.burst_flits,
                )
            else:
                raise EngineUnsupported(
                    f"flow engine cannot model traffic {traffic!r}"
                )
        if not plans:
            return self._empty_result(cfg)
        flows = self._flow_table(routes, plans)
        # the route table and the class plans are construction state:
        # free them before the solver allocates its arrays
        del routes, plans

        if cfg.reliability.enabled and cfg.stash.enabled:
            self._attach_stash_pools(topo, cfg, links, flows)

        alloc, util = self._solve(cfg, flows, links, ecn_classes)
        return self._summarise(cfg, topo, flows, alloc, util,
                               ecn_on=cfg.ecn.enabled)

    # ------------------------------------------------------------------
    # flow construction
    # ------------------------------------------------------------------

    def _class_index(self, ecn_classes: list[str], name: str) -> int:
        if name not in ecn_classes:
            ecn_classes.append(name)
        return ecn_classes.index(name)

    def _endpoint_latency(self, topo: "Topology", node: int) -> float:
        spec = topo.port_spec(topo.node_switch(node), topo.node_port(node))
        return float(spec.latency)

    def _uniform_flows(
        self, links: _LinkTable, routes: _RouteTable,
        plans: list[_ClassPlan], ecn_classes: list[str],
        nodes: np.ndarray, rate: float, msg_flits: int, group: str,
        name: str, outstanding_flits: int | None = None,
    ) -> None:
        """Uniform-random traffic from ``nodes`` to every other node,
        aggregated per (source switch, destination node)."""
        total = len(self._node_switch)
        if total < 2 or rate <= 0.0 or not len(nodes):
            return
        klass = self._class_index(ecn_classes, name)
        self._plan_class(
            links, routes, plans, klass, name, nodes, np.arange(total),
            rate / (total - 1), msg_flits, group, outstanding_flits,
        )

    def _targeted_flows(
        self, links: _LinkTable, routes: _RouteTable,
        plans: list[_ClassPlan], ecn_classes: list[str],
        nodes: np.ndarray, rate: float, dsts: np.ndarray, msg_flits: int,
        group: str, name: str,
    ) -> None:
        """Traffic from ``nodes`` uniformly over the ``dsts`` set."""
        if rate <= 0.0 or not len(nodes) or not len(dsts):
            return
        klass = self._class_index(ecn_classes, name)
        self._plan_class(
            links, routes, plans, klass, name, nodes, dsts,
            rate / len(dsts), msg_flits, group, None,
        )

    def _plan_class(
        self, links: _LinkTable, routes: _RouteTable,
        plans: list[_ClassPlan], klass: int, name: str, nodes: np.ndarray,
        dsts: np.ndarray, unit: float, msg_flits: int, group: str,
        outstanding_flits: int | None,
    ) -> None:
        """Plan one class: each source switch's ``nodes`` (a *block*,
        ascending by switch) to every node of ``dsts`` but themselves.

        ACKs ride the reverse path back to the block: the destination's
        injection channel, the reverse switch hops and the members'
        ejection channels.  The injection channel is charged only when
        one is already registered for the destination when its block is
        reached, so it depends on switch numbering (a known issue, see
        docs/FASTPATH.md).
        """
        if group not in self._groups:
            self._groups.append(group)
        node_switch = self._node_switch
        src_switch = node_switch[nodes]
        blocks, sizes = np.unique(src_switch, return_counts=True)
        members = nodes[np.argsort(src_switch, kind="stable")]
        member_block = np.repeat(np.arange(len(blocks)), sizes)
        in_class = np.zeros(len(node_switch), dtype=bool)
        in_class[nodes] = True

        blk = np.repeat(np.arange(len(blocks)), len(dsts))
        dst = np.tile(dsts, len(blocks))
        dst_switch = node_switch[dst]
        weight = sizes[blk] - ((dst_switch == blocks[blk]) & in_class[dst])
        keep = weight > 0
        blk, dst, dst_switch = blk[keep], dst[keep], dst_switch[keep]
        weight = weight[keep].astype(float)
        block_entries = np.bincount(blk, minlength=len(blocks))
        flowing = block_entries > 0

        inj_of = self._register_links(
            links, routes.num_switches, name, blocks, sizes,
            members, member_block, block_entries, dst,
        )
        # a destination's injection link is registered when the flow's
        # block is reached iff this class registered it at or before
        # that block, or an earlier class did
        src = blocks[blk]
        dst_inj = np.where(
            in_class[dst] & (dst_switch <= src),
            inj_of[dst_switch], self._node_inj[dst],
        )
        self._node_inj[nodes] = inj_of[src_switch]
        live = flowing[member_block]
        set_nodes, set_sizes, set_block, set_prev = self._member_sets(
            members[live], member_block[live]
        )
        if not len(dst):
            return

        pair = src * routes.num_switches + dst_switch
        back = dst_switch * routes.num_switches + src
        num_routes = routes.num_routes[pair]
        block_flows = np.bincount(blk, weights=num_routes,
                                  minlength=len(blocks)).astype(np.int64)
        num_acks = num_routes * ((dst_inj >= 0) + routes.pair_hop_lens[back])
        plans.append(_ClassPlan(
            klass=klass, group=self._groups.index(group), unit=unit,
            msg_flits=msg_flits, outstanding_flits=outstanding_flits,
            inj_of=inj_of, src=src, dst=dst, weight=weight, dst_inj=dst_inj,
            num_routes=num_routes,
            num_flows=int(num_routes.sum()),
            num_data=int((routes.pair_hop_lens[pair] + 2 * num_routes).sum()),
            num_acks=int(num_acks.sum()),
            member_links=self._ej_link[set_nodes],
            member_sizes=set_sizes,
            member_share=1.0 / sizes[set_block],
            member_prev=set_prev,
            member_first=(np.cumsum(block_flows) - block_flows)[set_block],
            member_count=block_flows[set_block],
        ))

    def _register_links(
        self, links: _LinkTable, num_switches: int, name: str,
        blocks: np.ndarray, sizes: np.ndarray, members: np.ndarray,
        member_block: np.ndarray, block_entries: np.ndarray,
        dst: np.ndarray,
    ) -> np.ndarray:
        """Register a class's links in the order a block-by-block build
        meets them: per block its injection link, then, if it has flows,
        the ejection links it is first to use.  Returns the injection
        link per switch (-1: none).

        ``dst`` holds the blocks' destinations, ``block_entries`` per
        block, block by block.  The first block with flows meets its
        first destination, its members, then its other destinations (so
        every destination); later blocks can add only their own members.
        """
        fresh = np.zeros(0, dtype=np.int64)
        fresh_block = np.zeros(0, dtype=np.int64)
        flowing = block_entries > 0
        if flowing.any():
            b0 = int(np.argmax(flowing))
            num_dsts = int(block_entries[b0])
            later = flowing[member_block] & (member_block > b0)
            fresh = np.concatenate((
                dst[:1], members[member_block == b0], dst[1:num_dsts],
                members[later],
            ))
            fresh_block = np.concatenate((
                np.full(num_dsts + int(sizes[b0]), b0), member_block[later],
            ))
            new = self._ej_link[fresh] < 0
            fresh, fresh_block = fresh[new], fresh_block[new]
            first = np.sort(np.unique(fresh, return_index=True)[1])
            fresh, fresh_block = fresh[first], fresh_block[first]
        bounds = np.searchsorted(fresh_block, np.arange(len(blocks) + 1))
        fresh_nodes = fresh.tolist()
        inj_of = np.full(num_switches, -1, dtype=np.int64)
        for b, a in enumerate(blocks.tolist()):
            inj_of[a] = links.ensure(f"inj:{name}:{a}", float(sizes[b]))
            for v in fresh_nodes[bounds[b]:bounds[b + 1]]:
                self._ej_link[v] = links.add(f"ej:{v}", 1.0)
        return inj_of

    def _member_sets(
        self, nodes: np.ndarray, block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split the members (``nodes`` of blocks ``block``) of a class's
        blocks with flows into member sets: the members of one block
        whose ejection links the same earlier set last charged.

        Returns the member nodes set by set, the set sizes, each set's
        block and the set it continues (-1: none), and numbers the sets
        on from the earlier classes'.
        """
        prev = self._member_set[nodes]
        order = np.lexsort((prev, block))
        nodes, block, prev = nodes[order], block[order], prev[order]
        starts = np.ones(len(nodes), dtype=bool)
        starts[1:] = (block[1:] != block[:-1]) | (prev[1:] != prev[:-1])
        self._member_set[nodes] = self._num_sets + np.cumsum(starts) - 1
        self._num_sets += int(np.count_nonzero(starts))
        sizes = np.diff(np.flatnonzero(np.append(starts, True)))
        return nodes, sizes, block[starts], prev[starts]

    def _flow_table(
        self, routes: _RouteTable, plans: list[_ClassPlan]
    ) -> _FlowTable:
        """Allocate the flow table once and fill it class by class."""
        flows = _FlowTable(self._groups, plans)
        f0 = 0
        for plan in plans:
            self._fill(flows, routes, plan, f0)
            f0 += plan.num_flows
        return flows

    def _fill(
        self, flows: _FlowTable, routes: _RouteTable, plan: _ClassPlan,
        f0: int,
    ) -> None:
        """Write one class's flows from flow ``f0`` on, one flow per
        route of each planned entry (destination order; fat-trees split
        by ECMP spine)."""
        d0, a0 = flows.data_ptr[f0], flows.ack_ptr[f0]
        size = routes.num_switches
        dst_switch = self._node_switch[plan.dst]
        pair = plan.src * size + dst_switch
        back = dst_switch * size + plan.src
        dest = np.repeat(np.arange(len(pair)), plan.num_routes)
        route = _ranges(routes.route_ptr[pair], plan.num_routes)
        f1 = f0 + len(route)
        msg_flits = plan.msg_flits
        ej_latency = self._ej_latency[plan.dst]
        # injection + ejection channels, hops, switch traversals, message
        flows.base_latency[f0:f1] = (
            ej_latency[dest] * 2.0
            + routes.hop_latency[route]
            + routes.hop_count[route] * _HOP_CYCLES
            + float(msg_flits)
        )
        flows.rtt[f0:f1] = 2.0 * flows.base_latency[f0:f1]
        if plan.outstanding_flits is None:
            flows.demand[f0:f1] = plan.unit
        else:
            # closed loop: at most outstanding_flits in flight per
            # source, spread over its destinations (at the first
            # route's zero-load round trip)
            first = routes.route_ptr[pair]
            probe = (
                ej_latency * 2.0
                + routes.hop_latency[first]
                + routes.hop_count[first] * _HOP_CYCLES
                + float(msg_flits)
            )
            flows.demand[f0:f1] = np.minimum(
                plan.unit,
                plan.outstanding_flits / (2.0 * probe)
                / (len(self._node_switch) - 1),
            )[dest]
        flows.weight[f0:f1] = plan.weight[dest] * routes.share[pair][dest]
        flows.msg_flits[f0:f1] = msg_flits
        flows.klass[f0:f1] = plan.klass
        flows.group[f0:f1] = plan.group
        flows.src_switch[f0:f1] = plan.src[dest]

        # data links: injection, the route's hops, ejection
        hop_lens = routes.hop_lens[route]
        data = np.full((len(route), routes.hop_links.shape[1] + 2), -1,
                       dtype=np.int32)
        data[:, 0] = plan.inj_of[plan.src][dest]
        data[:, 1:-1] = routes.hop_links[route]
        data[np.arange(len(route)), hop_lens + 1] = (
            self._ej_link[plan.dst][dest]
        )
        flows.data_ptr[f0 + 1:f1 + 1] = d0 + np.cumsum(hop_lens + 2)
        flows.data_links[d0:flows.data_ptr[f1]] = data[data >= 0]
        del data

        # ACK links: the destination's injection link (when charged),
        # then the reverse path; every ECMP split carries them all
        back = back[dest]
        acks = np.empty((len(route), routes.pair_hops.shape[1] + 1),
                        dtype=np.int32)
        acks[:, 0] = plan.dst_inj[dest]
        acks[:, 1:] = routes.pair_hops[back]
        flows.ack_inj[f0:f1] = acks[:, 0] >= 0
        flows.ack_hop_share[f0:f1] = routes.share[back]
        flows.ack_ptr[f0 + 1:f1 + 1] = a0 + np.cumsum(
            flows.ack_inj[f0:f1] + routes.pair_hop_lens[back]
        )
        flows.ack_links[a0:flows.ack_ptr[f1]] = acks[acks >= 0]

    def _attach_stash_pools(
        self, topo, cfg, links: _LinkTable, flows: _FlowTable
    ) -> None:
        """Bound each source switch's in-flight flits by its stash pool:
        ``sum(rate * rtt) <= pool`` (Little's law), encoded as a virtual
        link consumed at coefficient ``rtt`` per unit rate."""
        st = cfg.stash
        pooled = cfg.switch.input_buffer_flits + cfg.switch.output_buffer_flits
        pool_ids = np.full(topo.num_switches, -1, dtype=np.int32)
        for s in range(topo.num_switches):
            pool = 0.0
            for pspec in topo.switch_ports(s):
                if pspec.link_class in ("endpoint", "local", "global"):
                    pool += st.fraction_for(pspec.link_class) * pooled
            pool *= st.capacity_scale
            if pool > 0.0:
                pool_ids[s] = links.add(f"stash:{s}", pool)
        flows.stash_link = pool_ids[flows.src_switch]

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------

    def _solve(
        self, cfg, flows: _FlowTable, links: _LinkTable,
        ecn_classes: list[str],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Damped fixed point over (allocation, ACK load, queueing RTT),
        with the ECN window schedule layered on when ECN is enabled.

        Returns (per-unit allocations, per-link utilizations) and leaves
        the flows' ``rtt``/``qdelay`` columns at their converged values.
        """
        ecn = cfg.ecn
        ecn_on = ecn.enabled
        steps = _ECN_STEPS if ecn_on else _FP_STEPS
        keep_from = steps - max(1, steps // 4)
        windows = [float(ecn.window_max_flits)] * len(ecn_classes)
        n = len(flows)
        base_caps = np.array(links.caps)
        num_links = len(base_caps)
        data_links = flows.data_links
        data_lens = np.diff(flows.data_ptr)
        data_flow = np.repeat(np.arange(n, dtype=np.int32), data_lens)
        ack = _AckLoad(flows, num_links)
        # per-link queueing terms are computed once per message size;
        # entry e reads row msg(e), column data_links[e] of that table
        msg_sizes, msg_index = np.unique(ack.msg, return_inverse=True)
        entry_queue = np.repeat(
            (msg_index * num_links).astype(np.int32), data_lens
        )
        entry_queue += data_links
        del msg_index

        # the max-min incidence: each flow's data links, then its stash
        # pool link, whose coefficient (rtt) is refreshed every step
        pooled = flows.stash_link >= 0
        lens = data_lens + pooled
        ptr = np.concatenate(([0], np.cumsum(lens)))
        link = np.empty(int(ptr[-1]), dtype=np.int32)
        link[_ranges(ptr[:-1], data_lens)] = data_links
        stash_pos = ptr[1:][pooled] - 1
        link[stash_pos] = flows.stash_link[pooled]
        del lens
        inc = _Incidence(ptr, link, num_links)
        entry_weight = np.repeat(flows.weight, inc.lens)

        ack_load = np.zeros(num_links)
        buffer_cap = float(cfg.switch.input_buffer_flits)
        tail = np.zeros(n)  # sum of the kept steps' allocations
        alloc = np.zeros(n)
        util = np.zeros(num_links)
        for step in range(steps):
            entry_weight[stash_pos] = flows.weight[pooled] * flows.rtt[pooled]
            caps_eff = np.maximum(_EPS, base_caps - ack_load)
            if ecn_on:
                demand_caps = np.minimum(
                    flows.demand, np.array(windows)[flows.klass] / flows.rtt
                )
            else:
                demand_caps = flows.demand
            alloc = _maxmin(inc, entry_weight, caps_eff, demand_caps)

            # total (data + ACK) load per link under this allocation
            rate = flows.weight * alloc
            load = ack_load.copy()
            np.add.at(load, data_links, np.repeat(rate, data_lens))
            util = np.divide(
                load, base_caps, out=np.zeros(num_links),
                where=base_caps > 0,
            )
            # queueing delay -> damped RTT update (feeds the stash pool
            # coefficients and the ECN window caps next step)
            rho = np.minimum(util, 0.999999)
            queue = np.minimum(
                0.5 * rho / (1.0 - rho) * msg_sizes[:, None], buffer_cap
            )
            queue[:, rho <= 0.0] = 0.0
            flows.qdelay = np.zeros(n)
            np.add.at(flows.qdelay, data_flow, queue.ravel()[entry_queue])
            flows.rtt = 0.5 * flows.rtt + 0.5 * (
                2.0 * (flows.base_latency + flows.qdelay)
            )
            # next step's ACK background load (priority traffic)
            ack_load = ack(rate)
            if ecn_on:
                congested = np.zeros(len(ecn_classes), dtype=bool)
                hot = data_flow[util[data_links] >= _ECN_UTILIZATION]
                congested[flows.klass[hot]] = True
                for k in range(len(ecn_classes)):
                    if congested[k]:
                        windows[k] = max(
                            float(ecn.window_min_flits),
                            windows[k] * ecn.window_decrease,
                        )
                    else:
                        windows[k] = min(
                            float(ecn.window_max_flits),
                            windows[k] + float(ecn.recovery_flits),
                        )
            if step == keep_from:
                tail = alloc.copy()
            elif step > keep_from:
                tail += alloc
        return tail / (steps - keep_from), util

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    def _summarise(
        self, cfg, topo, flows: _FlowTable, alloc: np.ndarray,
        util: np.ndarray, ecn_on: bool,
    ) -> EngineResult:
        nodes = max(1, topo.num_nodes)
        sim = cfg.sim
        if not len(flows):
            return self._empty_result(cfg)
        rate = flows.weight * alloc
        latency = flows.base_latency + flows.qdelay
        weight = np.maximum(rate, _EPS)
        msg = flows.msg_flits
        pkts = np.divide(rate, msg, out=np.zeros(len(rate)), where=msg > 0)

        groups: list[tuple[str, GroupStats]] = []
        for name in sorted(g for g in flows.groups if g):
            mask = flows.group == flows.groups.index(name)
            if not mask.any():
                continue
            values, weights = latency[mask], weight[mask]
            p50, p90, p99 = _weighted_percentiles(values, weights,
                                                  (50, 90, 99))
            groups.append((name, GroupStats(
                count=int(_seqsum(pkts[mask]) * sim.measure_cycles),
                mean=_seqsum(values * weights) / _seqsum(weights),
                p50=p50,
                p90=p90,
                p99=p99,
                max=float(values.max()),
            )))
        p90, p99 = _weighted_percentiles(latency, weight, (90, 99))
        return EngineResult(
            engine=self.name,
            offered_load=_seqsum(flows.weight * flows.demand) / nodes,
            accepted_load=_seqsum(rate) / nodes,
            avg_latency=_seqsum(latency * weight) / _seqsum(weight),
            p90_latency=p90,
            p99_latency=p99,
            max_latency=float(latency.max()),
            packets_measured=int(_seqsum(pkts) * sim.measure_cycles),
            cycles=sim.warmup_cycles + sim.measure_cycles,
            groups=tuple(groups),
            extras=(
                ("bottleneck_utilization",
                 float(util.max()) if len(util) else 0.0),
                ("ecn_steps", float(_ECN_STEPS if ecn_on else 0)),
            ),
        )

    def _empty_result(self, cfg) -> EngineResult:
        sim = cfg.sim
        return EngineResult(
            engine=self.name,
            offered_load=0.0,
            accepted_load=0.0,
            avg_latency=math.nan,
            p90_latency=math.nan,
            p99_latency=math.nan,
            max_latency=math.nan,
            packets_measured=0,
            cycles=sim.warmup_cycles + sim.measure_cycles,
            groups=(),
            extras=(("bottleneck_utilization", 0.0), ("ecn_steps", 0.0)),
        )
