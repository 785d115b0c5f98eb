"""Flow-level fastpath engine: fluid bandwidth allocation over the
scenario topology.

Where the cycle engine moves individual flits through a modelled switch
microarchitecture, :class:`FlowEngine` treats traffic as fluid flows and
solves for the steady state directly:

* **Topology graph** — the *same* topology objects the cycle engine
  wires (:mod:`repro.topology`), flattened into directed unit-capacity
  links (injection, ejection, local, global).  Routes are minimal and
  memoised per (source switch, destination switch); the fat-tree splits
  flows evenly across spines (fluid ECMP).
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
flow attribute, CSR flow x link incidences for data and ACKs), and the
solver is numpy array code over those incidences.  Every floating-point
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
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.base import EngineResult, EngineUnsupported, GroupStats
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.single_switch import SingleSwitchTopology

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
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``."""
    offsets = np.cumsum(lens) - lens
    total = int(offsets[-1] + lens[-1]) if len(lens) else 0
    return np.repeat(starts - offsets, lens) + np.arange(total)


def _seqsum(values: np.ndarray) -> float:
    """Left-to-right float sum (what a Python ``sum`` loop computes)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class _Incidence:
    """A flow x link incidence in CSR (by flow) and CSC (by link) order.

    Entry ``e`` of flow ``f`` (``ptr[f] <= e < ptr[f + 1]``) crosses
    link ``link[e]``; ``by_link[link_ptr[l]:link_ptr[l + 1]]`` are the
    entries on link ``l``, in ascending flow order.
    """

    def __init__(self, ptr: np.ndarray, link: np.ndarray,
                 num_links: int) -> None:
        self.ptr = ptr
        self.link = link
        self.num_flows = len(ptr) - 1
        self.num_links = num_links
        self.lens = np.diff(ptr)
        self.flow = np.repeat(
            np.arange(self.num_flows, dtype=np.int32), self.lens
        )
        self.by_link = np.argsort(link, kind="stable").astype(np.int32)
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
        live = active[inc.flow]
        np.add.at(link_weight, inc.link[live], entry_weight[live])
        link_active = np.bincount(inc.link[live], minlength=inc.num_links)
    residual = np.array(caps, dtype=float)
    order = np.argsort(demand_caps, kind="stable")
    sorted_caps = demand_caps[order]
    thresholds = sorted_caps - _EPS
    head = 0  # order[:head] holds no active flow

    def freeze(frozen: np.ndarray, level: float) -> None:
        active[frozen] = False
        alloc[frozen] = level
        entries = inc.entries(frozen)
        np.subtract.at(link_weight, inc.link[entries], entry_weight[entries])
        np.subtract.at(link_active, inc.link[entries], 1)

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

        capped = order[head:np.searchsorted(thresholds, t, side="right")]
        capped = np.sort(capped[active[capped]])
        if len(capped):
            freeze(capped, t)
        saturated = np.flatnonzero(
            (residual <= _EPS) & (link_weight > _EPS) & (link_active > 0)
        )
        blocked = capped[:0]
        if len(saturated):
            on_links = inc.flow[inc.by_link[_ranges(
                inc.link_ptr[saturated], np.diff(inc.link_ptr)[saturated]
            )]]
            on_links = on_links[active[on_links]]
            flows, first = np.unique(on_links, return_index=True)
            blocked = flows[np.argsort(first)]
            freeze(blocked, t)
        frozen = len(capped) + len(blocked)
        if not frozen:
            break  # numerical stall; allocation is already feasible
        remaining -= frozen
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
    """Every aggregated fluid flow of one run, as columns.

    Flow ``f`` stands for ``weight[f]`` unit sources on switch
    ``src_switch[f]`` sharing one route, each offering ``demand[f]``
    flits/cycle.  Its data links are ``data_links[data_ptr[f]:
    data_ptr[f + 1]]`` (injection, switch hops, ejection); its ACKs
    consume ``ack_links[ack_ptr[f]:ack_ptr[f + 1]]``, each at the
    matching ``ack_share`` of the flow's ACK rate.  ``stash_link`` is the
    virtual stash-pool link (consumed at coefficient ``rtt``) or -1.
    ``rtt`` and ``qdelay`` are left at their converged values by the
    solver.
    """

    def __init__(
        self, groups: list[str], chunks: list[dict[str, np.ndarray]]
    ) -> None:
        #: group names; the ``group`` column indexes this list
        self.groups = groups
        cols = {
            name: np.concatenate([c[name] for c in chunks])
            for name in chunks[0]
        }
        self.weight = cols["weight"]
        self.demand = cols["demand"]
        self.base_latency = cols["base_latency"]
        self.msg_flits = cols["msg_flits"]
        self.klass = cols["klass"]
        self.group = cols["group"]
        self.src_switch = cols["src_switch"]
        self.data_links = cols["data_links"]
        self.data_ptr = np.concatenate(([0], np.cumsum(cols["data_lens"])))
        self.ack_links = cols["ack_links"]
        self.ack_share = cols["ack_share"]
        self.ack_ptr = np.concatenate(([0], np.cumsum(cols["ack_lens"])))
        self.stash_link = np.full(len(self.weight), -1, dtype=np.int32)
        self.rtt = 2.0 * self.base_latency
        self.qdelay = np.zeros(len(self.weight))

    def __len__(self) -> int:
        return len(self.weight)


class _RouteTable:
    """The routes of every (source, destination) pair of node-hosting
    switches, computed once per run; pair ``(a, b)`` is ``a * S + b``.

    Pair ``p`` owns routes ``route_ptr[p]:route_ptr[p] + num_routes[p]``
    (ECMP splits; one elsewhere); route ``r`` crosses
    ``hops[hop_ptr[r]:hop_ptr[r] + hop_lens[r]]``, with summed hop
    latency ``hop_latency[r]`` and ``hop_count[r]`` switch traversals.
    A pair's routes are contiguous in ``hops`` too, so the ACK path of
    ``(b, a)`` — every route's hops, each at share ``1 / num_routes`` —
    is ``hops[pair_hop_ptr[p]:pair_hop_ptr[p] + pair_hop_lens[p]]``.
    """

    def __init__(
        self, num_switches: int,
        pair_routes: Iterable[
            tuple[int, list[tuple[list[tuple[int, float]], float]]]
        ],
    ) -> None:
        """``pair_routes`` yields (pair, routes) in ascending pair order."""
        self.num_switches = num_switches
        num_routes = [0] * num_switches ** 2
        hop_lens: list[int] = []
        hops: list[int] = []
        hop_latency: list[float] = []
        hop_count: list[float] = []
        for pair, routes in pair_routes:
            num_routes[pair] = len(routes)
            for route, count in routes:
                hop_lens.append(len(route))
                hops.extend(l for l, _lat in route)
                hop_latency.append(sum(h_lat for _l, h_lat in route))
                hop_count.append(count)
        self.num_routes = np.array(num_routes, dtype=np.int64)
        self.route_ptr = np.cumsum(self.num_routes) - self.num_routes
        self.hop_lens = np.array(hop_lens, dtype=np.int64)
        hop_end = np.concatenate(([0], np.cumsum(self.hop_lens)))
        self.hop_ptr = hop_end[:-1]
        self.hops = np.array(hops, dtype=np.int32)
        self.hop_latency = np.array(hop_latency, dtype=float)
        self.hop_count = np.array(hop_count, dtype=float)
        self.pair_hop_ptr = hop_end[self.route_ptr]
        self.pair_hop_lens = (
            hop_end[self.route_ptr + self.num_routes] - self.pair_hop_ptr
        )
        with np.errstate(divide="ignore"):
            self.share = 1.0 / self.num_routes


class FlowEngine:
    """Flow-level fastpath behind the Engine protocol."""

    name = "flow"

    def __init__(self) -> None:
        #: per-run node columns: switch, endpoint latency, ejection link,
        #: and the class injection link last registered for the node
        #: (-1 while unregistered; for ACK contention)
        self._node_switch = np.zeros(0, dtype=np.int64)
        self._ej_latency = np.zeros(0)
        self._ej_link = np.zeros(0, dtype=np.int64)
        self._node_inj = np.zeros(0, dtype=np.int64)
        #: per-run routes of every switch pair, built on first use
        self._routes: _RouteTable | None = None
        #: latency group names of this run's flows (``""``: untracked)
        self._groups: list[str] = []

    # ------------------------------------------------------------------
    # topology graph
    # ------------------------------------------------------------------

    def _build_graph(self, topo: "Topology", links: _LinkTable) -> None:
        """One directed unit-capacity link per wired switch port."""
        for s in range(topo.num_switches):
            for spec in topo.switch_ports(s):
                if spec.link_class in ("local", "global"):
                    links.add(f"l:{s}.{spec.port}", 1.0)

    def _route(
        self, topo: "Topology", src_switch: int, dst_switch: int,
        links: _LinkTable,
    ) -> tuple[list[tuple[int, float]], float]:
        """Minimal switch-to-switch hops: ([(link id, latency)], #switches)."""
        if isinstance(topo, SingleSwitchTopology) or src_switch == dst_switch:
            return [], 1.0
        if isinstance(topo, DragonflyTopology):
            hops: list[tuple[int, float]] = []
            cur = src_switch
            dst_group = topo.group_of(dst_switch)
            while cur != dst_switch:
                if topo.group_of(cur) == dst_group:
                    port = topo.local_port(cur, dst_switch)
                else:
                    port = topo.route_to_group(cur, dst_group)
                spec = topo.port_spec(cur, port)
                assert spec.peer is not None and spec.peer[0] == "switch"
                hops.append((links.id(f"l:{cur}.{port}"), float(spec.latency)))
                cur = spec.peer[1]
                if len(hops) > 8:  # minimal dragonfly paths are <= 3 hops
                    raise EngineUnsupported(
                        "flow routing failed to converge on this topology"
                    )
            return hops, float(len(hops) + 1)
        raise EngineUnsupported(
            f"flow engine has no routes for {type(topo).__name__}"
        )

    def _fattree_routes(
        self, topo, src_leaf: int, dst_leaf: int, links: _LinkTable
    ) -> list[tuple[list[tuple[int, float]], float]]:
        """All spine routes leaf->spine->leaf (fluid ECMP splits)."""
        routes = []
        for spine in range(topo.num_spines):
            spine_sw = topo.num_leaves + spine
            up = links.id(f"l:{src_leaf}.{topo.uplink_port(src_leaf, spine)}")
            down = links.id(
                f"l:{spine_sw}.{topo.downlink_port(spine_sw, dst_leaf)}"
            )
            lat = float(topo.latency_up)
            routes.append(([(up, lat), (down, lat)], 3.0))
        return routes

    def _switch_routes(
        self, topo, src_switch: int, dst_switch: int, links: _LinkTable
    ) -> list[tuple[list[tuple[int, float]], float]]:
        if isinstance(topo, FatTreeTopology) and src_switch != dst_switch:
            return self._fattree_routes(topo, src_switch, dst_switch, links)
        return [self._route(topo, src_switch, dst_switch, links)]

    def _route_table(self, topo, links: _LinkTable) -> _RouteTable:
        """Every node-hosting switch pair's routes (computed once)."""
        if self._routes is None:
            hosts = np.unique(self._node_switch).tolist()
            size = topo.num_switches
            self._routes = _RouteTable(size, (
                (a * size + b, self._switch_routes(topo, a, b, links))
                for a in hosts for b in hosts
            ))
        return self._routes

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
        self._routes = None
        self._groups = []

        chunks: list[dict[str, np.ndarray]] = []
        ecn_classes: list[str] = []
        all_nodes = np.arange(total)
        for traffic in spec.traffic:
            if isinstance(traffic, UniformTraffic):
                msg = traffic.msg_flits or cfg.switch.max_packet_flits
                self._uniform_flows(
                    topo, links, chunks, ecn_classes,
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
                    topo, links, chunks, ecn_classes,
                    nodes=victims, rate=traffic.victim_rate,
                    msg_flits=msg, group="victim", name="victim",
                )
                self._targeted_flows(
                    topo, links, chunks, ecn_classes,
                    nodes=aggr, rate=1.0, dsts=hot,
                    msg_flits=msg, group="aggressor", name="aggressor",
                )
            elif isinstance(traffic, UniformAggressorTraffic):
                msg = cfg.switch.max_packet_flits
                half = total // 2
                self._uniform_flows(
                    topo, links, chunks, ecn_classes,
                    nodes=all_nodes[:half], rate=traffic.victim_rate,
                    msg_flits=msg, group="victim", name="victim",
                )
                # closed-loop burst source: two messages outstanding, so
                # its open-loop equivalent demand is window / rtt
                self._uniform_flows(
                    topo, links, chunks, ecn_classes,
                    nodes=all_nodes[half:], rate=1.0,
                    msg_flits=traffic.burst_flits, group="aggressor",
                    name="aggressor",
                    outstanding_flits=2 * traffic.burst_flits,
                )
            else:
                raise EngineUnsupported(
                    f"flow engine cannot model traffic {traffic!r}"
                )
        # the route table and the per-switch blocks are construction
        # state: free them before the solver allocates its arrays
        self._routes = None
        if not chunks:
            return self._empty_result(cfg)
        flows = _FlowTable(self._groups, chunks)
        del chunks

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

    def _inj_link(
        self, links: _LinkTable, name: str, switch: int,
        members: np.ndarray,
    ) -> int:
        inj = links.ensure(f"inj:{name}:{switch}", float(len(members)))
        self._node_inj[members] = inj
        return inj

    def _ensure_ejection(self, links: _LinkTable, nodes: np.ndarray) -> None:
        """Create the ejection links of ``nodes`` not yet in the table,
        in first-use order."""
        fresh = nodes[self._ej_link[nodes] < 0]
        _unique, first = np.unique(fresh, return_index=True)
        for v in fresh[np.sort(first)].tolist():
            self._ej_link[v] = links.ensure(f"ej:{v}", 1.0)

    def _uniform_flows(
        self, topo, links: _LinkTable,
        chunks: list[dict[str, np.ndarray]], ecn_classes: list[str],
        nodes: np.ndarray, rate: float, msg_flits: int, group: str,
        name: str, outstanding_flits: int | None = None,
    ) -> None:
        """Uniform-random traffic from ``nodes`` to every other node,
        aggregated per (source switch, destination node)."""
        total = topo.num_nodes
        if total < 2 or rate <= 0.0 or not len(nodes):
            return
        klass = self._class_index(ecn_classes, name)
        self._source_flows(
            topo, links, chunks, klass, name, nodes, np.arange(total),
            rate / (total - 1), msg_flits, group, outstanding_flits,
        )

    def _targeted_flows(
        self, topo, links: _LinkTable,
        chunks: list[dict[str, np.ndarray]], ecn_classes: list[str],
        nodes: np.ndarray, rate: float, dsts: np.ndarray, msg_flits: int,
        group: str, name: str,
    ) -> None:
        """Traffic from ``nodes`` uniformly over the ``dsts`` set."""
        if rate <= 0.0 or not len(nodes) or not len(dsts):
            return
        klass = self._class_index(ecn_classes, name)
        self._source_flows(
            topo, links, chunks, klass, name, nodes, dsts,
            rate / len(dsts), msg_flits, group, None,
        )

    def _source_flows(
        self, topo, links: _LinkTable, chunks: list[dict[str, np.ndarray]],
        klass: int, name: str, nodes: np.ndarray, dsts: np.ndarray,
        unit: float, msg_flits: int, group: str,
        outstanding_flits: int | None,
    ) -> None:
        """One block of flows per source switch (ascending): each
        switch's ``nodes`` to every node of ``dsts`` but themselves."""
        if group not in self._groups:
            self._groups.append(group)
        group_index = self._groups.index(group)
        src_switch = self._node_switch[nodes]
        for a in np.unique(src_switch).tolist():
            members = nodes[src_switch == a]
            inj = self._inj_link(links, name, a, members)
            block = self._switch_flows(
                topo, links, a, members, inj, dsts, unit, msg_flits,
                outstanding_flits,
            )
            if block is None:
                continue
            count = len(block["weight"])
            block["msg_flits"] = np.full(count, msg_flits, dtype=np.int64)
            block["klass"] = np.full(count, klass, dtype=np.int32)
            block["group"] = np.full(count, group_index, dtype=np.int32)
            block["src_switch"] = np.full(count, a, dtype=np.int32)
            chunks.append(block)

    def _switch_flows(
        self, topo, links: _LinkTable, src_switch: int, members: np.ndarray,
        inj: int, dsts: np.ndarray, unit: float, msg_flits: int,
        outstanding_flits: int | None,
    ) -> dict[str, np.ndarray] | None:
        """The flows from one source switch's ``members`` to ``dsts``, in
        destination order; fat-trees get one flow per ECMP spine split.

        ACKs for a flow ride the reverse path back to the source
        members: the destination's injection channel, the reverse switch
        hops, and the members' ejection channels.  The injection channel
        is charged only when one is already registered for the
        destination, so it depends on switch numbering (a known issue,
        see docs/FASTPATH.md).
        """
        weight = len(members) - np.isin(dsts, members)
        dsts = dsts[weight > 0]
        if not len(dsts):
            return None
        weight = weight[weight > 0].astype(float)
        self._ensure_ejection(
            links, np.concatenate((dsts[:1], members, dsts[1:]))
        )
        table = self._route_table(topo, links)
        dst_switch = self._node_switch[dsts]
        pair = src_switch * table.num_switches + dst_switch
        back = dst_switch * table.num_switches + src_switch
        num_routes = table.num_routes[pair]
        dest = np.repeat(np.arange(len(dsts)), num_routes)
        route = _ranges(table.route_ptr[pair], num_routes)
        ej_latency = self._ej_latency[dsts]
        # injection + ejection channels, hops, switch traversals, message
        latency = (
            ej_latency[dest] * 2.0
            + table.hop_latency[route]
            + table.hop_count[route] * _HOP_CYCLES
            + float(msg_flits)
        )
        if outstanding_flits is None:
            demand = np.full(len(route), unit)
        else:
            # closed loop: at most outstanding_flits in flight per
            # source, spread over its destinations (at the first
            # route's zero-load round trip)
            first = table.route_ptr[pair]
            probe = (
                ej_latency * 2.0
                + table.hop_latency[first]
                + table.hop_count[first] * _HOP_CYCLES
                + float(msg_flits)
            )
            demand = np.minimum(
                unit,
                outstanding_flits / (2.0 * probe) / (topo.num_nodes - 1),
            )[dest]

        hop_lens = table.hop_lens[route]
        data_lens = hop_lens + 2
        starts = np.cumsum(data_lens) - data_lens
        data_links = np.empty(int(data_lens.sum()), dtype=np.int32)
        data_links[starts] = inj
        data_links[_ranges(starts + 1, hop_lens)] = table.hops[
            _ranges(table.hop_ptr[route], hop_lens)
        ]
        data_links[starts + data_lens - 1] = self._ej_link[dsts][dest]

        # one ACK list per destination, shared by its ECMP splits
        dst_inj = self._node_inj[dsts]
        has_inj = dst_inj >= 0
        back_lens = table.pair_hop_lens[back]
        ack_lens = has_inj + back_lens + len(members)
        ack_starts = np.cumsum(ack_lens) - ack_lens
        ack_links = np.empty(int(ack_lens.sum()), dtype=np.int32)
        ack_share = np.empty(len(ack_links))
        ack_links[ack_starts[has_inj]] = dst_inj[has_inj]
        ack_share[ack_starts[has_inj]] = 1.0
        pos = _ranges(ack_starts + has_inj, back_lens)
        ack_links[pos] = table.hops[
            _ranges(table.pair_hop_ptr[back], back_lens)
        ]
        ack_share[pos] = np.repeat(table.share[back], back_lens)
        pos = _ranges(
            ack_starts + has_inj + back_lens,
            np.full(len(dsts), len(members)),
        )
        ack_links[pos] = np.tile(self._ej_link[members], len(dsts))
        ack_share[pos] = 1.0 / len(members)
        if (num_routes != 1).any():
            pos = _ranges(ack_starts[dest], ack_lens[dest])
            ack_links, ack_share = ack_links[pos], ack_share[pos]
            ack_lens = ack_lens[dest]

        return {
            "weight": weight[dest] * table.share[pair][dest],
            "demand": demand,
            "base_latency": latency,
            "data_links": data_links,
            "data_lens": data_lens,
            "ack_links": ack_links,
            "ack_share": ack_share,
            "ack_lens": ack_lens,
        }

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
        ack_lens = np.diff(flows.ack_ptr)
        msg = flows.msg_flits.astype(float)
        # per-link queueing terms are computed once per message size
        msg_sizes, msg_index = np.unique(msg, return_inverse=True)
        entry_msg = np.repeat(msg_index.astype(np.int32), data_lens)

        # the max-min incidence: each flow's data links, then its stash
        # pool link, whose coefficient (rtt) is refreshed every step
        pooled = flows.stash_link >= 0
        lens = data_lens + pooled
        ptr = np.concatenate(([0], np.cumsum(lens)))
        link = np.empty(int(ptr[-1]), dtype=np.int32)
        link[_ranges(ptr[:-1], data_lens)] = data_links
        stash_pos = ptr[1:][pooled] - 1
        link[stash_pos] = flows.stash_link[pooled]
        inc = _Incidence(ptr, link, num_links)
        entry_weight = flows.weight[inc.flow]

        ack_load = np.zeros(num_links)
        buffer_cap = float(cfg.switch.input_buffer_flits)
        tail: list[np.ndarray] = []
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
            flows.qdelay = np.bincount(
                data_flow, weights=queue[entry_msg, data_links], minlength=n
            )
            flows.rtt = 0.5 * flows.rtt + 0.5 * (
                2.0 * (flows.base_latency + flows.qdelay)
            )
            # next step's ACK background load (priority traffic)
            acks = np.repeat(rate / msg, ack_lens)
            acks *= flows.ack_share
            ack_load = np.zeros(num_links)
            np.add.at(ack_load, flows.ack_links, acks)
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
            if step >= keep_from:
                tail.append(alloc)
        if tail:
            acc = tail[0].copy()
            for step_alloc in tail[1:]:
                acc += step_alloc
            alloc = acc / len(tail)
        return alloc, util

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
