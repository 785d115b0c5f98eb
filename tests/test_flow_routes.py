"""The flow engine's numpy route table against a per-pair route walk.

``_walk`` and ``_fattree_routes`` are the Python walk the flow engine
used before ``FlowEngine._route`` composed every switch pair's route at
once: one ``route_to_group`` / ``local_port`` lookup per hop on the
dragonfly, one route per spine on the fat tree.  The table must agree
with it exactly, pair by pair: the same routes in the same order, the
same hop links, the same summed hop latency and the same switch count.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.engine.base import EngineUnsupported
from repro.engine.config import paper_preset, tiny_preset
from repro.engine.fastpath import FlowEngine, _LinkTable
from repro.scenario import (
    FatTreeTopologySpec,
    ScenarioSpec,
    SingleSwitchTopologySpec,
)
from repro.scenario.spec import build_topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.single_switch import SingleSwitchTopology
from tests.conftest import micro_config


def _walk(topo, src_switch: int, dst_switch: int, links: _LinkTable):
    """Minimal switch-to-switch hops: ([(link id, latency)], #switches)."""
    if isinstance(topo, SingleSwitchTopology) or src_switch == dst_switch:
        return [], 1.0
    if isinstance(topo, DragonflyTopology):
        hops = []
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


def _fattree_routes(topo, src_leaf: int, dst_leaf: int, links: _LinkTable):
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


def _oracle_routes(topo, a: int, b: int, links: _LinkTable):
    if isinstance(topo, FatTreeTopology) and a != b:
        return _fattree_routes(topo, a, b, links)
    return [_walk(topo, a, b, links)]


def _topology(spec: ScenarioSpec):
    cfg = spec.resolved_config()
    topo, cfg = build_topology(spec, cfg)
    if topo is None:
        topo = DragonflyTopology(cfg.dragonfly, cfg.switch.num_ports)
    return topo


def _table(topo):
    """(route table, link table, host switches) as the engine builds them."""
    engine = FlowEngine()
    links = _LinkTable()
    engine._build_graph(topo, links)
    engine._node_switch = np.array(
        [topo.node_switch(v) for v in range(topo.num_nodes)], dtype=np.int64
    )
    return (engine._route(topo, links), links,
            np.unique(engine._node_switch).tolist())


def _assert_matches_walk(topo) -> int:
    """Compare every host pair's routes; returns the number of pairs.

    Routes are laid out pair by pair, so equal per-route lengths and
    equal concatenated hop lists mean equal routes, pair by pair.
    """
    table, links, hosts = _table(topo)
    size = topo.num_switches
    num_routes, hop_lens, hops, latency, count = [], [], [], [], []
    pair_hop_lens, pair_hops = [], []
    for a in hosts:
        for b in hosts:
            routes = _oracle_routes(topo, a, b, links)
            num_routes.append(len(routes))
            pair_hop_lens.append(sum(len(route) for route, _c in routes))
            for route, switches in routes:
                hop_lens.append(len(route))
                hops.extend(link for link, _lat in route)
                latency.append(sum(lat for _link, lat in route))
                count.append(switches)
            pair_hops.extend(link for route, _c in routes
                             for link, _lat in route)
    pairs = np.array([a * size + b for a in hosts for b in hosts])
    assert table.num_routes[pairs].tolist() == num_routes
    assert int(table.num_routes.sum()) == len(hop_lens)
    assert table.hop_lens.tolist() == hop_lens
    assert table.hop_links[table.hop_links >= 0].tolist() == hops
    # exact: the same float sums in the same order
    assert table.hop_latency.tolist() == latency
    assert table.hop_count.tolist() == count
    assert table.pair_hop_lens[pairs].tolist() == pair_hop_lens
    by_pair = table.pair_hops[pairs]
    assert by_pair[by_pair >= 0].tolist() == pair_hops
    return len(pairs)


@pytest.mark.parametrize("name, spec", [
    ("micro", ScenarioSpec(config=micro_config())),
    ("tiny", ScenarioSpec(config=tiny_preset())),
    ("fattree_micro", ScenarioSpec(config=micro_config(),
                                   topology=FatTreeTopologySpec())),
    ("fattree_6x3", ScenarioSpec(
        config=tiny_preset(),
        topology=FatTreeTopologySpec(num_leaves=6, num_spines=3, p=4),
    )),
    ("single_switch", ScenarioSpec(
        config=micro_config(), topology=SingleSwitchTopologySpec(num_nodes=4),
    )),
])
def test_route_table_matches_walk(name, spec):
    assert _assert_matches_walk(_topology(spec)) > 0


def test_route_table_matches_walk_on_flow_benchmark_dragonfly():
    """The 240-node dragonfly of the ``flow_uniform`` benchmark workload
    (paper switch parameters, p=3, a=5, h=3): 6,400 switch pairs."""
    base = paper_preset()
    cfg = base.with_(dragonfly=replace(base.dragonfly, p=3, a=5, h=3))
    assert _assert_matches_walk(_topology(ScenarioSpec(config=cfg))) == 6400


def test_route_table_matches_walk_at_paper_scale():
    """The 616-switch paper dragonfly: all 379,456 switch pairs (table
    only, no solve)."""
    cfg = paper_preset()
    topo = DragonflyTopology(cfg.dragonfly, cfg.switch.num_ports)
    assert _assert_matches_walk(topo) == 616 ** 2
