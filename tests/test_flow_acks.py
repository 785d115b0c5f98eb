"""The flow engine's ACK load against a per-entry scatter, bit for bit.

Every flow's ACKs load its destination's injection link (when charged),
the reverse switch hops, and the ejection link of each source member of
its block (its traffic class and source switch) at ``1 / len(members)``
of the ACK rate ``rate / msg_flits``.  ``_oracle_ack_load`` lists every
one of those charges per flow, the members taken from the traffic
classes' source nodes as the scenario defines them, and sums them with
one ``np.add.at`` in flow order.  ``_AckLoad`` charges members once per
member set instead; its load must be *equal*, not close: summing a
block from zero and adding it to an earlier class's total would differ
in the last bit, which the goldens' relative 1e-9 cannot see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.config import tiny_preset
from repro.engine.fastpath import FlowEngine, _AckLoad
from repro.scenario import (
    FatTreeTopologySpec,
    HotspotTraffic,
    UniformAggressorTraffic,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)
from tests.conftest import micro_config


def _hotspot_classes(total: int, traffic: HotspotTraffic) -> list[range]:
    """Victim and aggressor sources (hotspots are the last nodes, the
    aggressors the ones before them)."""
    num_hot = traffic.num_hotspots
    n_aggr = num_hot * traffic.oversubscription
    return [range(total - num_hot - n_aggr),
            range(total - num_hot - n_aggr, total - num_hot)]


#: on the two-node switches of ``tiny``, switch 19 hosts a victim and
#: an aggressor and switch 20 an aggressor and the hotspot
HOT = HotspotTraffic(victim_rate=0.4, num_hotspots=1, oversubscription=2)

#: scenario -> (spec, source nodes of each traffic class in order)
SCENARIOS = {
    "uniform_stash100": (
        lambda: reliability_scenario(
            tiny_preset(), "stash100", traffic=(UniformTraffic(rate=0.5),)
        ),
        lambda n: [range(n)],
    ),
    "micro_single_member_blocks": (
        lambda: reliability_scenario(
            micro_config(), "stash100", traffic=(UniformTraffic(rate=0.6),)
        ),
        lambda n: [range(n)],
    ),
    "hotspot": (
        lambda: congestion_scenario(tiny_preset(), "stash100", traffic=(HOT,)),
        lambda n: _hotspot_classes(n, HOT),
    ),
    "uniform_aggressor": (
        lambda: congestion_scenario(
            tiny_preset(), "stash100",
            traffic=(UniformAggressorTraffic(burst_flits=16,
                                             victim_rate=0.4),),
        ),
        lambda n: [range(n // 2), range(n // 2, n)],
    ),
    "fattree_ecmp": (
        lambda: reliability_scenario(
            tiny_preset(), "stash50", traffic=(UniformTraffic(rate=0.5),),
            topology=FatTreeTopologySpec(num_leaves=6, num_spines=3, p=4),
        ),
        lambda n: [range(n)],
    ),
    # a later class charges member links an earlier class charged: the
    # running sums must continue across classes
    "two_uniform_classes": (
        lambda: reliability_scenario(
            tiny_preset(), "stash100",
            traffic=(UniformTraffic(rate=0.3),
                     UniformTraffic(rate=0.25, msg_flits=2)),
        ),
        lambda n: [range(n), range(n)],
    ),
    # ... and a block whose members an earlier class charged in
    # different sets (victims, aggressors, untouched hotspots)
    "hotspot_then_uniform": (
        lambda: reliability_scenario(
            tiny_preset(), "stash50", traffic=(HOT, UniformTraffic(rate=0.2))
        ),
        lambda n: _hotspot_classes(n, HOT) + [range(n)],
    ),
}


def _run(monkeypatch, spec):
    """Run ``spec``; return (engine, flows, links, per-flow solved rates)."""
    captured = {}
    solve = FlowEngine._solve

    def spy(self, cfg, flows, links, ecn_classes):
        alloc, util = solve(self, cfg, flows, links, ecn_classes)
        captured.update(flows=flows, links=links, alloc=alloc)
        return alloc, util

    monkeypatch.setattr(FlowEngine, "_solve", spy)
    engine = FlowEngine()
    engine.run(spec)
    flows = captured["flows"]
    return engine, flows, captured["links"], flows.weight * captured["alloc"]


def _class_starts(flows) -> list[int]:
    """First flow of each traffic class: a class's flows run by source
    switch ascending, in one latency group."""
    starts = [0]
    for f in range(1, len(flows)):
        if (flows.group[f] != flows.group[f - 1]
                or flows.src_switch[f] < flows.src_switch[f - 1]):
            starts.append(f)
    return starts


def _oracle_ack_load(engine, flows, links, classes, rate) -> np.ndarray:
    node_switch = engine._node_switch
    starts = _class_starts(flows) + [len(flows)]
    assert len(starts) - 1 == len(classes)
    unit = rate / flows.msg_flits.astype(float)
    entry_links, entry_values = [], []
    for c, nodes in enumerate(classes):
        nodes = np.array(nodes)
        for f in range(starts[c], starts[c + 1]):
            acks = flows.ack_links[flows.ack_ptr[f]:flows.ack_ptr[f + 1]]
            shares = [flows.ack_hop_share[f]] * len(acks)
            if flows.ack_inj[f]:
                shares[0] = 1.0
            members = nodes[node_switch[nodes] == flows.src_switch[f]]
            entry_links.extend(acks.tolist())
            entry_values.extend(unit[f] * s for s in shares)
            entry_links.extend(links.id(f"ej:{v}") for v in members.tolist())
            entry_values.extend([unit[f] * (1.0 / len(members))]
                                * len(members))
    load = np.zeros(len(links.caps))
    np.add.at(load, np.array(entry_links), np.array(entry_values))
    return load


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ack_load_equals_per_entry_scatter(monkeypatch, name):
    make_spec, make_classes = SCENARIOS[name]
    engine, flows, links, solved = _run(monkeypatch, make_spec())
    classes = make_classes(len(engine._node_switch))
    ack = _AckLoad(flows, len(links.caps))
    random = np.random.default_rng(7).random(len(flows)) * 0.05
    for rate in (solved, random):
        expected = _oracle_ack_load(engine, flows, links, classes, rate)
        got = ack(rate)
        assert expected.any()
        assert np.array_equal(got, expected), name


def test_member_sets_continue_earlier_classes(monkeypatch):
    """Overlapping classes exercise the set chaining the test above
    checks: some sets continue an earlier set, some blocks split."""
    _engine, flows, _links, _rate = _run(
        monkeypatch, SCENARIOS["hotspot_then_uniform"][0]()
    )
    assert (flows.member_prev >= 0).any()
    first_of_block = np.unique(flows.member_first)
    assert len(first_of_block) < len(flows.member_first)
