"""Shared fixtures: micro-scale configurations for fast integration tests.

``micro_config`` is a 6-node, 6-switch dragonfly (p=1, a=2, h=1) with
short links and small buffers — single-digit milliseconds per thousand
cycles.  ``single_switch_net`` wires N endpoints to one switch, the
fastest way to exercise the full datapath.  ``run_grid`` runs a sweep
family's grid the way the runner and campaigns do.
"""

from __future__ import annotations

import importlib

import pytest

from repro.campaign import SWEEPS, run_points, sweep_points
from repro.engine.config import (
    DragonflyParams,
    EcnParams,
    NetworkConfig,
    ReliabilityParams,
    SimParams,
    StashParams,
    SwitchParams,
)
from repro.network import Network
from repro.topology.single_switch import SingleSwitchTopology


def micro_config(**overrides) -> NetworkConfig:
    """A 6-node dragonfly that still exercises locals and globals."""
    base = dict(
        switch=SwitchParams(
            num_ports=4,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=96,
            output_buffer_flits=96,
            row_buffer_packets=4,
            col_buffer_packets=4,
            max_packet_flits=4,
            speedup=1.3,
            sideband_latency=2,
        ),
        dragonfly=DragonflyParams(
            p=1,
            a=2,
            h=1,
            latency_endpoint=1,
            latency_local=2,
            latency_global=8,
        ),
        stash=StashParams(frac_local=0.5),
        sim=SimParams(
            seed=7,
            warmup_cycles=300,
            measure_cycles=1500,
            drain_cycles=30000,
            sample_period=25,
        ),
    )
    base.update(overrides)
    return NetworkConfig(**base)


def single_switch_config(num_nodes: int = 6, **overrides) -> NetworkConfig:
    base = dict(
        switch=SwitchParams(
            num_ports=6,
            rows=2,
            cols=2,
            num_vcs=6,
            input_buffer_flits=96,
            output_buffer_flits=96,
            max_packet_flits=4,
            sideband_latency=2,
        ),
        # the dragonfly section is unused with an explicit topology, but
        # must still fit the switch for NetworkConfig validation
        dragonfly=DragonflyParams(
            p=1, a=2, h=1, latency_endpoint=1, latency_local=2,
            latency_global=4,
        ),
        stash=StashParams(frac_local=0.5),
        sim=SimParams(
            seed=11, warmup_cycles=200, measure_cycles=1000, drain_cycles=20000
        ),
    )
    base.update(overrides)
    return NetworkConfig(**base)


def single_switch_net(
    num_nodes: int = 6,
    stash: bool = False,
    reliability: bool = False,
    error_rate: float = 0.0,
    ecn: bool = False,
    stash_on_congestion: bool = False,
    **overrides,
) -> Network:
    cfg = single_switch_config(num_nodes, **overrides)
    if stash:
        cfg = cfg.with_(
            stash=StashParams(enabled=True, frac_local=0.5),
            reliability=ReliabilityParams(
                enabled=reliability, error_rate=error_rate
            ),
        )
    if ecn:
        cfg = cfg.with_(
            ecn=EcnParams(
                enabled=True,
                stash_on_congestion=stash_on_congestion,
                window_max_flits=256,
                window_min_flits=4,
                recovery_period=4,
            )
        )
    topo = SingleSwitchTopology(num_nodes, cfg.switch.num_ports, latency=2)
    return Network(cfg, topology=topo)


@pytest.fixture
def micro_net() -> Network:
    return Network(micro_config())


def drain_and_check(net: Network, max_cycles: int = 60000) -> None:
    """Run the network empty and assert full message conservation, then
    credit and buffer-space conservation (:func:`assert_at_rest`)."""
    assert net.drain(max_cycles), "network failed to drain"
    posted = sum(ep.messages_posted for ep in net.endpoints)
    delivered = sum(1 for m in net.messages.values() if m.delivered)
    assert delivered == posted, f"{delivered}/{posted} messages delivered"
    assert_at_rest(net)


def assert_at_rest(net: Network) -> None:
    """Every VC-space account (input and output DAMQs, switch and
    endpoint credit mirrors) is empty, every row/column credit counter
    is back at full depth, and every stream lock is free."""
    spaces = {f"ep{ep.node}.mirror": ep.mirror for ep in net.endpoints}
    locks = {}
    for sw in net.switches:
        s = sw.switch_id
        cfg = sw.cfg
        for ip in sw.in_ports:
            spaces[f"sw{s}.in{ip.idx}"] = ip.damq.space
            for col, row in enumerate(ip.row_credits):
                assert row == [cfg.row_buffer_flits] * sw.total_vcs, (
                    f"sw{s}.in{ip.idx} row credits to column {col}: {row}"
                )
        for op in sw.out_ports:
            spaces[f"sw{s}.out{op.idx}"] = op.out_damq.space
            spaces[f"sw{s}.out{op.idx}.mirror"] = op.mirror
            locks[f"sw{s}.out{op.idx}.mux"] = op.mux_lock
            locks[f"sw{s}.out{op.idx}.link"] = op.link_lock
        for tiles in sw.tiles:
            for tile in tiles:
                name = f"sw{s}.tile{tile.row},{tile.col}"
                for out, row in enumerate(tile.col_credits):
                    assert row == [cfg.col_buffer_flits] * sw.total_vcs, (
                        f"{name} column credits to output {out}: {row}"
                    )
                for out, lock in enumerate(tile.locks):
                    locks[f"{name}.out{out}"] = lock
        stranger = object()  # no lock can be held by this source
        for name, lock in locks.items():
            held = [
                vc for vc in range(sw.total_vcs)
                if not lock.available_to(vc, stranger)
            ]
            assert not held, f"{name} stream lock held on VCs {held}"
        locks.clear()
    for name, space in spaces.items():
        if space is None:
            continue  # ejection ports have no mirror: endpoints sink
        assert space.committed == [0] * space.num_vcs, (
            f"{name} committed {space.committed}"
        )
        assert space._shared_used == 0, f"{name} shared pool in use"


def run_grid(sweep, base, axes, seeds=None, engine="cycle", jobs=1):
    """Run one sweep family's grid through the campaign layer, exactly
    as the runner does: ``campaign_entries`` -> ``sweep_points`` ->
    ``run_points``.  Outcomes come back in grid order."""
    module = importlib.import_module(SWEEPS[sweep])
    entries = module.campaign_entries(base, axes)
    return run_points(sweep_points(base, entries, seeds, engine), jobs=jobs)
