"""Flow-level fastpath: determinism, sanity, and schema conformance.

The fastpath is a pure function of the :class:`ScenarioSpec` — no RNG,
no wall-clock, sorted iteration everywhere — so its results must be
*exactly* equal run-to-run and for any ``--jobs`` fan-out, not merely
statistically close.
"""

from __future__ import annotations

import pytest

from repro.engine.base import EngineResult, EngineUnsupported, get_engine
from repro.scenario import (
    FatTreeTopologySpec,
    ScenarioSpec,
    SingleSwitchTopologySpec,
    UniformTraffic,
    reliability_scenario,
)
from tests.conftest import micro_config


def _flow(spec):
    return get_engine("flow").run(spec)


def test_flow_engine_is_deterministic():
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.6),)
    )
    a, b = _flow(spec), _flow(spec)
    assert a == b


def test_flow_low_load_accepts_offered():
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.2),)
    )
    r = _flow(spec)
    assert r.engine == "flow"
    assert r.accepted_load == pytest.approx(r.offered_load, rel=1e-6)
    assert r.avg_latency > 0
    assert r.p99_latency >= r.avg_latency


def test_flow_throughput_monotone_and_saturating():
    cfg = micro_config()
    accepted = [
        _flow(ScenarioSpec(config=cfg, traffic=(UniformTraffic(rate=load),)))
        .accepted_load
        for load in (0.2, 0.5, 0.8, 1.0)
    ]
    # monotone up to fixed-point convergence noise
    for lo, hi in zip(accepted, accepted[1:]):
        assert hi >= lo - 1e-4
    # saturation: accepted never exceeds offered
    for load, acc in zip((0.2, 0.5, 0.8, 1.0), accepted):
        assert acc <= load + 1e-6


def test_flow_stash_capacity_binds():
    cfg = micro_config()
    full = _flow(
        reliability_scenario(
            cfg, "stash100", traffic=(UniformTraffic(rate=0.8),)
        )
    )
    quarter = _flow(
        reliability_scenario(
            cfg, "stash25", traffic=(UniformTraffic(rate=0.8),)
        )
    )
    assert quarter.accepted_load < full.accepted_load


def test_flow_supports_all_three_topologies():
    cfg = micro_config()
    for topo in (
        None,
        SingleSwitchTopologySpec(num_nodes=4),
        FatTreeTopologySpec(),
    ):
        kwargs = {"topology": topo} if topo is not None else {}
        r = _flow(
            ScenarioSpec(
                config=cfg, traffic=(UniformTraffic(rate=0.3),), **kwargs
            )
        )
        assert isinstance(r, EngineResult)
        assert r.accepted_load > 0


def test_flow_rejects_unknown_traffic():
    class WeirdTraffic:
        kind = "weird"

    spec = ScenarioSpec(config=micro_config())
    object.__setattr__(spec, "traffic", (WeirdTraffic(),))
    with pytest.raises(EngineUnsupported):
        _flow(spec)


def test_flow_fig5_jobs_byte_identical():
    """The fig5 grid through the fastpath must produce identical results
    for serial and 4-way-parallel execution (the determinism contract CI
    enforces end-to-end on stdout)."""
    from tests.conftest import run_grid

    cfg = micro_config()
    axes = {"loads": (0.2, 0.8), "variants": ("baseline", "stash25")}
    serial = run_grid("fig5", cfg, axes, seeds=(3,), engine="flow", jobs=1)
    fanned = run_grid("fig5", cfg, axes, seeds=(3,), engine="flow", jobs=4)
    assert [o.value for o in serial] == [o.value for o in fanned]


def test_flow_result_schema_matches_cycle():
    """Both engines emit the same stats schema for the same spec —
    groups, extras discoverability, and the scalar surface the
    experiment scripts consume."""
    spec = ScenarioSpec(
        config=micro_config(), traffic=(UniformTraffic(rate=0.3),)
    )
    flow = _flow(spec)
    cycle = get_engine("cycle").run(spec)
    for field in (
        "offered_load",
        "accepted_load",
        "avg_latency",
        "p90_latency",
        "p99_latency",
        "max_latency",
        "packets_measured",
        "cycles",
    ):
        assert hasattr(flow, field) and hasattr(cycle, field)
    assert flow.engine == "flow" and cycle.engine == "cycle"
