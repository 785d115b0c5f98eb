"""Flow-engine result identity on a small grid of scenarios.

``tests/goldens/flow_micro.json`` holds ``FlowEngine().run(spec)`` for
every spec in :data:`GRID`, recorded as ``dataclasses.asdict`` of the
result.  The grid covers the paths the benchmark's uniform stash100
reference does not: a binding stash25 pool, hotspot and closed-loop
aggressor traffic with ECN windows, and the single-switch and fat-tree
(ECMP) topologies.  Fields are compared at a relative 1e-9: a reordered
float sum moves them by ~1e-12, a changed fluid model by far more.

Regenerate (only for an intentional model change, and say so in the
commit message)::

    PYTHONPATH=src python -m tests.test_flow_goldens
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.engine.config import tiny_preset
from repro.engine.fastpath import FlowEngine
from repro.scenario import (
    FatTreeTopologySpec,
    HotspotTraffic,
    SingleSwitchTopologySpec,
    UniformAggressorTraffic,
    UniformTraffic,
    congestion_scenario,
    reliability_scenario,
)
from tests.conftest import micro_config

GOLDEN = Path(__file__).parent / "goldens" / "flow_micro.json"

REL_TOL = 1e-9

GRID = {
    "micro_stash100_u0.6": lambda: reliability_scenario(
        micro_config(), "stash100", traffic=(UniformTraffic(rate=0.6),)
    ),
    "micro_stash25_u0.8": lambda: reliability_scenario(
        micro_config(), "stash25", traffic=(UniformTraffic(rate=0.8),)
    ),
    "tiny_stash25_u0.8": lambda: reliability_scenario(
        tiny_preset(), "stash25", traffic=(UniformTraffic(rate=0.8),)
    ),
    "tiny_baseline_u0.9": lambda: reliability_scenario(
        tiny_preset(), "baseline", traffic=(UniformTraffic(rate=0.9),)
    ),
    "tiny_hotspot_ecn": lambda: congestion_scenario(
        tiny_preset(), "stash100", traffic=(HotspotTraffic(victim_rate=0.4),)
    ),
    "tiny_uniform_aggressor_ecn": lambda: congestion_scenario(
        tiny_preset(), "stash100",
        traffic=(UniformAggressorTraffic(burst_flits=16, victim_rate=0.4),),
    ),
    "single_switch_stash25_u0.7": lambda: reliability_scenario(
        micro_config(), "stash25", traffic=(UniformTraffic(rate=0.7),),
        topology=SingleSwitchTopologySpec(num_nodes=4),
    ),
    "fattree_stash100_u0.5": lambda: reliability_scenario(
        micro_config(), "stash100", traffic=(UniformTraffic(rate=0.5),),
        topology=FatTreeTopologySpec(),
    ),
    "fattree_stash25_u0.9": lambda: reliability_scenario(
        micro_config(), "stash25", traffic=(UniformTraffic(rate=0.9),),
        topology=FatTreeTopologySpec(),
    ),
}


def _record(name: str) -> dict:
    result = FlowEngine().run(GRID[name]())
    return json.loads(json.dumps(dataclasses.asdict(result)))


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


@pytest.mark.parametrize("name", sorted(GRID))
def test_flow_result_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = _record(name)
    assert _close(got, golden), (
        f"{name} drifted from tests/goldens/flow_micro.json:\n"
        f"got    {got}\ngolden {golden}"
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: _record(name) for name in sorted(GRID)},
                   indent=1, sort_keys=True) + "\n"
    )
