"""The benchmark's workloads and the code that runs one point of each.

A workload is one :class:`~repro.scenario.ScenarioSpec` (without its
seed) and the engine that runs it.  A *point* is one engine run of that
spec with one seed.  Points go through the public layer APIs only:
``build_network`` + ``Network.run_standard`` for the cycle engine and
``FlowEngine.run`` for the flow engine.

Every point yields a *record*: the same fields as the engine's
``EngineResult`` plus, for cycle points, the ``repro.obs`` counters.
``perfbench/references.json`` holds the record of every seed in
:data:`SEED_POOL`, and :func:`check_record` compares against it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.engine.config import ObsParams, paper_preset, tiny_preset
from repro.engine.fastpath import FlowEngine
from repro.obs.observer import NetworkObserver, live_mark, take_captures
from repro.scenario import (
    HotspotTraffic,
    ScenarioSpec,
    UniformTraffic,
    build_network,
    congestion_scenario,
    reliability_scenario,
)

__all__ = [
    "FLOW_REL_TOL",
    "SEED_POOL",
    "WORKLOADS",
    "Point",
    "Workload",
    "canonical",
    "check_record",
    "pool_seed",
    "run_point",
    "with_obs",
]

#: Spec seeds with a recorded reference.  Point ``k`` of a run started
#: with ``--seed n`` uses ``pool_seed(n, k)``, so every point is checked
#: exactly and one run's median spans several seeds' traffic.
SEED_POOL = 32

#: Flow results are compared field by field within this relative
#: tolerance: a reordered float sum moves them by ~1e-12, a changed
#: fluid model by far more.
FLOW_REL_TOL = 1e-6


def pool_seed(seed: int, k: int) -> int:
    """The spec seed of point ``k`` in a run started with ``seed``."""
    return 1 + (seed + k) % SEED_POOL


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    engine: str  # "cycle" or "flow"
    make: Callable[[], ScenarioSpec]

    def spec(self, seed: int) -> ScenarioSpec:
        """The workload's scenario with ``seed`` in its seed slot."""
        return self.make().with_seed(seed)


def _tiny(warmup: int, measure: int):
    base = tiny_preset()
    return base.with_(
        sim=replace(base.sim, warmup_cycles=warmup, measure_cycles=measure)
    )


def _paper_240():
    """Paper switch and link parameters on a p=3, a=5, h=3 dragonfly
    (80 switches, 240 nodes): a flow point of a few host seconds, so
    that a run measures several."""
    base = paper_preset()
    return base.with_(dragonfly=replace(base.dragonfly, p=3, a=5, h=3))


WORKLOADS: dict[str, Workload] = {
    # Fig. 5 point near saturation: the switch stages dominate, and the
    # stash is written and deleted but never read
    "cycle_uniform": Workload(
        engine="cycle",
        make=lambda: reliability_scenario(
            _tiny(200, 400), "stash100", traffic=(UniformTraffic(rate=0.5),)
        ),
    ),
    # same spec at a tenth of the load: per-cycle overhead (kernel,
    # step gates, injection draws) dominates the stages
    "cycle_light": Workload(
        engine="cycle",
        make=lambda: reliability_scenario(
            _tiny(200, 1500), "stash100", traffic=(UniformTraffic(rate=0.05),)
        ),
    ),
    # the paper's second use case: ECN plus stash-on-congestion under
    # hotspot aggressors, so the stash is read back through the R VC
    "cycle_congestion": Workload(
        engine="cycle",
        make=lambda: congestion_scenario(
            _tiny(200, 500), "stash100",
            traffic=(HotspotTraffic(victim_rate=0.4),), drain=False,
        ),
    ),
    # flow construction, max-min solve and fixed point on a paper-size
    # switch; the cycle datapath does no work here
    "flow_uniform": Workload(
        engine="flow",
        make=lambda: reliability_scenario(
            _paper_240(), "stash100", traffic=(UniformTraffic(rate=0.5),)
        ),
    ),
}


@dataclass
class Point:
    """One engine run: its host time, simulated span and record."""

    wall_s: float
    cycles: int
    record: dict
    #: host seconds -> reference-host seconds (see hostspeed.py)
    scale: float = 1.0


def with_obs(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` with the ``repro.obs`` counters switched on."""
    return replace(spec, config=spec.config.with_(obs=ObsParams(enabled=True)))


def run_point(
    workload: Workload,
    spec: ScenarioSpec,
    on_built: Callable[[], None] | None = None,
) -> Point:
    """Run one point; ``wall_s`` covers the engine run only (a cycle
    network's construction is set-up, timed by the set-up probes).
    ``on_built`` is called between construction and the engine run."""
    if workload.engine == "flow":
        if on_built is not None:
            on_built()
        start = time.monotonic()
        result = FlowEngine().run(spec)
        wall = time.monotonic() - start
        return Point(wall, result.cycles, dataclasses.asdict(result))
    mark = live_mark()
    net = build_network(spec)
    if on_built is not None:
        on_built()
    start = time.monotonic()
    res = net.run_standard(drain=spec.drain)
    wall = time.monotonic() - start
    if net.obs is None:
        # the counters are harvested from state the datapath keeps
        # anyway, so an observer attached after the run sees the same
        # values as one enabled in the config
        NetworkObserver(ObsParams(enabled=True)).attach(net)
    (capture,) = take_captures(mark)
    record = {
        "offered_load": res.offered_load,
        "accepted_load": res.accepted_load,
        "avg_latency": res.avg_latency,
        "p90_latency": res.p90_latency,
        "p99_latency": res.p99_latency,
        "max_latency": res.max_latency,
        "packets_measured": res.packets_measured,
        "cycles": net.sim.cycle,
        "groups": {
            name: {
                "count": stats.count,
                "mean": stats.mean,
                "p50": stats.percentile(50),
                "p90": stats.percentile(90),
                "p99": stats.percentile(99),
                "max": stats.max,
            }
            for name, stats in sorted(res.group_latency.items())
        },
        "counters": capture.counters,
    }
    return Point(wall, net.sim.cycle, record)


def canonical(record: dict) -> str:
    """The record as canonical JSON (floats round-trip exactly)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=FLOW_REL_TOL, abs_tol=1e-12)


def check_record(engine: str, record: dict, reference: dict) -> bool:
    """Cycle records must equal the reference exactly; flow records
    (RNG-free, so one reference serves every seed) within
    :data:`FLOW_REL_TOL`."""
    if engine == "cycle":
        return canonical(record) == canonical(reference)
    return _close(json.loads(canonical(record)), json.loads(canonical(reference)))
