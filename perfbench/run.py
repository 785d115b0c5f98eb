"""The repository benchmark: host time, memory and per-layer cost of the
cycle and flow engines on four workloads (see perfbench/README.md).

    python3 perfbench/run.py --workload cycle_uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it uses ``src/`` of that checkout
and builds nothing.  With ``--trace 0`` it measures the end-to-end
metrics, untraced; with ``--trace 1`` it runs the same points traced
and reports the per-layer metrics.  Either way it checks every point's
result against ``perfbench/references.json`` and prints, as its last
line, one JSON object: ``correct``, ``attempted`` (points run),
``failed`` (points that raised or mismatched) and ``metrics``.
``--workload all`` runs each workload in its own process in turn and
prints every metric of every workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: end-to-end metric -> unit (measured untraced)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

STAGE_NAMES = ("ingress", "rowbus", "crossbar", "mux", "stash_drain", "egress")
#: repro.obs counters reported per layer
COUNTERS = (
    "switch.stash.stores",
    "switch.stash.deletes",
    "switch.stash.retrieves",
    "switch.input.stalls_no_stash",
    "switch.input.packets_marked",
    "switch.output.credit_stalls",
    "endpoint.ecn.window_cuts",
    "endpoint.nic.flits_injected",
)
#: per-layer metric -> unit (measured traced)
PER_LAYER = {
    **{
        f"switch.{stage}_{kind}": unit
        for stage in STAGE_NAMES
        for kind, unit in (("s", "s"), ("calls", "count"), ("useful", "fraction"))
    },
    "switch.credits_s": "s",
    "switch.credits_calls": "count",
    "switch.sideband_s": "s",
    "switch.sideband_calls": "count",
    "switch.step_self_s": "s",
    "switch.steps": "count",
    "endpoint.step_s": "s",
    "endpoint.steps": "count",
    "kernel.self_s": "s",
    "kernel.executed_cycles": "count",
    "kernel.skipped_cycles": "count",
    "kernel.active_per_cycle": "count",
    **{name: "count" for name in COUNTERS},
    "flow.routes_s": "s",
    "flow.route_calls": "count",
    "flow.build_s": "s",
    "flow.stash_pools_s": "s",
    "flow.maxmin_s": "s",
    "flow.maxmin_calls": "count",
    "flow.fixed_point_s": "s",
    "flow.summarise_s": "s",
    "flow.flows": "count",
    "flow.links": "count",
    "flow.rss_after_build_mb": "MB",
    "setup.import_s": "s",
    "setup.build_network_s": "s",
    "trace.overhead": "ratio",
}

#: fresh-interpreter set-ups timed per run; setup_s is their median
SETUP_PROBES = 5
#: points measured per run even when they outlast ``--seconds``
MIN_POINTS = 3

# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------


def probe_setup(speed, name: str, seed: int) -> list[dict]:
    """Time ``SETUP_PROBES`` fresh-process set-ups of workload ``name``
    (reference-host seconds)."""
    probes = []
    for _ in range(SETUP_PROBES):
        with speed.bracket() as cal:
            spawned = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name,
                 str(seed), str(SRC)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
                check=True,
            )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        total = out["ready"] - spawned
        build = out["build_network_s"]
        probes.append({
            "start": spawned,
            "end": out["ready"],
            "setup_s": total * cal.scale,
            "import_s": (total - build) * cal.scale,
            "build_network_s": build * cal.scale,
        })
    return probes


# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------


def load_references() -> dict:
    with open(HERE / "references.json") as f:
        return json.load(f)


def reference_for(references: dict, name: str, seed: int) -> dict | None:
    table = references.get(name, {})
    return table.get(str(seed), table.get("*"))


class Runner:
    """Runs and checks one workload's points, counting failures."""

    def __init__(self, name: str, speed) -> None:
        from workloads import WORKLOADS

        self.name = name
        self.speed = speed
        self.workload = WORKLOADS[name]
        self.references = load_references()
        self.attempted = 0
        self.failed = 0

    def point(self, seed: int, tracer=None, expect: dict | None = None):
        """Run, time and check one point; None when it failed.

        The record must match the seed's reference and, when given,
        ``expect`` (the untraced record of the same seed) exactly.
        Garbage from earlier points is collected first, so every point
        starts from the same collector state.
        """
        from workloads import canonical, check_record, run_point, with_obs

        self.attempted += 1
        spec = self.workload.spec(seed)
        engine = self.workload.engine
        gc.collect()
        try:
            with self.speed.bracket() as cal:
                if tracer is None:
                    pt = run_point(self.workload, spec)
                else:
                    with tracer:
                        tracer.point_span = tracer.open_span("point")
                        tracer.begin_phase("setup")
                        pt = run_point(self.workload, with_obs(spec),
                                       tracer.end_phase)
                        tracer.end_phase()
                        tracer.close_span(tracer.point_span)
        except Exception:  # a point that raises counts as failed
            traceback.print_exc()
            self.failed += 1
            return None
        reference = reference_for(self.references, self.name, seed)
        ok = reference is not None and check_record(engine, pt.record, reference)
        if ok and expect is not None:
            ok = canonical(pt.record) == canonical(expect)
        if not ok:
            print(f"perfbench: {self.name} seed {seed}: result does not "
                  "match the reference" if reference is not None else
                  f"perfbench: {self.name}: no reference for seed {seed}",
                  file=sys.stderr)
            self.failed += 1
            return None
        pt.scale = cal.scale
        return pt


def _timebox(seconds: float, min_points: int, run_one) -> None:
    """Call ``run_one(k)`` for k = 0, 1, ... until ``seconds`` are used
    (and at least ``min_points`` times), never starting a call that
    would likely end past them."""
    start = time.monotonic()
    durations: list[float] = []
    k = 0
    while True:
        t0 = time.monotonic()
        run_one(k)
        durations.append(time.monotonic() - t0)
        k += 1
        elapsed = time.monotonic() - start
        if k >= min_points and elapsed + statistics.median(durations) > seconds:
            return


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    """The end-to-end metrics, untraced."""
    from workloads import pool_seed

    probes = probe_setup(runner.speed, runner.name, pool_seed(seed, 0))
    points = []

    def run_one(k: int) -> None:
        pt = runner.point(pool_seed(seed, k))
        if pt is not None:
            points.append(pt)

    _timebox(seconds, MIN_POINTS, run_one)
    walls = [pt.wall_s * pt.scale for pt in points]
    print(f"{runner.name}: {len(points)} points; host wall_s "
          f"{' '.join(f'{pt.wall_s:.3f}' for pt in points)}; host-speed scale "
          f"{' '.join(f'{pt.scale:.3f}' for pt in points)}; cycles "
          f"{' '.join(str(pt.cycles) for pt in points)}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": _median([p["setup_s"] for p in probes]),
        "wall_s": _median(walls),
        "sim_cycles_per_s": _median(
            [pt.cycles / wall for pt, wall in zip(points, walls)]
        ),
        # the calibration buffer is the benchmark's, not the program's
        "peak_rss_mb": peak_mb - runner.speed.buffer_mb,
    }


def trace(runner: Runner, seed: int, seconds: float) -> dict:
    """The per-layer metrics: untraced/traced pairs of the same seeds."""
    from layers import Tracer
    from workloads import pool_seed

    origin = time.monotonic()
    probes = probe_setup(runner.speed, runner.name, pool_seed(seed, 0))
    pairs = []

    def run_one(k: int) -> None:
        point_seed = pool_seed(seed, k)
        plain = runner.point(point_seed)
        if plain is None:
            return
        tracer = Tracer()
        traced = runner.point(point_seed, tracer, expect=plain.record)
        if traced is not None:
            pairs.append((plain, traced, tracer))

    _timebox(seconds, 1, run_one)
    spans = [
        {"id": i, "name": "setup", "start": p["start"] - origin,
         "end": p["end"] - origin, "parent": None}
        for i, p in enumerate(probes)
    ]
    per_point = []
    for plain, traced, tracer in pairs:
        per_point.append(_layer_metrics(plain, traced, tracer))
        base = len(spans)
        for span in tracer.spans:
            parent = span["parent"]
            spans.append({**span, "id": span["id"] + base,
                          "start": span["start"] - origin,
                          "end": span["end"] - origin,
                          "parent": None if parent is None else parent + base})
    metrics = {
        name: statistics.fmean(m[name] for m in per_point) if per_point else 0.0
        for name in PER_LAYER
        if not name.startswith("setup.")
    }
    metrics["setup.import_s"] = _median([p["import_s"] for p in probes])
    metrics["setup.build_network_s"] = _median(
        [p["build_network_s"] for p in probes]
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{runner.name}-seed{seed}.json"
    path.write_text(json.dumps(spans, indent=1) + "\n")
    print(f"{runner.name}: {len(pairs)} traced points, spans in {path}")
    return metrics


def _layer_metrics(plain, traced, tracer) -> dict:
    """One traced point's per-layer metrics (reference-host seconds).

    Every wrapped call's self time lands in exactly one layer and the
    kernel gets the rest, so the layers add up to the traced wall."""
    from layers import Layer

    scale = traced.scale
    layers = tracer.layers
    if not tracer.balanced():
        raise RuntimeError("trace stack unbalanced: a wrapped call never returned")
    self_total = sum(layer.self_s for layer in layers.values())
    if abs(self_total - tracer.wrapped_s) > 1e-6 * max(1.0, traced.wall_s):
        raise RuntimeError(
            f"layer self times {self_total} s do not add up to the wrapped "
            f"calls' {tracer.wrapped_s} s"
        )
    kernel_self = traced.wall_s - self_total
    if kernel_self < 0:
        raise RuntimeError(f"negative kernel self time {kernel_self} s")

    def layer(name: str) -> Layer:
        return layers.get(name, Layer())

    out: dict[str, float] = {}
    for stage in (*STAGE_NAMES, "credits", "sideband"):
        acc = layer(f"switch.{stage}")
        out[f"switch.{stage}_s"] = acc.self_s * scale
        out[f"switch.{stage}_calls"] = acc.calls
        if stage in STAGE_NAMES:
            out[f"switch.{stage}_useful"] = (
                acc.useful / acc.calls if acc.calls else 0.0
            )
    for name, layer_name in (("switch.step_self_s", "switch.step"),
                             ("endpoint.step_s", "endpoint.step"),
                             ("flow.routes_s", "flow.routes"),
                             ("flow.build_s", "flow.build"),
                             ("flow.stash_pools_s", "flow.stash_pools"),
                             ("flow.maxmin_s", "flow.maxmin"),
                             ("flow.fixed_point_s", "flow.fixed_point"),
                             ("flow.summarise_s", "flow.summarise")):
        out[name] = layer(layer_name).self_s * scale
    for name, layer_name in (("switch.steps", "switch.step"),
                             ("endpoint.steps", "endpoint.step"),
                             ("flow.route_calls", "flow.routes"),
                             ("flow.maxmin_calls", "flow.maxmin")):
        out[name] = layer(layer_name).calls
    out["kernel.self_s"] = kernel_self * scale
    executed = tracer.executed_cycles
    steps = out["switch.steps"] + out["endpoint.steps"]
    out["kernel.executed_cycles"] = executed
    out["kernel.skipped_cycles"] = traced.cycles - executed if executed else 0
    out["kernel.active_per_cycle"] = steps / executed if executed else 0.0
    counters = traced.record.get("counters", {})
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    for name in ("flows", "links", "rss_after_build_mb"):
        out[f"flow.{name}"] = tracer.flow_info.get(name, 0)
    out["trace.overhead"] = (traced.wall_s * scale) / (plain.wall_s * plain.scale)
    return out


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    })


def run_workload(args) -> int:
    from hostspeed import HostSpeed

    runner = Runner(args.workload, HostSpeed())
    if runner.workload.engine == "flow":
        print(f"{args.workload}: the flow engine is RNG-free; --seed only "
              "labels the point")
    if args.trace:
        metrics, units = trace(runner, args.seed, args.seconds), PER_LAYER
    else:
        metrics, units = measure(runner, args.seed, args.seconds), END_TO_END
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    print(f"  points {runner.attempted}  failed_points {runner.failed}")
    correct = runner.failed == 0 and runner.attempted > 0
    print(result_line(correct, runner.attempted, runner.failed, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one combined line."""
    from workloads import WORKLOADS

    units = PER_LAYER if args.trace else END_TO_END
    combined: dict[str, float] = {}
    all_units: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            correct = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, unit in units.items():
            key = f"{name}.{metric}"
            combined[key] = result["metrics"][metric]["value"]
            all_units[key] = unit
        print(f"{name}: points {result['attempted']}  failed_points "
              f"{result['failed']}")
        for metric, unit in units.items():
            print(f"  {metric:<32} {combined[f'{name}.{metric}']:>16.6g} {unit}")
    print(result_line(correct, attempted, failed, combined, all_units))
    return 0


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and the salt moves the
        # simulator's speed by several per cent from run to run: pin it
        # (results do not depend on it; the goldens pin that)
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package at {SRC / 'repro'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose all or "
                     f"one of {', '.join(WORKLOADS)}")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
