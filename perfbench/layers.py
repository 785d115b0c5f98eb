"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the methods at each layer boundary of the
cycle and flow engines with timing wrappers for the duration of a
``with`` block, and restores them on exit.  Nothing under ``src/`` is
edited.

* Hot methods (about half a million calls per stage per point) keep a
  per-call count and a self-time accumulator: a stack of child times
  lets a wrapper subtract the time its wrapped callees took, so every
  host second in a traced point is attributed to exactly one layer.
  The time not spent in any wrapped call is the kernel's self time.
* Stage wrappers also count *useful* calls: those that changed the
  flit count of the buffer the stage fills or drains.
* Coarse phases (warmup, measure, drain; flow build, solve, summary)
  are recorded as spans: name, start, end and parent.
"""

from __future__ import annotations

import resource
import time
from operator import attrgetter
from typing import Callable

from repro.endpoints.endpoint import Endpoint
from repro.engine import fastpath
from repro.engine.fastpath import FlowEngine
from repro.network import Network
from repro.switch.port import InputPort, OutputPort
from repro.switch.stashing_switch import StashingSwitch
from repro.switch.tile import Tile
from repro.switch.tiled_switch import TiledSwitch

__all__ = ["STAGES", "Layer", "Tracer"]

#: switch stage -> (owner class, method, flit count the stage changes)
STAGES: dict[str, tuple[type, str, Callable[[object], int]]] = {
    "ingress": (InputPort, "ingress", attrgetter("damq.flit_count")),
    "rowbus": (
        InputPort,
        "rowbus_pass",
        lambda ip: sum(t.flit_count for t in ip.sw.tiles[ip.row]),
    ),
    "crossbar": (Tile, "crossbar_pass", attrgetter("flit_count")),
    "mux": (OutputPort, "mux_pass", attrgetter("col_flits")),
    "stash_drain": (OutputPort, "stash_drain_pass", attrgetter("col_flits_s")),
    "egress": (OutputPort, "egress", attrgetter("out_damq.flit_count")),
}


class Layer:
    """Accumulators for one layer: calls, self seconds, useful calls."""

    __slots__ = ("calls", "self_s", "useful")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.useful = 0


def _rss_mb() -> float:
    """Resident set size now, from /proc (peak RSS where unavailable)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Wrap the layer boundaries of both engines for one point."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        #: child seconds of each open wrapped call; [0] is the total of
        #: top-level wrapped calls
        self._stack = [0.0]
        #: [last cycle a component stepped in, executed cycles]
        self._cycles = [-1, 0]
        self.spans: list[dict] = []
        self._phase: int | None = None
        #: span id of the point being traced: the phases' parent
        self.point_span: int | None = None
        self.flow_info: dict[str, float] = {}
        #: whether the traced run_standard drains after measuring
        self._draining = True
        self._saved: list[tuple[object, str, object]] = []

    # -- accounting -------------------------------------------------------

    def layer(self, name: str) -> Layer:
        """The accumulators for ``name`` (created on first use)."""
        return self.layers.setdefault(name, Layer())

    @property
    def executed_cycles(self) -> int:
        """Cycles in which at least one component stepped."""
        return self._cycles[1]

    @property
    def wrapped_s(self) -> float:
        """Inclusive seconds of all top-level wrapped calls."""
        return self._stack[0]

    def balanced(self) -> bool:
        """True when no wrapped call is still open."""
        return len(self._stack) == 1

    # -- spans ------------------------------------------------------------

    def open_span(self, name: str, parent: int | None = None) -> int:
        """Start a span now; returns its id (a parent for later spans)."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": time.monotonic(), "end": None,
                           "parent": parent})
        return len(self.spans) - 1

    def close_span(self, span: int) -> None:
        """End span ``span`` now."""
        self.spans[span]["end"] = time.monotonic()

    def begin_phase(self, name: str) -> None:
        """End the open phase, if any, and start ``name`` under the
        current point's span."""
        self.end_phase()
        self._phase = self.open_span(name, self.point_span)

    def end_phase(self) -> None:
        """End the open phase, if any."""
        if self._phase is not None:
            self.close_span(self._phase)
            self._phase = None

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, layer: Layer, probe=None):
        stack = self._stack
        clock = time.monotonic
        if probe is None:
            def wrapper(obj, *args):
                stack.append(0.0)
                t0 = clock()
                out = fn(obj, *args)
                dt = clock() - t0
                layer.self_s += dt - stack.pop()
                layer.calls += 1
                stack[-1] += dt
                return out
        else:
            def wrapper(obj, *args):
                stack.append(0.0)
                t0 = clock()
                before = probe(obj)
                out = fn(obj, *args)
                if probe(obj) != before:
                    layer.useful += 1
                dt = clock() - t0
                layer.self_s += dt - stack.pop()
                layer.calls += 1
                stack[-1] += dt
                return out
        return wrapper

    def _step(self, fn, layer: Layer):
        """A component step wrapper that also counts executed cycles."""
        timed = self._timed(fn, layer)
        cycles = self._cycles

        def wrapper(obj, cycle):
            if cycle != cycles[0]:
                cycles[0] = cycle
                cycles[1] += 1
            timed(obj, cycle)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def __enter__(self) -> "Tracer":
        layer = self.layer
        patch = self._patch
        patch(TiledSwitch, "step", lambda f: self._step(f, layer("switch.step")))
        patch(Endpoint, "step", lambda f: self._step(f, layer("endpoint.step")))
        for stage, (owner, attr, probe) in STAGES.items():
            patch(owner, attr, lambda f, s=stage, p=probe: self._timed(
                f, layer(f"switch.{s}"), p))
        credits = layer("switch.credits")
        patch(OutputPort, "apply_credits", lambda f: self._timed(f, credits))
        patch(OutputPort, "release_retained", lambda f: self._timed(f, credits))
        patch(StashingSwitch, "_process_sideband",
              lambda f: self._timed(f, layer("switch.sideband")))
        patch(Network, "run_standard", self._wrap_run_standard)
        patch(Network, "open_measurement", lambda f: self._wrap_mark(f, "measure"))
        patch(Network, "close_measurement", lambda f: self._wrap_mark(f, "drain"))

        patch(FlowEngine, "run", self._wrap_flow_run)
        patch(FlowEngine, "_route", lambda f: self._timed(f, layer("flow.routes")))
        patch(FlowEngine, "_attach_stash_pools",
              lambda f: self._timed(f, layer("flow.stash_pools")))
        patch(FlowEngine, "_solve", self._wrap_solve)
        patch(FlowEngine, "_summarise", self._wrap_summarise)
        patch(fastpath, "_maxmin", lambda f: self._timed(f, layer("flow.maxmin")))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- coarse phases ------------------------------------------------------

    def _wrap_run_standard(self, fn):
        def wrapper(net, drain=True):
            self._draining = drain
            self.begin_phase("warmup")
            out = fn(net, drain=drain)
            self.end_phase()
            return out
        return wrapper

    def _wrap_mark(self, fn, phase: str):
        def wrapper(net):
            fn(net)
            if phase == "drain" and not self._draining:
                self.end_phase()
            else:
                self.begin_phase(phase)
        return wrapper

    def _wrap_flow_run(self, fn):
        timed = self._timed(fn, self.layer("flow.build"))

        def wrapper(engine, spec):
            self.begin_phase("flow.build")
            out = timed(engine, spec)
            self.end_phase()
            return out
        return wrapper

    def _wrap_solve(self, fn):
        timed = self._timed(fn, self.layer("flow.fixed_point"))

        def wrapper(engine, cfg, flows, links, ecn_classes):
            self.flow_info = {
                "flows": len(flows),
                "links": len(links.caps),
                "rss_after_build_mb": _rss_mb(),
            }
            self.begin_phase("flow.solve")
            return timed(engine, cfg, flows, links, ecn_classes)
        return wrapper

    def _wrap_summarise(self, fn):
        timed = self._timed(fn, self.layer("flow.summarise"))

        def wrapper(engine, cfg, topo, flows, alloc, util, ecn_on):
            self.begin_phase("flow.summary")
            return timed(engine, cfg, topo, flows, alloc, util, ecn_on)
        return wrapper
