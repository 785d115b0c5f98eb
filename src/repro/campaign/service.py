"""The campaign executor: cached, batched, sharded, resumable.

:func:`run_points` runs seeded sweep points through the ``--jobs``
executor; it is the one way any sweep is run, by the
``repro-experiments`` runner, the ablations and the tests as much as by
campaigns.  :func:`run_campaign` is the "experiment service" loop
around it.  Given a
:class:`~repro.campaign.spec.Campaign` and a
:class:`~repro.campaign.store.ResultStore`, it

1. expands the campaign to its ordered point list and keeps this
   shard's slice (``index % n == i``);
2. classifies every point against the store — a verified entry is a
   **hit** and is never recomputed; a missing entry is a **miss**; a
   corrupt/truncated entry is counted and recomputed over;
3. admits the misses to the ``--jobs`` process-pool executor in bounded
   **batches**, persisting each result the moment its point completes —
   so a crash or ``kill -9`` at any instant loses at most the points
   in flight, and the next invocation resumes from the store;
4. streams progress through :mod:`repro.obs` counters (harvestable by
   any obs consumer) and an optional line sink (the CLI points it at
   stderr).

Because results are persisted keyed by content (spec hash + engine +
schema) and entry bytes are canonical, the store after *any* execution
history — resumed, sharded then merged, re-run with an edited grid —
is byte-identical to the store a single uninterrupted run writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.campaign.spec import (
    Campaign,
    CampaignPoint,
    expand_campaign,
    shard_points,
)
from repro.campaign.store import CorruptEntryError, ResultStore
from repro.engine.base import EngineResult, get_engine
from repro.engine.parallel import RunOutcome, RunSpec, Timed, run_specs
from repro.obs.counters import CounterRegistry
from repro.scenario import ScenarioSpec

__all__ = [
    "CampaignRunSummary",
    "point_meta",
    "run_campaign",
    "run_point",
    "run_points",
]

ProgressSink = Callable[[str], None]


def run_point(spec: ScenarioSpec, engine: str, seed: int | None = None) -> Timed:
    """Run one scenario on the named engine: the executor's point
    function for every sweep (module-level, so it pickles by reference
    into pool workers)."""
    result = get_engine(engine).run(spec.with_seed(seed))
    return Timed(result, result.cycles)


def run_points(
    points: Iterable[CampaignPoint],
    jobs: int = 1,
    progress: Callable[[int, int, RunOutcome], None] | None = None,
) -> list[RunOutcome]:
    """Run seeded points through the ``--jobs`` executor; outcomes come
    back in point order, keyed by ``point.key``, and are identical for
    any ``jobs`` value (every point carries its derived seed)."""
    return run_specs(
        [
            RunSpec(
                key=point.key,
                fn=run_point,
                args=(point.spec, point.engine),
                seed=point.derived_seed,
            )
            for point in points
        ],
        jobs=jobs,
        progress=progress,
    )


@dataclass(frozen=True)
class CampaignRunSummary:
    """What one :func:`run_campaign` invocation did (deterministic —
    no wall-clock fields, so summaries diff cleanly across reruns)."""

    name: str
    sweep: str
    engine: str
    preset: str
    total_points: int
    shard: tuple[int, int]
    shard_points: int
    hits: int
    computed: int
    corrupt: int
    batches: int
    compute_seconds: float

    @property
    def hit_rate(self) -> float:
        """Cache hits over this shard's points (1.0 when nothing ran)."""
        if self.shard_points == 0:
            return 1.0
        return self.hits / self.shard_points

    def format(self) -> str:
        """The run receipt the CLI prints (stable bytes; the one
        nondeterministic field, compute seconds, is the caller's to
        print on stderr)."""
        i, n = self.shard
        lines = [
            f"campaign {self.name} (sweep {self.sweep}, engine "
            f"{self.engine}, preset {self.preset})",
            f"  points    {self.total_points} total, shard {i}/{n} -> "
            f"{self.shard_points} this run",
            f"  hits      {self.hits}",
            f"  computed  {self.computed}",
            f"  corrupt   {self.corrupt} (recomputed, not served)",
            f"  batches   {self.batches}",
            f"  cache     {self.hit_rate:.1%}",
        ]
        return "\n".join(lines)


def point_meta(point: CampaignPoint) -> dict[str, Any]:
    """The provenance stored beside a result.

    Only *point-intrinsic* facts — never the campaign name, host, or
    time — so that every campaign (and every rerun) producing this
    point writes byte-identical entry files.
    """
    return {
        "key": list(point.key),
        "label": point.label,
        "seed": point.derived_seed,
        "sweep_seed": point.sweep_seed,
    }


def _batched(items: list, size: int | None) -> list[list]:
    if size is None or size <= 0 or size >= len(items):
        return [items] if items else []
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_campaign(
    campaign: Campaign,
    store: ResultStore,
    jobs: int = 1,
    shard: tuple[int, int] | None = None,
    batch: int | None = None,
    registry: CounterRegistry | None = None,
    progress: ProgressSink | None = None,
) -> CampaignRunSummary:
    """Execute (the missing points of) a campaign shard into the store.

    ``jobs`` is the process-pool width per batch (the ``--jobs``
    executor contract: results are identical for any value).  ``batch``
    bounds how many misses are admitted to the pool at once (``None`` =
    all of them); each completed point is persisted immediately either
    way, so batching only bounds in-flight work, not crash exposure.
    ``registry`` (a :class:`repro.obs.CounterRegistry`) receives the
    ``campaign.points.*`` / ``campaign.cache.*`` progress counters.
    """
    reg = registry if registry is not None else CounterRegistry()
    say = progress if progress is not None else (lambda line: None)

    all_points = expand_campaign(campaign)
    points = shard_points(all_points, shard)
    shard_desc = shard if shard is not None else (0, 1)
    reg.counter("campaign.points.total").add(len(points))

    # -- classify against the store -----------------------------------
    hits: list[CampaignPoint] = []
    misses: list[CampaignPoint] = []
    corrupt = 0
    for point in points:
        try:
            entry = store.load(point.store_key())
        except CorruptEntryError as exc:
            corrupt += 1
            reg.counter("campaign.cache.corrupt").add(1)
            say(f"[{campaign.name}] corrupt entry for {point.key!r}: {exc}")
            entry = None
        if entry is None:
            misses.append(point)
        else:
            hits.append(point)
    reg.counter("campaign.points.hit").add(len(hits))
    for done, point in enumerate(hits, start=1):
        say(
            f"[{campaign.name} hit {done}/{len(hits)}] {point.key!r} "
            f"({point.spec.spec_hash()[:12]})"
        )

    # -- admit misses in batches --------------------------------------
    batches = _batched(misses, batch)
    computed = 0
    compute_seconds = 0.0
    total_misses = len(misses)
    for batch_no, admitted in enumerate(batches, start=1):
        say(
            f"[{campaign.name}] batch {batch_no}/{len(batches)}: "
            f"admitting {len(admitted)} point(s) at jobs={jobs}"
        )
        reg.counter("campaign.batches.admitted").add(1)
        by_key = {point.key: point for point in admitted}
        offset = computed

        def persist(done: int, total: int, outcome: RunOutcome) -> None:
            # called in the parent process as each point completes —
            # persisting here is what makes a SIGKILL lose only the
            # points still in flight
            point = by_key[outcome.key]
            result = outcome.value
            assert isinstance(result, EngineResult)
            store.put(point.store_key(), result, point_meta(point))
            reg.counter("campaign.points.computed").add(1)
            say(
                f"[{campaign.name} run {offset + done}/{total_misses}] "
                f"{outcome.key!r} ({outcome.wall_seconds:.1f}s)"
            )

        outcomes = run_points(admitted, jobs=jobs, progress=persist)
        computed += len(outcomes)
        compute_seconds += sum(o.wall_seconds for o in outcomes)

    return CampaignRunSummary(
        name=campaign.name,
        sweep=campaign.sweep,
        engine=campaign.engine,
        preset=campaign.preset,
        total_points=len(all_points),
        shard=shard_desc,
        shard_points=len(points),
        hits=len(hits),
        computed=computed,
        corrupt=corrupt,
        batches=len(batches),
        compute_seconds=compute_seconds,
    )
