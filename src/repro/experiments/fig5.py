"""Figure 5: performance impact of stashing for end-to-end reliability
under uniform-random traffic.

5a: average network latency vs offered load; 5b: offered vs accepted
throughput — for the baseline and stashing networks at 100 % / 50 % /
25 % capacity.  Expected shape (paper Section VI-A): stash 100 % and
50 % track the baseline; 25 % saturates early at roughly the Little's-law
bound.

Runs on either engine (``engine="cycle"`` or ``"flow"``); the flow
fastpath reproduces the throughput curves within the tolerances in
docs/FASTPATH.md at a small fraction of the cycle engine's cost.
"""

from __future__ import annotations

from repro.engine.config import NetworkConfig
from repro.engine.parallel import RunOutcome
from repro.experiments.common import RELIABILITY_VARIANTS, SweepEntry
from repro.scenario import UniformTraffic, reliability_scenario

__all__ = ["campaign_entries", "format_fig5"]

DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)


def campaign_entries(base: NetworkConfig, axes: dict) -> list[SweepEntry]:
    """The Fig. 5 grid: one scenario per (variant, load), variant-major.

    Accepted ``axes`` keys, each optional (the default is the full
    grid): ``variants``, ``loads``, ``msg_flits``.  Loads are coerced to
    float so a campaign file's ``1`` and ``1.0`` produce identical
    labels (and therefore identical derived seeds).
    """
    known = {"variants", "loads", "msg_flits"}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(
            f"fig5 campaigns accept axes {sorted(known)}; unknown {unknown}"
        )
    loads = tuple(float(x) for x in axes.get("loads", DEFAULT_LOADS))
    msg_flits = axes.get("msg_flits")
    return [
        SweepEntry(
            key=(variant, load),
            label=f"fig5:{variant}:{load!r}",
            spec=reliability_scenario(
                base,
                variant,
                traffic=(UniformTraffic(rate=load, msg_flits=msg_flits),),
            ),
        )
        for variant in axes.get("variants", RELIABILITY_VARIANTS)
        for load in loads
    ]


def format_fig5(outcomes: list[RunOutcome]) -> str:
    """Render the ordered outcomes of a single-seed Fig. 5 sweep."""
    from repro.analysis.ascii_chart import multi_series_chart

    results: dict[str, list] = {}
    for outcome in outcomes:
        _seed, variant, _load = outcome.key
        results.setdefault(variant, []).append(outcome.value)
    lines = [
        "Figure 5 — reliability stashing under uniform-random traffic",
        "",
        "(a) latency vs offered load        (b) offered vs accepted",
        f"{'variant':<10} {'offered':>8} {'accepted':>9} {'avg lat':>8} {'p99':>8}",
    ]
    for variant, points in results.items():
        for p in points:
            lines.append(
                f"{variant:<10} {p.offered_load:>8.3f} {p.accepted_load:>9.3f} "
                f"{p.avg_latency:>8.1f} {p.p99_latency:>8.1f}"
            )
        lines.append("")
    lines.append("(b) offered vs accepted throughput:")
    lines.append(
        multi_series_chart(
            {
                variant: (
                    [p.offered_load for p in points],
                    [p.accepted_load for p in points],
                )
                for variant, points in results.items()
            }
        )
    )
    return "\n".join(lines)
