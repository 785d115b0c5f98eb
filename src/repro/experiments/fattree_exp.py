"""Fat-tree reliability experiment (paper Section IV-A: "similar designs
are feasible for other high-radix, asymmetric topologies such as
multi-level fat-trees").

Runs the Fig. 5-style comparison — baseline vs reliability-stashing at
full and quarter capacity — on a two-level leaf/spine fat-tree whose
leaf switches stash in their endpoint-port buffers (uplinks keep all
their buffering, like the dragonfly's global ports).

Runs on either engine; the flow fastpath models the tree's ECMP spine
choice as an even fluid split.
"""

from __future__ import annotations

from repro.engine.config import NetworkConfig
from repro.engine.parallel import RunOutcome
from repro.experiments.common import SweepEntry
from repro.scenario import (
    FatTreeTopologySpec,
    UniformTraffic,
    reliability_scenario,
)

__all__ = ["campaign_entries", "format_fattree"]

VARIANTS = ("baseline", "stash100", "stash25")


def campaign_entries(base: NetworkConfig, axes: dict) -> list[SweepEntry]:
    """The fat-tree grid: one scenario per (variant, load) on the
    default leaf/spine tree, variant-major.

    Accepted ``axes`` keys, each optional (the default is the full
    grid): ``variants``, ``loads`` (floats; this sweep's variant set is
    ``baseline``/``stash100``/``stash25``).
    """
    known = {"variants", "loads"}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(
            f"fattree campaigns accept axes {sorted(known)}; unknown {unknown}"
        )
    loads = tuple(float(x) for x in axes.get("loads", (0.3, 0.7)))
    return [
        SweepEntry(
            key=(variant, load),
            label=f"fattree:{variant}:{load!r}",
            spec=reliability_scenario(
                base,
                variant,
                traffic=(UniformTraffic(rate=load),),
                topology=FatTreeTopologySpec(),
            ),
        )
        for variant in axes.get("variants", VARIANTS)
        for load in loads
    ]


def format_fattree(outcomes: list[RunOutcome]) -> str:
    """Render the ordered outcomes of a single-seed fat-tree sweep."""
    results: dict[str, list] = {}
    for outcome in outcomes:
        _seed, variant, _load = outcome.key
        results.setdefault(variant, []).append(outcome.value)
    lines = [
        "Fat-tree reliability stashing (leaf/spine, Section IV-A claim)",
        "",
        f"{'variant':<10} {'offered':>8} {'accepted':>9} {'avg lat':>8}",
    ]
    for variant, series in results.items():
        for r in series:
            lines.append(
                f"{variant:<10} {r.offered_load:>8.3f} "
                f"{r.accepted_load:>9.3f} {r.avg_latency:>8.1f}"
            )
        lines.append("")
    return "\n".join(lines)
