"""Figure 9: victim tail latency vs aggressor burstiness.

Half the endpoints run a 40 % uniform-random victim with single-packet
messages; the other half a maximum-rate uniform-random aggressor whose
message size sweeps from 1 to many packets.  Reported: the victim's 90th
percentile packet latency per network.

Expected shape (paper Section VI-B): the ECN baseline's tail latency
rises with burst size, peaks at intermediate bursts (congestion events
too short for ECN to react, long enough to hurt), then falls once bursts
are long enough for ECN's steady state; stashing networks stay flat and
below the baseline at every burst size.

Runs on either engine; the flow fastpath models the aggressors as
closed-loop fluid sources and reports trend-level tails only
(docs/FASTPATH.md).
"""

from __future__ import annotations

from repro.engine.config import NetworkConfig
from repro.engine.parallel import RunOutcome
from repro.experiments.common import CONGESTION_VARIANTS, SweepEntry
from repro.scenario import UniformAggressorTraffic, congestion_scenario

__all__ = [
    "campaign_entries",
    "format_fig9",
    "victim_series",
]

DEFAULT_BURSTS_PKTS = (1, 2, 4, 8, 16, 32, 64)


def campaign_entries(base: NetworkConfig, axes: dict) -> list[SweepEntry]:
    """The Fig. 9 grid: one scenario per (variant, burst size),
    variant-major.  Fig. 9 measures without a drain phase (open victim +
    saturating aggressors never drain).

    Accepted ``axes`` keys, each optional (the default is the full
    grid): ``variants``, ``bursts_pkts``, ``victim_rate``.  Burst sizes
    are coerced to int (labels, and therefore derived seeds, must not
    depend on how a campaign file spells them).
    """
    known = {"variants", "bursts_pkts", "victim_rate"}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(
            f"fig9 campaigns accept axes {sorted(known)}; unknown {unknown}"
        )
    bursts = tuple(int(x) for x in axes.get("bursts_pkts", DEFAULT_BURSTS_PKTS))
    victim_rate = float(axes.get("victim_rate", 0.4))
    return [
        SweepEntry(
            key=(variant, burst),
            label=f"fig9:{variant}:{burst}",
            spec=congestion_scenario(
                base,
                variant,
                traffic=(
                    UniformAggressorTraffic(
                        burst_flits=burst * base.switch.max_packet_flits,
                        victim_rate=victim_rate,
                    ),
                ),
                drain=False,
            ),
        )
        for variant in axes.get("variants", CONGESTION_VARIANTS)
        for burst in bursts
    ]


def victim_series(
    outcomes: list[RunOutcome],
) -> dict[str, list[tuple[int, float, float]]]:
    """Variant -> [(burst_pkts, victim p90 latency, accepted load)] from
    the ordered outcomes of a single-seed Fig. 9 sweep — the paper notes
    victim throughput holds at 40 % across the sweep while latency
    diverges."""
    series: dict[str, list[tuple[int, float, float]]] = {}
    for outcome in outcomes:
        _seed, variant, burst = outcome.key
        r = outcome.value
        series.setdefault(variant, []).append(
            (burst, r.group("victim").percentile(90.0), r.accepted_load)
        )
    return series


def format_fig9(outcomes: list[RunOutcome]) -> str:
    """Render the ordered outcomes of a single-seed Fig. 9 sweep."""
    lines = [
        "Figure 9 — victim 90th-percentile latency vs aggressor burst size",
        "",
        f"{'variant':<10} {'burst(pkts)':>12} {'p90 latency':>12} {'accepted':>9}",
    ]
    for variant, series in victim_series(outcomes).items():
        for burst, p90, accepted in series:
            lines.append(
                f"{variant:<10} {burst:>12} {p90:>12.1f} {accepted:>9.3f}"
            )
        lines.append("")
    return "\n".join(lines)
