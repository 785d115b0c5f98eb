"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures on the
``tiny`` preset (42-node dragonfly) with shortened measurement windows,
records the measured series in ``extra_info`` (visible with
``pytest-benchmark``'s ``--benchmark-verbose`` or in the JSON export),
and asserts the paper's qualitative *shape* — who wins and roughly where
the crossovers fall.  Absolute cycle counts are simulator-scale specific;
EXPERIMENTS.md records the paper-vs-measured comparison.

Run:  pytest benchmarks/ --benchmark-only
Add ``--jobs N`` to fan each sweep's independent points out over N
worker processes (results are bit-identical for any N; see
repro.engine.parallel).
"""

from __future__ import annotations

import importlib

import pytest

from repro.campaign import SWEEPS, run_points, sweep_points
from repro.engine.config import NetworkConfig
from repro.experiments.common import preset_by_name, quicken


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=1,
        help="worker processes for experiment sweep points (default: 1)",
    )


@pytest.fixture(scope="session")
def jobs(request: pytest.FixtureRequest) -> int:
    """Sweep-executor worker count, from the --jobs command-line flag."""
    return max(1, int(request.config.getoption("--jobs")))


@pytest.fixture(scope="session")
def quick_base() -> NetworkConfig:
    """Tiny preset with halved windows: the benchmark workhorse."""
    return quicken(preset_by_name("tiny"), 0.5)


@pytest.fixture(scope="session")
def full_base() -> NetworkConfig:
    """Tiny preset at full windows, for the experiments that need the
    complete transient (fig7/fig8)."""
    return preset_by_name("tiny")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def run_grid_once(benchmark, sweep, base, axes, jobs=1):
    """Run one sweep family's grid exactly once under the benchmark
    timer, through the campaign layer as the runner does; returns the
    outcomes in grid order."""
    module = importlib.import_module(SWEEPS[sweep])
    points = sweep_points(base, module.campaign_entries(base, axes))
    return run_once(benchmark, run_points, points, jobs=jobs)


def by_variant(outcomes):
    """Variant -> results in grid order, from a single-seed sweep's
    outcomes (keys ``(seed, variant, axis value)``)."""
    grouped = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.key[1], []).append(outcome.value)
    return grouped
