"""Shared strategy-comparison runner for the Fig. 8/9/10 experiments.

Runs are memoized per (app count, seed, horizon, strategy) so the
benchmark harness can regenerate several figures from one set of runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.testbed.metrics import RunMetrics
from repro.testbed.scenarios import (
    build_mistral,
    build_perf_cost,
    build_perf_pwr,
    build_pwr_cost,
    make_testbed,
)
from repro.testbed.testbed import Testbed

STRATEGY_BUILDERS = {
    "mistral": build_mistral,
    "perf-pwr": build_perf_pwr,
    "perf-cost": build_perf_cost,
    "pwr-cost": build_pwr_cost,
}

#: Paper Fig. 9 cumulative utilities, for the comparison printouts.
PAPER_CUMULATIVE_UTILITY = {
    "mistral": 152.3,
    "perf-pwr": -47.1,
    "perf-cost": 26.3,
    "pwr-cost": 93.9,
}

_testbeds: dict[tuple, Testbed] = {}
_runs: dict[tuple, RunMetrics] = {}


@dataclass
class Comparison:
    """A testbed plus the per-strategy run metrics."""

    testbed: Testbed
    runs: dict[str, RunMetrics]

    @property
    def target(self) -> float:
        """The true response-time target used for violation counting."""
        return self.testbed.utility.parameters.target_response_time


def get_testbed(app_count: int = 2, seed: int = 0) -> Testbed:
    """Memoized testbed for one scenario size."""
    key = (app_count, seed)
    if key not in _testbeds:
        _testbeds[key] = make_testbed(app_count=app_count, seed=seed)
    return _testbeds[key]


def run_strategy(
    strategy: str,
    app_count: int = 2,
    seed: int = 0,
    horizon: Optional[float] = None,
) -> RunMetrics:
    """Memoized single-strategy run."""
    if strategy == "mistral":
        # Share the run with the Fig. 10 / Table I self-aware variant.
        _, metrics = run_mistral_variant(
            True, app_count=app_count, seed=seed, horizon=horizon
        )
        return metrics
    key = (strategy, app_count, seed, horizon)
    if key not in _runs:
        testbed = get_testbed(app_count, seed)
        builder = STRATEGY_BUILDERS[strategy]
        controller, initial = builder(testbed)
        _runs[key] = testbed.run(controller, initial, strategy, horizon=horizon)
    return _runs[key]


def run_comparison(
    app_count: int = 2,
    seed: int = 0,
    horizon: Optional[float] = None,
    strategies: Sequence[str] = ("perf-pwr", "perf-cost", "pwr-cost", "mistral"),
) -> Comparison:
    """Run (or reuse) all strategies on one scenario."""
    testbed = get_testbed(app_count, seed)
    runs = {
        strategy: run_strategy(strategy, app_count, seed, horizon)
        for strategy in strategies
    }
    return Comparison(testbed=testbed, runs=runs)


def run_mistral_variant(
    self_aware: bool,
    app_count: int = 2,
    seed: int = 0,
    horizon: Optional[float] = None,
    hierarchical: bool = True,
):
    """Mistral with the Self-Aware or Naive search (Fig. 10, Table I).

    Returns ``(controller, metrics)`` so callers can read the
    controller's per-level search statistics.
    """
    key = ("mistral-variant", self_aware, hierarchical, app_count, seed, horizon)
    cached = _runs.get(key)
    testbed = get_testbed(app_count, seed)
    if cached is None:
        controller, initial = build_mistral(
            testbed, hierarchical=hierarchical, self_aware=self_aware
        )
        metrics = testbed.run(
            controller,
            initial,
            f"mistral-{'self-aware' if self_aware else 'naive'}",
            horizon=horizon,
        )
        _runs[key] = (controller, metrics)
        cached = _runs[key]
    return cached
