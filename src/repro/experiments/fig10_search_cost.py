"""Fig. 10 — the cost of the decision procedure itself.

Compares the Naive and Self-Aware search variants of Mistral on the
2-app scenario: (a) the power the search draws — the paper measures up
to ~12% over the controller host's 60 W idle; (b) the search durations
— naive up to ~4x the self-aware durations in the hardest cases; and
(c) the realized utility — self-awareness wins (paper: 152.3 vs 135.3
cumulative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.controller import MistralController
from repro.core.hierarchy import ControllerHierarchy
from repro.experiments.strategies import run_mistral_variant
from repro.testbed.metrics import RunMetrics

#: The controller host's idle draw (paper: ~60 W).
CONTROLLER_IDLE_WATTS = 60.0


@dataclass
class SearchCostResult:
    """Everything Fig. 10 plots."""

    self_aware: RunMetrics
    naive: RunMetrics
    self_aware_controller: object
    naive_controller: object

    def search_power_pct(self) -> list[tuple[float, float]]:
        """Fig. 10a: search power as % over the controller's idle draw."""
        return [
            (time, 100.0 * watts / CONTROLLER_IDLE_WATTS)
            for time, watts in self.self_aware.search_power_watts
        ]

    def peak_durations(self) -> dict[str, float]:
        """Largest decision durations, in seconds."""
        return {
            "self-aware": self.self_aware.search_seconds.maximum(),
            "naive": self.naive.search_seconds.maximum(),
        }

    def utilities(self) -> dict[str, float]:
        """Fig. 10c endpoint: cumulative utility per variant."""
        return {
            "self-aware": self.self_aware.cumulative_utility(),
            "naive": self.naive.cumulative_utility(),
        }

    def checks(self) -> dict[str, bool]:
        """The paper's qualitative claims about search self-awareness."""
        peaks = self.peak_durations()
        utilities = self.utilities()
        return {
            "naive_searches_longer": peaks["naive"] > peaks["self-aware"],
            "self_aware_better_utility": utilities["self-aware"]
            > utilities["naive"],
            "search_power_bounded": all(
                pct <= 15.0 for _, pct in self.search_power_pct()
            ),
        }


def _mean_level_durations(controller: object) -> dict[str, float]:
    if isinstance(controller, ControllerHierarchy):
        return controller.mean_search_seconds()
    if isinstance(controller, MistralController):
        mean = controller.stats.mean_search_seconds()
        return {"level1": 0.0, "level2": mean, "overall": mean}
    return {"level1": 0.0, "level2": 0.0, "overall": 0.0}


def run_fig10(
    app_count: int = 2, seed: int = 0, horizon: Optional[float] = None
) -> SearchCostResult:
    """Run both search variants and bundle the comparison."""
    aware_controller, aware_metrics = run_mistral_variant(
        True, app_count=app_count, seed=seed, horizon=horizon
    )
    naive_controller, naive_metrics = run_mistral_variant(
        False, app_count=app_count, seed=seed, horizon=horizon
    )
    return SearchCostResult(
        self_aware=aware_metrics,
        naive=naive_metrics,
        self_aware_controller=aware_controller,
        naive_controller=naive_controller,
    )


def level_durations(result: SearchCostResult) -> list[dict[str, object]]:
    """Mean decision durations per level and variant (feeds Table I)."""
    rows = []
    for variant, controller in (
        ("self-aware", result.self_aware_controller),
        ("naive", result.naive_controller),
    ):
        durations = _mean_level_durations(controller)
        rows.append(
            {
                "variant": variant,
                "level1_s": round(durations["level1"], 2),
                "level2_s": round(durations["level2"], 2),
                "overall_s": round(durations["overall"], 2),
            }
        )
    return rows
