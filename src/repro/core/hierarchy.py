"""Multi-level controller hierarchy (paper §II-C, §V-E).

Lower-level controllers manage small host subsets with narrow (zero)
workload bands and only the quick actions — CPU tuning and migrations
within their subset — so they are invoked every monitoring interval and
decide fast.  The higher-level controller watches the whole system with
a wide band (8 req/s in the paper) and wields all six actions.  On each
monitoring sample the hierarchy gives the high-level controller first
claim (its escape means the workload really moved); otherwise each
low-level controller may issue a local refinement.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.config import Configuration
from repro.core.controller import Decision, MistralController


class ControllerHierarchy:
    """Mistral deployed as a multi-level control scheme."""

    def __init__(
        self,
        level1: Sequence[MistralController],
        level2: MistralController,
    ) -> None:
        if not level1:
            raise ValueError("hierarchy needs at least one 1st-level controller")
        self.level1 = list(level1)
        self.level2 = level2
        #: Optional online model-feedback calibration shared by all
        #: controllers in the hierarchy (wired by the scenario builder).
        self.feedback = None

    def controllers(self) -> list[MistralController]:
        """All controllers, level 2 first."""
        return [self.level2, *self.level1]

    def record_interval_utility(self, utility: float) -> None:
        """Broadcast the measured interval utility to every controller."""
        for controller in self.controllers():
            controller.record_interval_utility(utility)

    def record_measurements(
        self,
        workloads,
        measured_response_times,
        configuration,
    ) -> None:
        """Feed measured response times to the shared feedback loop."""
        self.level2.record_measurements(
            workloads, measured_response_times, configuration
        )

    def enable_resilience(self) -> None:
        """Attach the degradation ladder to every controller."""
        for controller in self.controllers():
            controller.enable_resilience()

    def record_execution_fault(self, now: float, kind: str) -> None:
        """Broadcast one execution fault to every controller's ladder."""
        for controller in self.controllers():
            controller.record_execution_fault(now, kind)

    def charge_fault_cost(self, wasted_utility: float) -> None:
        """Charge an aborted plan's wasted utility (2nd level only —
        it owns the global Eq. 3 budget)."""
        self.level2.charge_fault_cost(wasted_utility)

    def request_replan(self, reason: str = "") -> None:
        """Ask the 2nd-level controller to re-plan at the next sample."""
        self.level2.request_replan(reason)

    def on_sample(
        self,
        now: float,
        workloads: Mapping[str, float],
        configuration: Configuration,
        busy: bool = False,
    ) -> list[Decision]:
        """Process one monitoring sample through the hierarchy.

        Returns the decisions to execute, in order.  The 2nd-level
        controller goes first; if it issues a non-null plan the
        1st-level controllers stand down for this sample (they will
        refine the new configuration on subsequent samples, as in the
        paper).  All controllers still observe the sample so their
        bands and ARMA filters stay current.  The 1st-level controllers
        plan in order, each against the configuration its predecessor's
        plan leaves behind.
        """
        decisions: list[Decision] = []
        top = self.level2.on_sample(now, workloads, configuration, busy)
        top_acted = top is not None and not top.is_null
        if top_acted:
            decisions.append(top)

        state = configuration
        for controller in self.level1:
            decision = controller.on_sample(
                now,
                workloads,
                state,
                busy=busy or top_acted,
            )
            if decision is not None and not decision.is_null:
                decisions.append(decision)
                state = decision.outcome.final_configuration
        return decisions

    def mean_search_seconds(self) -> dict[str, float]:
        """Average decision delay per level (Table I rows)."""
        level1_times = [
            seconds
            for controller in self.level1
            for seconds in controller.stats.search_seconds
        ]
        level2_times = list(self.level2.stats.search_seconds)
        every = level1_times + level2_times
        return {
            "level1": (
                sum(level1_times) / len(level1_times) if level1_times else 0.0
            ),
            "level2": (
                sum(level2_times) / len(level2_times) if level2_times else 0.0
            ),
            "overall": sum(every) / len(every) if every else 0.0,
        }
