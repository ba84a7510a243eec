"""The Perf-Cost baseline controller (paper §V-C).

Multiplexes a *fixed* pool of hosts (two per application in the paper,
enough for the peak rate) to maximize performance utility, and does
account for adaptation costs — but never consolidates onto fewer hosts
and never considers power, neither steady-state nor transient.

Implemented as one scoped adaptation search per application, running
over the application's fixed host pair with a power-blind utility
model (the energy price set to zero).  The realized utility the
testbed meters still includes power, which is why Perf-Cost scores far
below Mistral in Fig. 9 despite its good response times.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.config import Configuration
from repro.core.controller import ControllerStats, Decision
from repro.core.perf_pwr import PerfPwrResult
from repro.core.search import SEARCH_WATTS_DELTA, AdaptationSearch
from repro.workload.monitor import WorkloadMonitor


class AppScopedPerfPwr:
    """Adapter: a per-application Perf-Pwr oracle for a scoped search.

    Wraps a :class:`~repro.core.perf_pwr.PerfPwrOptimizer` built over a
    single application's catalog and fixed host pool, filtering the
    system workload down to that application.
    """

    def __init__(self, app_name: str, optimizer) -> None:
        self.app_name = app_name
        self._optimizer = optimizer

    def optimize(self, workloads: Mapping[str, float]) -> PerfPwrResult:
        """Cost-free optimum for this application only."""
        scoped = {self.app_name: workloads.get(self.app_name, 0.0)}
        return self._optimizer.optimize(scoped)


class PerfCostController:
    """Fixed host pools per application; performance vs adaptation cost."""

    def __init__(
        self,
        name: str,
        app_searches: Mapping[str, AdaptationSearch],
        monitor: Optional[WorkloadMonitor] = None,
        min_control_window: float = 120.0,
    ) -> None:
        if not app_searches:
            raise ValueError("PerfCostController needs at least one app")
        self.name = name
        self.app_searches = dict(app_searches)
        self.monitor = monitor or WorkloadMonitor(band_width=0.0)
        self.min_control_window = min_control_window
        self.stats = ControllerStats()

    def record_interval_utility(self, utility: float) -> None:
        """Present for interface parity; Perf-Cost ignores utilities."""

    def on_sample(
        self,
        now: float,
        workloads: Mapping[str, float],
        configuration: Configuration,
        busy: bool = False,
    ) -> list[Decision]:
        """Run each application's scoped search on a workload change."""
        self.stats.invocations += 1
        escape = self.monitor.observe(now, workloads)
        if escape is None:
            return []
        self.stats.escapes += 1
        if busy:
            self.stats.skipped_busy += 1
            return []

        decisions: list[Decision] = []
        state = configuration
        window = max(escape.estimated_next_interval, self.min_control_window)
        for app_name, search in self.app_searches.items():
            outcome = search.search(state, dict(workloads), window)
            self.stats.decisions += 1
            self.stats.search_seconds.append(outcome.decision_seconds)
            self.stats.expansions.append(outcome.expansions)
            if outcome.is_null:
                self.stats.null_decisions += 1
                continue
            self.stats.actions_issued += len(outcome.actions)
            decisions.append(
                Decision(
                    time=now,
                    controller=f"{self.name}/{app_name}",
                    actions=outcome.actions,
                    control_window=window,
                    decision_seconds=outcome.decision_seconds,
                    search_watts=SEARCH_WATTS_DELTA,
                    outcome=outcome,
                    escape=escape,
                )
            )
            state = outcome.final_configuration
        return decisions
