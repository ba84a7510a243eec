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

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.checkpoint.snapshot import (
    CheckpointError,
    reconcile,
    restore_level2,
)
from repro.core.config import Configuration
from repro.core.controller import ControllerStats, Decision, MistralController
from repro.faults.degradation import DegradationLadder
from repro.telemetry import runtime as _telemetry


@dataclass(frozen=True)
class ControllerScope:
    """Declarative description of one controller's remit."""

    name: str
    level: int
    host_ids: tuple[str, ...]
    band_width: float
    all_actions: bool


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
        #: Snapshot store the failover path warm-starts from (wired by
        #: ``Testbed.run(checkpoint=...)`` or directly by the caller).
        self.checkpoint_store = None
        #: Simulation time until which the 2nd-level controller is down
        #: (``None`` while it is healthy — the default path, untouched).
        self._level2_down_until: Optional[float] = None
        #: The last checkpoint written *before* the crash, stashed at
        #: crash time: a restarted controller reads the snapshot its
        #: dead predecessor left behind, not one taken after the reset.
        self._failover_snapshot: Optional[dict] = None

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

    def enable_resilience(self, settings=None) -> None:
        """Attach the degradation ladder to every controller."""
        for controller in self.controllers():
            controller.enable_resilience(settings)

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

    # -- failover ---------------------------------------------------------

    def crash_controller(
        self, now: float, crash, fault_injector=None
    ) -> None:
        """Execute one scripted controller crash (testbed fault hook).

        Only the 2nd-level controller can crash: its in-memory state —
        ARMA history, band centers, utility accrual, ladder rung — is
        wiped to cold defaults, and it stays down until
        ``now + crash.restart_delay``.  The 1st-level controllers are
        untouched and keep planning their bands standalone.  The last
        checkpoint written before the crash (if a store is wired) is
        stashed now so the restart warm-starts from the state the dead
        process persisted, not from anything written afterwards.
        """
        victim = getattr(crash, "controller", "level2")
        if victim not in ("level2", self.level2.name):
            raise ValueError(
                f"unknown crash target {victim!r}; a hierarchy can only "
                f"crash 'level2' (aka {self.level2.name!r})"
            )
        self._failover_snapshot = None
        if self.checkpoint_store is not None and self.checkpoint_store.exists():
            try:
                self._failover_snapshot = self.checkpoint_store.load()
            except CheckpointError:
                self._failover_snapshot = None
        self._cold_reset_level2()
        self._level2_down_until = now + crash.restart_delay
        if fault_injector is not None:
            fault_injector.note_controller_crash()
        if _telemetry.enabled:
            _telemetry.registry.counter("failover.controller_crashes").inc()
            _telemetry.tracer.event(
                "failover.controller_crash",
                controller=self.level2.name,
                t_sim=now,
                down_until=self._level2_down_until,
                checkpoint_available=self._failover_snapshot is not None,
            )

    def _cold_reset_level2(self) -> None:
        """What a freshly exec'd controller process knows: nothing."""
        level2 = self.level2
        monitor = level2.monitor
        monitor._centers = None
        monitor._band_start = 0.0
        monitor.escapes.clear()
        estimator = monitor.estimator
        estimator._measurements.clear()
        estimator._errors.clear()
        estimator.trace = []
        level2.stats = ControllerStats()
        level2._recent_utilities.clear()
        level2._last_workloads = None
        level2._last_now = 0.0
        level2._fault_debt = 0.0
        level2._replan_requested = False
        if level2.resilience is not None:
            level2.resilience = DegradationLadder(level2.resilience.settings)

    def _restart_level2(self, now: float, configuration) -> None:
        """Bring the 2nd-level controller back, warm-starting from the
        stashed checkpoint and reconciling it against the live
        configuration before its first post-restart decision."""
        self._level2_down_until = None
        snapshot, self._failover_snapshot = self._failover_snapshot, None
        if snapshot is None:
            if _telemetry.enabled:
                _telemetry.tracer.event(
                    "failover.cold_start",
                    controller=self.level2.name,
                    t_sim=now,
                )
            return
        try:
            restore_level2(self, snapshot)
        except CheckpointError as error:
            if _telemetry.enabled:
                _telemetry.registry.counter("failover.restore_failures").inc()
                _telemetry.tracer.event(
                    "failover.restore_failed",
                    controller=self.level2.name,
                    t_sim=now,
                    error=str(error),
                )
            return
        report = reconcile(snapshot, configuration)
        if not report.clean:
            # The cluster drifted while the controller was down; its
            # restored planning assumptions are stale — force a re-plan
            # at the next sample (no-op without resilience).
            self.level2.request_replan("failover_reconciliation")
        if _telemetry.enabled:
            _telemetry.registry.counter("failover.restores").inc()
            _telemetry.tracer.event(
                "failover.restored",
                controller=self.level2.name,
                t_sim=now,
                snapshot_t_sim=snapshot.get("t_sim", 0.0),
                clean=report.clean,
                drift=report.drift_count(),
            )

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
        if self._level2_down_until is not None:
            if now < self._level2_down_until:
                # The 2nd level is dead: 1st-level controllers keep
                # planning their bands standalone this sample.
                if _telemetry.enabled:
                    _telemetry.registry.counter(
                        "failover.samples_without_level2"
                    ).inc()
                top = None
            else:
                self._restart_level2(now, configuration)
                top = self.level2.on_sample(now, workloads, configuration, busy)
        else:
            top = self.level2.on_sample(now, workloads, configuration, busy)
        top_acted = top is not None and not top.is_null
        if top is not None and not top.is_null:
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
