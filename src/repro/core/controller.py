"""The Mistral controller (paper Fig. 2).

One controller owns a workload monitor (bands + ARMA stability-interval
prediction), the predictor modules (performance, power, cost — bundled
in the estimator and cost manager), and the Optimal Adaptation Search.
On every monitoring sample it checks its bands; on an escape it runs
the search over the predicted control window and emits a decision: the
action sequence, the decision delay (search duration), and the power
drawn while deciding.  The testbed executes decisions against the
cluster.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.actions import AdaptationAction
from repro.core.config import Configuration
from repro.core.search import (
    SEARCH_WATTS_DELTA,
    AdaptationSearch,
    SearchOutcome,
)
from repro.faults.degradation import (
    DEADLINE_FRACTION,
    PRUNED_MAX_EXPANSIONS,
    DegradationLadder,
)
from repro.telemetry import runtime as _telemetry
from repro.workload.monitor import BandEscape, WorkloadMonitor


@dataclass
class Decision:
    """One controller decision, ready for execution."""

    time: float
    controller: str
    actions: tuple[AdaptationAction, ...]
    control_window: float
    decision_seconds: float
    search_watts: float
    #: Search details; None for baselines that plan without the A*.
    outcome: Optional[SearchOutcome]
    escape: BandEscape

    @property
    def is_null(self) -> bool:
        """Whether the controller decided to keep the configuration."""
        return not self.actions


@dataclass
class ControllerStats:
    """Bookkeeping for Table I / Fig. 10."""

    invocations: int = 0
    escapes: int = 0
    skipped_busy: int = 0
    decisions: int = 0
    null_decisions: int = 0
    actions_issued: int = 0
    search_seconds: list[float] = field(default_factory=list)
    expansions: list[int] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)
    # -- resilience (all zero unless enable_resilience was called) --
    faults_observed: int = 0
    degradations: int = 0
    recoveries: int = 0
    noop_decisions: int = 0
    replans: int = 0
    #: Searches the watchdog aborted at their wall-clock deadline.
    watchdog_aborts: int = 0

    def mean_search_seconds(self) -> float:
        """Average decision delay over all searches."""
        if not self.search_seconds:
            return 0.0
        return sum(self.search_seconds) / len(self.search_seconds)


class MistralController:
    """A single Mistral controller instance (one node of the hierarchy)."""

    def __init__(
        self,
        name: str,
        search: AdaptationSearch,
        monitor: WorkloadMonitor,
        min_control_window: float = 120.0,
        utility_history: int = 8,
    ) -> None:
        self.name = name
        self.search = search
        self.monitor = monitor
        self.min_control_window = min_control_window
        self.stats = ControllerStats()
        self._recent_utilities: deque[float] = deque(maxlen=utility_history)
        #: Optional online model-feedback calibration (see
        #: :mod:`repro.core.feedback`); wired by the scenario builder.
        self.feedback = None
        #: One-step workload trend extrapolation (Eq. 1 plans for the
        #: "measured or predicted request rate"): during a ramp, plan
        #: for where the workload is heading, not where it was when the
        #: plan started.  Trends below the threshold are treated as
        #: ripple and ignored.
        self.trend_extrapolation = True
        self.trend_threshold = 2.0
        self._last_workloads: Optional[dict[str, float]] = None
        #: Search degradation ladder; ``None`` (the default) keeps every
        #: decision on the normal path — resilience must be opted into
        #: via :meth:`enable_resilience` so fault-free runs stay
        #: bit-identical to the pre-resilience controller.
        self.resilience: Optional[DegradationLadder] = None
        #: Eq. 3 utility wasted by aborted plans, charged against the
        #: next decision's expected-utility budget ``UH``.
        self._fault_debt: float = 0.0
        self._replan_requested: bool = False

    # -- resilience -------------------------------------------------------

    def enable_resilience(self) -> None:
        """Attach the degradation ladder (normal → pruned → noop)."""
        self.resilience = DegradationLadder()

    def record_execution_fault(self, now: float, kind: str) -> None:
        """Note one execution fault (failed action, host crash, ...).

        Feeds the degradation ladder; repeated faults within its window
        push the search down one rung.  No-op without resilience.
        """
        if self.resilience is None:
            return
        self.stats.faults_observed += 1
        new_level = self.resilience.record_fault(now, kind)
        if new_level is not None:
            self._note_degraded(now, new_level, kind)

    def charge_fault_cost(self, wasted_utility: float) -> None:
        """Charge the Eq. 3 utility wasted by an aborted plan.

        The debt tightens the next decision's pessimistic budget ``UH``
        (paper §IV-B): the self-aware search prunes sooner, preferring
        cheap plans while the cluster is misbehaving.  Consumed by the
        next search.  No-op without resilience.
        """
        if self.resilience is None:
            return
        self._fault_debt += max(0.0, wasted_utility)

    def request_replan(self, reason: str = "") -> None:
        """Force a decision at the next sample even without an escape.

        Called after an aborted plan: the bands may not have moved, but
        the cluster is not in the configuration the last decision
        assumed.  No-op without resilience.
        """
        if self.resilience is None:
            return
        self._replan_requested = True
        self.stats.replans += 1
        if _telemetry.enabled:
            _telemetry.registry.counter("resilience.replans").inc()
            _telemetry.tracer.event(
                "resilience.replan", controller=self.name, reason=reason
            )

    def _note_degraded(self, now: float, level: str, kind: str) -> None:
        self.stats.degradations += 1
        if _telemetry.enabled:
            _telemetry.registry.counter("resilience.degradations").inc()
            _telemetry.tracer.event(
                "resilience.degraded",
                controller=self.name,
                level=level,
                cause=kind,
                t_sim=now,
            )

    def _search_settings_for_level(self, level: str):
        """Per-run settings override for the current ladder rung.

        The pruned rung also pins the strategy to the exact A*: a
        walker's watchdog aborts feed the ladder, so the walker may be
        what put us here, and the pruned self-aware A* with a reduced
        expansion budget is the known-good incumbent path.
        """
        if level != "pruned":
            return None
        return dataclasses.replace(
            self.search.settings,
            self_aware=True,
            strategy="astar",
            max_expansions=PRUNED_MAX_EXPANSIONS,
        )

    def record_interval_utility(self, utility: float) -> None:
        """Feed the measured utility of one monitoring interval.

        The self-aware search's expected-utility budget ``UH`` is the
        lowest of these recent measurements (a pessimistic estimate,
        paper §IV-B).
        """
        self._recent_utilities.append(utility)

    def record_measurements(
        self,
        workloads: Mapping[str, float],
        measured_response_times: Mapping[str, float],
        configuration: Configuration,
    ) -> None:
        """Feed one interval's measured response times to the feedback
        loop, against the model's prediction for the same state."""
        if self.feedback is None:
            return
        predicted = self.search.estimator.estimate(
            configuration, dict(workloads)
        ).response_times
        self.feedback.observe(measured_response_times, predicted)

    def _planning_workloads(
        self, workloads: dict[str, float]
    ) -> dict[str, float]:
        """Workloads to plan for: extrapolate strong monotone trends."""
        if not self.trend_extrapolation or self._last_workloads is None:
            return workloads
        planned = {}
        for app, rate in workloads.items():
            trend = rate - self._last_workloads.get(app, rate)
            if abs(trend) > self.trend_threshold:
                planned[app] = min(100.0, max(0.0, rate + trend))
            else:
                planned[app] = rate
        return planned

    def expected_utility(self, control_window: float) -> Optional[float]:
        """Pessimistic expected utility over a control window."""
        if not self._recent_utilities:
            return None
        per_interval = min(self._recent_utilities)
        interval = self.search.estimator.utility.parameters.monitoring_interval
        return per_interval * control_window / interval

    def on_sample(
        self,
        now: float,
        workloads: Mapping[str, float],
        configuration: Configuration,
        busy: bool = False,
    ) -> Optional[Decision]:
        """Process one monitoring sample; maybe return a decision.

        ``busy`` indicates an adaptation plan is already executing, in
        which case the controller re-centers its bands but does not
        search (the system is mid-transition and estimates would be
        stale).
        """
        self.stats.invocations += 1
        escape = self.monitor.observe(now, workloads)
        planning_workloads = self._planning_workloads(dict(workloads))
        self._last_workloads = dict(workloads)
        level = "normal"
        if self.resilience is not None:
            recovered = self.resilience.observe(now)
            if recovered is not None:
                self.stats.recoveries += 1
                if _telemetry.enabled:
                    _telemetry.registry.counter("resilience.recoveries").inc()
                    _telemetry.tracer.event(
                        "resilience.recovered",
                        controller=self.name,
                        level=recovered,
                        t_sim=now,
                    )
            level = self.resilience.level
            if escape is None and self._replan_requested and not busy:
                escape = self.monitor.force_escape(now, workloads)
        if escape is None:
            return None
        self._replan_requested = False
        self.stats.escapes += 1
        if busy:
            self.stats.skipped_busy += 1
            return None
        if level == "noop":
            # Bottom of the ladder: keep the configuration until the
            # cluster quiets down; the escape still re-centered bands.
            self.stats.noop_decisions += 1
            if _telemetry.enabled:
                _telemetry.registry.counter("resilience.noop_decisions").inc()
                _telemetry.tracer.event(
                    "resilience.noop_decision",
                    controller=self.name,
                    t_sim=now,
                )
            return None

        window = max(escape.estimated_next_interval, self.min_control_window)
        expected = self.expected_utility(window)
        debt_consumed = 0.0
        if expected is not None and self._fault_debt > 0.0:
            # Charge the utility wasted by aborted plans against the
            # pessimistic budget, consumed by this one decision.
            debt_consumed = self._fault_debt
            expected -= self._fault_debt
            self._fault_debt = 0.0
        expected_rate = (
            expected / window if expected is not None else None
        )
        with _telemetry.span(
            "controller.decision",
            controller=self.name,
            t_sim=now,
            escaped_apps=sorted(escape.escaped_apps),
            measured_interval=escape.measured_interval,
            control_window=window,
        ) as decision_span:
            outcome = self.search.search(
                configuration,
                planning_workloads,
                control_window=window,
                expected_utility=expected,
                expected_rate=expected_rate,
                settings_override=self._search_settings_for_level(level),
            )
            decision_span.set(
                actions=[type(a).__name__ for a in outcome.actions],
                null=outcome.is_null,
                expansions=outcome.expansions,
                decision_seconds=outcome.decision_seconds,
                search_watts=SEARCH_WATTS_DELTA,
                predicted_utility=outcome.predicted_utility,
            )
            if outcome.provenance is not None:
                # Emitted inside the span so the event's ``parent``
                # links it to this decision.  Children pruned under a
                # fault-debited budget are relabelled first.
                outcome.provenance.apply_fault_debit(debt_consumed)
                _telemetry.tracer.event(
                    "decision.provenance",
                    controller=self.name,
                    t_sim=now,
                    **outcome.provenance.to_attrs(),
                )
        if _telemetry.enabled:
            _telemetry.registry.counter("controller.decisions").inc()
            if outcome.is_null:
                _telemetry.registry.counter("controller.null_decisions").inc()
        self.stats.decisions += 1
        self.stats.search_seconds.append(outcome.decision_seconds)
        self.stats.expansions.append(outcome.expansions)
        self.stats.wall_seconds.append(outcome.wall_seconds)
        if outcome.is_null:
            self.stats.null_decisions += 1
        self.stats.actions_issued += len(outcome.actions)
        if outcome.deadline_aborted:
            # The watchdog cut the search off at its wall-clock
            # deadline: the plan is the best incumbent, not the
            # converged optimum.  Feed the resilience ladder — repeated
            # aborts mean the search budget no longer fits this host
            # and the ladder should force the pruned (then noop) rung.
            self.stats.watchdog_aborts += 1
            if _telemetry.enabled:
                _telemetry.tracer.event(
                    "watchdog.search_aborted",
                    controller=self.name,
                    t_sim=now,
                    actions=len(outcome.actions),
                )
            self.record_execution_fault(now, "watchdog")
        if self.resilience is not None:
            deadline = DEADLINE_FRACTION * window
            if outcome.decision_seconds > deadline:
                # The decision overran its share of the control window;
                # escalate immediately — the plan may already be stale.
                self.stats.faults_observed += 1
                new_level = self.resilience.record_fault(now, "deadline")
                if new_level is not None:
                    self._note_degraded(now, new_level, "deadline")
        return Decision(
            time=now,
            controller=self.name,
            actions=outcome.actions,
            control_window=window,
            decision_seconds=outcome.decision_seconds,
            search_watts=SEARCH_WATTS_DELTA,
            outcome=outcome,
            escape=escape,
        )
