"""Cluster runtime: deployed configuration + action execution timeline.

The cluster owns the *deployed* configuration and executes adaptation
plans sequentially on the simulation engine.  Each action samples its
true transient footprint (duration, RT deltas, power deltas) from the
:class:`~repro.cluster.transients.TransientModel` at start time; the
configuration change lands when the action completes (live migration
cuts over at the end of pre-copy), except host shutdown whose steady
draw disappears at start while the shutdown surge applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.cluster.host import HostSpec, PhysicalHost, PowerState
from repro.cluster.transients import TransientModel, TransientSpec
from repro.cluster.vm import VirtualMachine, VmState
from repro.core.actions import (
    ActionError,
    AdaptationAction,
    MigrateVm,
    NullAction,
    PowerOffHost,
    PowerOnHost,
    invert_action,
)
from repro.core.config import Configuration, ConstraintLimits, VmCatalog
from repro.faults import FaultInjector, RecoveryPolicy
from repro.power.model import SystemPowerModel
from repro.sim.engine import SimulationEngine
from repro.telemetry import runtime as _telemetry


@dataclass
class _Effect:
    """One in-flight transient effect window."""

    start: float
    end: float
    spec: TransientSpec


@dataclass
class ExecutedAction:
    """Record of one executed (or in-flight) action attempt."""

    action: AdaptationAction
    start: float
    end: float
    spec: TransientSpec
    #: ``ok`` | ``stalled`` (completed late) | ``failed`` | ``timeout``
    #: | ``aborted`` (cut short by a host crash).
    outcome: str = "ok"
    #: ``plan`` for the forward plan, ``rollback`` for undo actions.
    phase: str = "plan"
    #: 1-based attempt number of this action within the plan.
    attempt: int = 1


@dataclass
class ActionExecution:
    """Handle over one adaptation plan's execution."""

    actions: Sequence[AdaptationAction]
    started_at: float
    records: list[ExecutedAction] = field(default_factory=list)
    completed: bool = False
    aborted: Optional[str] = None
    #: Failed/timed-out attempts across the plan (fault injection).
    failures: int = 0
    #: Retries scheduled after failed attempts.
    retries: int = 0
    #: Whether the applied prefix was rolled back after an abort.
    rolled_back: bool = False


class ClusterBusyError(RuntimeError):
    """Raised when a plan is submitted while another is executing."""


class Cluster:
    """The simulated resource pool the controllers manage."""

    def __init__(
        self,
        host_specs: Sequence[HostSpec],
        catalog: VmCatalog,
        limits: ConstraintLimits,
        engine: SimulationEngine,
        transient_model: TransientModel,
        power_models: SystemPowerModel,
        workload_provider: Callable[[], Mapping[str, float]],
    ) -> None:
        if not host_specs:
            raise ValueError("cluster needs at least one host")
        self.engine = engine
        self.catalog = catalog
        self.limits = limits
        self.power_models = power_models
        self._transients = transient_model
        self._workloads = workload_provider
        self.hosts: dict[str, PhysicalHost] = {
            spec.host_id: PhysicalHost(
                spec,
                power_models.host_model(spec.host_id),
                initial_state=PowerState.OFF,
            )
            for spec in host_specs
        }
        self.vms: dict[str, VirtualMachine] = {
            descriptor.vm_id: VirtualMachine(descriptor)
            for descriptor in catalog
        }
        self._configuration: Optional[Configuration] = None
        self._effects: list[_Effect] = []
        self._current_plan: Optional[ActionExecution] = None
        self._plan_abort_hook: Optional[Callable[[str], None]] = None
        self.history: list[ExecutedAction] = []

    # -- state ----------------------------------------------------------

    @property
    def configuration(self) -> Configuration:
        """The currently deployed configuration."""
        if self._configuration is None:
            raise RuntimeError("cluster has no deployed configuration yet")
        return self._configuration

    def is_adapting(self) -> bool:
        """Whether an adaptation plan is currently executing."""
        return self._current_plan is not None

    def deploy(self, configuration: Configuration) -> None:
        """Instantly install an initial configuration (experiment setup)."""
        violations = configuration.violations(self.catalog, self.limits)
        if violations:
            raise ValueError(
                "initial configuration is infeasible: " + "; ".join(violations)
            )
        unknown = configuration.powered_hosts - set(self.hosts)
        if unknown:
            raise ValueError(f"unknown hosts {sorted(unknown)}")
        self._configuration = configuration
        for host in self.hosts.values():
            wanted = host.host_id in configuration.powered_hosts
            if wanted and host.state is PowerState.OFF:
                host.begin_boot()
                host.complete_boot()
            elif not wanted and host.state is PowerState.ON:
                host.begin_shutdown()
                host.complete_shutdown()
        for vm in self.vms.values():
            placement = configuration.placement_of(vm.vm_id)
            if placement is not None:
                vm.activate(placement.host_id, placement.cpu_cap)

    # -- transient queries ------------------------------------------------

    def _prune_effects(self, keep_horizon: float = 900.0) -> None:
        """Drop effects that ended more than ``keep_horizon`` seconds
        ago (recent ones are still needed for windowed averages)."""
        cutoff = self.engine.now - keep_horizon
        self._effects = [
            effect for effect in self._effects if effect.end > cutoff
        ]

    def transient_rt_delta(self, app_name: str) -> float:
        """Extra response time (s) the app suffers from in-flight actions."""
        now = self.engine.now
        self._prune_effects()
        return sum(
            effect.spec.rt_delta.get(app_name, 0.0)
            for effect in self._effects
            if effect.start <= now < effect.end
        )

    def transient_power_delta(self) -> float:
        """Extra watts drawn by in-flight actions right now."""
        now = self.engine.now
        self._prune_effects()
        return sum(
            effect.spec.total_power_delta()
            for effect in self._effects
            if effect.start <= now < effect.end
        )

    def transient_rt_delta_mean(
        self, app_name: str, start: float, end: float
    ) -> float:
        """Time-averaged RT delta over a window (Eq. 1 uses the *mean*
        response time over the monitoring window, so a 30 s migration
        inside a 120 s window contributes a quarter of its delta)."""
        if end <= start:
            return 0.0
        total = 0.0
        for effect in self._effects:
            overlap = min(end, effect.end) - max(start, effect.start)
            if overlap > 0:
                total += overlap * effect.spec.rt_delta.get(app_name, 0.0)
        return total / (end - start)

    def transient_power_delta_mean(self, start: float, end: float) -> float:
        """Time-averaged transient watts over a window."""
        if end <= start:
            return 0.0
        total = 0.0
        for effect in self._effects:
            overlap = min(end, effect.end) - max(start, effect.start)
            if overlap > 0:
                total += overlap * effect.spec.total_power_delta()
        return total / (end - start)

    # -- plan execution ---------------------------------------------------

    def execute_plan(
        self,
        actions: Sequence[AdaptationAction],
        start_delay: float = 0.0,
        on_complete: Optional[Callable[[ActionExecution], None]] = None,
        *,
        fault_injector: Optional[FaultInjector] = None,
        recovery: Optional[RecoveryPolicy] = None,
        on_fault: Optional[Callable[[str, str], None]] = None,
    ) -> ActionExecution:
        """Execute a sequence of actions, one after another.

        ``start_delay`` models the controller's decision delay: the
        first action begins that many seconds from now.  Returns a
        handle that fills in per-action records as execution proceeds.

        Every plan runs under the ``recovery`` policy (default
        :class:`RecoveryPolicy`): each attempt may be failed or stalled
        by the ``fault_injector``, stalled attempts that blow the
        policy's timeout are abandoned, failed attempts retry after
        bounded exponential backoff, and a plan that aborts (retries
        exhausted, or a host crash) rolls back its applied prefix so
        the cluster is never left in a partial configuration
        (DESIGN.md §10).  ``on_fault`` is called with
        ``(kind, detail)`` for every injected fault so the
        controller's degradation ladder can react.  Without an
        injector nothing fails: the timeout is never shorter than an
        attempt's sampled duration.
        """
        if self._current_plan is not None:
            raise ClusterBusyError("an adaptation plan is already executing")
        plan_actions = [
            action for action in actions if not isinstance(action, NullAction)
        ]
        execution = ActionExecution(
            actions=tuple(plan_actions),
            started_at=self.engine.now + start_delay,
        )
        if not plan_actions:
            execution.completed = True
            if on_complete is not None:
                on_complete(execution)
            return execution
        if recovery is None:
            recovery = RecoveryPolicy()
        self._current_plan = execution
        remaining = list(plan_actions)
        #: Successfully landed actions with their pre-action configs,
        #: in execution order — the rollback source of truth.
        applied: list[tuple[AdaptationAction, Configuration]] = []
        state: dict = {"pending": None, "inflight": None, "done": False}

        def notify_fault(kind: str, detail: str) -> None:
            if on_fault is not None:
                on_fault(kind, detail)

        def finish_plan() -> None:
            if state["done"]:
                return
            state["done"] = True
            self._current_plan = None
            self._plan_abort_hook = None
            if on_complete is not None:
                on_complete(execution)

        def attempt(action: AdaptationAction, attempt_no: int) -> None:
            state["pending"] = None
            before = self.configuration
            try:
                action.apply(before, self.catalog, self.limits)
            except Exception as error:  # noqa: BLE001 - surfaced to handle
                # Structurally impossible now (e.g. the cluster changed
                # under a crash); retrying cannot help.
                abort_plan(f"{action}: {error}")
                return
            fault = (
                fault_injector.action_fault(action)
                if fault_injector is not None
                else None
            )
            spec = self._transients.sample(action, before, self._workloads())
            duration = spec.duration
            outcome = "ok"
            if fault is not None and fault.mode == "stall":
                duration *= fault.stall_factor
                outcome = "stalled"
            failed = fault is not None and fault.mode == "fail"
            if failed:
                duration *= fault_injector.config.fail_fraction
                outcome = "failed"
            elif duration > recovery.timeout_seconds(spec.duration):
                failed = True
                duration = recovery.timeout_seconds(spec.duration)
                outcome = "timeout"
            if outcome != "ok" and _telemetry.enabled:
                counter = (
                    "faults.action_stalls"
                    if outcome == "stalled"
                    else "faults.action_failures"
                )
                _telemetry.registry.counter(counter).inc()
                _telemetry.tracer.event(
                    "fault.action",
                    action=str(action),
                    mode=outcome,
                    attempt=attempt_no,
                    t_sim=self.engine.now,
                )
            start = self.engine.now
            end = start + duration
            record = ExecutedAction(
                action, start, end, spec, outcome=outcome, attempt=attempt_no
            )
            execution.records.append(record)
            self.history.append(record)
            effect = _Effect(start, end, spec)
            self._effects.append(effect)
            self._begin_action(action)
            state["inflight"] = (action, before, record, effect)
            if failed:
                state["pending"] = self.engine.schedule_at(
                    end,
                    lambda: resolve_failure(action, before, record, attempt_no),
                    label=f"fail:{action}",
                )
            else:
                state["pending"] = self.engine.schedule_at(
                    end,
                    lambda: resolve_success(action, before),
                    label=f"finish:{action}",
                )

        def resolve_success(
            action: AdaptationAction, before: Configuration
        ) -> None:
            state["pending"] = None
            state["inflight"] = None
            self._complete_action(action)
            applied.append((action, before))
            if remaining:
                attempt(remaining.pop(0), 1)
            else:
                execution.completed = True
                finish_plan()

        def resolve_failure(
            action: AdaptationAction,
            before: Configuration,
            record: ExecutedAction,
            attempt_no: int,
        ) -> None:
            state["pending"] = None
            state["inflight"] = None
            self._abort_action_state(action)
            execution.failures += 1
            notify_fault("action_failure", str(action))
            if attempt_no < recovery.max_attempts:
                execution.retries += 1
                backoff = recovery.backoff_seconds(attempt_no)
                if _telemetry.enabled:
                    _telemetry.registry.counter("recovery.retries").inc()
                    _telemetry.tracer.event(
                        "recovery.retry",
                        action=str(action),
                        attempt=attempt_no,
                        backoff_seconds=backoff,
                        t_sim=self.engine.now,
                    )
                state["pending"] = self.engine.schedule_after(
                    backoff,
                    lambda: attempt(action, attempt_no + 1),
                    label=f"retry:{action}",
                )
            else:
                abort_plan(
                    f"{action}: failed after {recovery.max_attempts} attempts"
                )

        def abort_plan(reason: str) -> None:
            execution.aborted = reason
            if _telemetry.enabled:
                _telemetry.registry.counter("recovery.plans_aborted").inc()
                _telemetry.tracer.event(
                    "recovery.plan_aborted",
                    reason=reason,
                    applied=len(applied),
                    t_sim=self.engine.now,
                )
            if applied:
                begin_rollback()
            else:
                finish_plan()

        def begin_rollback() -> None:
            inverses: list[AdaptationAction] = []
            for action, before in reversed(applied):
                try:
                    inverses.append(invert_action(action, before, self.catalog))
                except ActionError:
                    pass  # nothing to undo for this one
            applied.clear()
            if _telemetry.enabled:
                _telemetry.registry.counter("recovery.rollbacks").inc()
                _telemetry.tracer.event(
                    "recovery.rollback",
                    actions=len(inverses),
                    t_sim=self.engine.now,
                )
            next_inverse(inverses)

        def next_inverse(inverses: list[AdaptationAction]) -> None:
            state["pending"] = None
            while inverses:
                inverse = inverses.pop(0)
                if not inverse.is_applicable(
                    self.configuration, self.catalog, self.limits
                ):
                    # A crash can invalidate an inverse (e.g. migrating
                    # a VM back to a dead host); skip it — the
                    # controller re-plans from the stranded state.
                    if _telemetry.enabled:
                        _telemetry.registry.counter(
                            "recovery.rollback_skips"
                        ).inc()
                        _telemetry.tracer.event(
                            "recovery.rollback_skipped",
                            action=str(inverse),
                            t_sim=self.engine.now,
                        )
                    continue
                before = self.configuration
                spec = self._transients.sample(
                    inverse, before, self._workloads()
                )
                start = self.engine.now
                end = start + spec.duration
                record = ExecutedAction(
                    inverse, start, end, spec, phase="rollback"
                )
                execution.records.append(record)
                self.history.append(record)
                effect = _Effect(start, end, spec)
                self._effects.append(effect)
                self._begin_action(inverse)
                state["inflight"] = (inverse, before, record, effect)
                state["pending"] = self.engine.schedule_at(
                    end,
                    lambda inv=inverse: finish_inverse(inv, inverses),
                    label=f"rollback:{inverse}",
                )
                return
            execution.rolled_back = True
            finish_plan()

        def finish_inverse(
            inverse: AdaptationAction, inverses: list[AdaptationAction]
        ) -> None:
            state["pending"] = None
            state["inflight"] = None
            self._complete_action(inverse)
            if _telemetry.enabled:
                _telemetry.registry.counter("recovery.rollback_actions").inc()
            next_inverse(inverses)

        def abort_hook(reason: str) -> None:
            """Invoked by :meth:`crash_host` to kill the plan mid-flight."""
            if state["done"]:
                return
            pending = state["pending"]
            if pending is not None:
                pending.cancel()
                state["pending"] = None
            inflight = state["inflight"]
            if inflight is not None:
                action, _before, record, effect = inflight
                record.outcome = "aborted"
                record.end = self.engine.now
                effect.end = self.engine.now
                self._abort_action_state(action)
                state["inflight"] = None
            if execution.aborted is None:
                execution.aborted = reason
                if _telemetry.enabled:
                    _telemetry.registry.counter(
                        "recovery.plans_aborted"
                    ).inc()
                    _telemetry.tracer.event(
                        "recovery.plan_aborted",
                        reason=reason,
                        applied=len(applied),
                        t_sim=self.engine.now,
                    )
                if applied:
                    begin_rollback()
                    return
            finish_plan()

        self._plan_abort_hook = abort_hook
        self.engine.schedule_after(
            start_delay,
            lambda: attempt(remaining.pop(0), 1),
            label="plan:start",
        )
        return execution

    # -- fault surfaces ----------------------------------------------------

    def crash_host(
        self,
        host_id: str,
        fault_injector: Optional[FaultInjector] = None,
    ) -> list[str]:
        """Immediately kill one host (fault injection).

        Strands and deactivates every VM the host is serving (including
        VMs it is still serving mid-migration), removes them from the
        deployed configuration, powers the host off, and aborts any
        in-flight plan (which rolls back its applied prefix
        against the post-crash configuration).  Returns the stranded VM
        ids.
        """
        host = self.hosts[host_id]
        config = self.configuration
        stranded = [
            vm.vm_id for vm in self.vms.values() if vm.host_id == host_id
        ]
        for vm_id in stranded:
            self.vms[vm_id].deactivate()
            if config.is_placed(vm_id):
                config = config.remove(vm_id)
        if host_id in config.powered_hosts:
            config = config.power_off(host_id)
        host.crash()
        self._configuration = config
        if fault_injector is not None:
            fault_injector.note_host_crash()
        if _telemetry.enabled:
            _telemetry.registry.counter("faults.host_crashes").inc()
            _telemetry.tracer.event(
                "fault.host_crash",
                host=host_id,
                stranded=stranded,
                t_sim=self.engine.now,
            )
        if self._current_plan is not None:
            self._plan_abort_hook(f"host crash: {host_id}")
        return stranded

    # -- action state transitions -----------------------------------------

    def _begin_action(self, action: AdaptationAction) -> None:
        if isinstance(action, PowerOffHost):
            # Steady draw disappears immediately; the shutdown surge is
            # the transient effect.
            self._configuration = action.apply(
                self.configuration, self.catalog, self.limits
            )
            self.hosts[action.host_id].begin_shutdown()
        elif isinstance(action, PowerOnHost):
            self.hosts[action.host_id].begin_boot()
        elif isinstance(action, MigrateVm):
            self.vms[action.vm_id].begin_migration()

    def _abort_action_state(self, action: AdaptationAction) -> None:
        """Undo the begin-time transitions of an abandoned action.

        Defensive against host crashes: every transition is guarded on
        the current state, because a crash may already have moved the
        host/VM past the state the abort would otherwise expect.
        """
        if isinstance(action, PowerOffHost):
            host = self.hosts[action.host_id]
            if host.state is PowerState.SHUTTING_DOWN:
                host.abort_shutdown()
                # The steady draw resumed; restore the host into the
                # deployed configuration (removed at begin).
                if action.host_id not in self.configuration.powered_hosts:
                    self._configuration = self.configuration.power_on(
                        action.host_id
                    )
        elif isinstance(action, PowerOnHost):
            host = self.hosts[action.host_id]
            if host.state is PowerState.BOOTING:
                host.abort_boot()
        elif isinstance(action, MigrateVm):
            vm = self.vms[action.vm_id]
            if vm.state is VmState.MIGRATING:
                vm.abort_migration()

    def _complete_action(self, action: AdaptationAction) -> None:
        if isinstance(action, PowerOffHost):
            self.hosts[action.host_id].complete_shutdown()
            return
        new_config = action.apply(self.configuration, self.catalog, self.limits)
        if isinstance(action, PowerOnHost):
            self.hosts[action.host_id].complete_boot()
        elif isinstance(action, MigrateVm):
            placement = new_config.placement_of(action.vm_id)
            assert placement is not None
            self.vms[action.vm_id].complete_migration(placement.host_id)
        else:
            self._sync_vm_states(new_config)
        self._configuration = new_config

    def _sync_vm_states(self, new_config: Configuration) -> None:
        """Reconcile VM runtime objects after cap/replica changes."""
        for vm in self.vms.values():
            old = self.configuration.placement_of(vm.vm_id)
            new = new_config.placement_of(vm.vm_id)
            if old is None and new is not None:
                vm.activate(new.host_id, new.cpu_cap)
            elif old is not None and new is None:
                vm.deactivate()
            elif new is not None and old is not None and old != new:
                vm.set_cap(new.cpu_cap)
