"""Snapshot and restore of controller state (DESIGN.md §12).

A snapshot is a plain JSON-encodable dict capturing everything a
Mistral controller accumulates at run time and would lose in a crash:
the ARMA stability-interval history, the workload-band centers, the
recent-utility window that feeds the Self-Aware budget ``UH``, the
model-feedback calibration factors and version, the degradation-ladder
rung, the Eq. 3 fault debt, and the :class:`ControllerStats` accrual.
Static artifacts — applications, cost tables, search settings — are
*not* captured: a restarted controller process rebuilds them from the
same deterministic scenario builder, and :func:`restore` verifies the
rebuilt cost table against the snapshot's fingerprint before touching
any state.

``capture`` and ``restore`` are duck-typed over the same protocol the
testbed uses: a single :class:`~repro.core.controller.MistralController`
or a :class:`~repro.core.hierarchy.ControllerHierarchy` (anything with
a ``controllers()`` method and ``level1``/``level2`` attributes).

Restore is all-or-nothing: every validation (schema version, controller
identity, estimator geometry, cost-table fingerprint) runs *before* the
first mutation, so a rejected snapshot leaves the live controller
exactly as it was — never a partial restore.

The reconciliation step (:func:`reconcile`) diffs the configuration
recorded in a snapshot against the live cluster configuration, so a
restarted controller can detect drift (VMs that moved or vanished,
hosts that powered up or down while it was dead) before its first
post-restart decision and force a re-plan instead of trusting stale
assumptions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.core.config import Configuration, Placement
from repro.telemetry import runtime as _telemetry
from repro.workload.arma import EstimatorState
from repro.workload.monitor import BandEscape

#: Version of the snapshot schema below.  Bump on any breaking change;
#: :func:`restore` and :class:`~repro.checkpoint.store.CheckpointStore`
#: reject versions they do not know.
SNAPSHOT_SCHEMA_VERSION = 1


class CheckpointError(ValueError):
    """A snapshot could not be written, read, or applied."""


# -- capture ---------------------------------------------------------------


def _capture_estimator(estimator) -> dict:
    return {
        "history": estimator._k,
        "gamma": estimator._gamma,
        "estimate": estimator._estimate,
        "measurements": list(estimator._measurements),
        "errors": list(estimator._errors),
        "trace": [
            [state.measured, state.estimate_next, state.beta, state.error]
            for state in estimator.trace
        ],
    }


def _capture_monitor(monitor) -> dict:
    return {
        "band_width": monitor.band_width,
        "centers": (
            dict(monitor._centers) if monitor._centers is not None else None
        ),
        "band_start": monitor._band_start,
        "escapes": [
            [
                escape.time,
                list(escape.escaped_apps),
                escape.measured_interval,
                escape.estimated_next_interval,
                dict(escape.workloads),
            ]
            for escape in monitor.escapes
        ],
        "estimator": _capture_estimator(monitor.estimator),
    }


def _capture_ladder(ladder) -> Optional[dict]:
    if ladder is None:
        return None
    return {
        "level_index": ladder._level_index,
        "faults": list(ladder._faults),
        "last_fault_time": ladder._last_fault_time,
    }


def _capture_stats(stats) -> dict:
    return {
        "invocations": stats.invocations,
        "escapes": stats.escapes,
        "skipped_busy": stats.skipped_busy,
        "decisions": stats.decisions,
        "null_decisions": stats.null_decisions,
        "actions_issued": stats.actions_issued,
        "search_seconds": list(stats.search_seconds),
        "expansions": list(stats.expansions),
        "wall_seconds": list(stats.wall_seconds),
        "faults_observed": stats.faults_observed,
        "degradations": stats.degradations,
        "recoveries": stats.recoveries,
        "noop_decisions": stats.noop_decisions,
        "replans": stats.replans,
        "watchdog_aborts": stats.watchdog_aborts,
        "strategy_failures": stats.strategy_failures,
    }


def _capture_controller(controller) -> dict:
    return {
        "name": controller.name,
        "stats": _capture_stats(controller.stats),
        "recent_utilities": list(controller._recent_utilities),
        "last_workloads": (
            dict(controller._last_workloads)
            if controller._last_workloads is not None
            else None
        ),
        "last_now": controller._last_now,
        "fault_debt": controller._fault_debt,
        "replan_requested": controller._replan_requested,
        "monitor": _capture_monitor(controller.monitor),
        "ladder": _capture_ladder(controller.resilience),
    }


def _capture_feedback(feedback) -> Optional[dict]:
    if feedback is None:
        return None
    return {
        "factors": dict(feedback._factors),
        "version": feedback.version,
    }


def _capture_configuration(configuration) -> Optional[dict]:
    if configuration is None:
        return None
    return {
        "placements": {
            vm_id: [placement.host_id, placement.cpu_cap]
            for vm_id, placement in configuration.placement_items()
        },
        "powered": sorted(configuration.powered_hosts),
    }


def cost_table_fingerprint(table) -> str:
    """Stable digest of a cost table's measured entries.

    A snapshot records the fingerprint of the table its controller was
    planning with; :func:`restore` refuses to apply planning state on
    top of different cost artifacts.
    """
    payload = {
        f"{kind}/{tier}": [
            [
                workload,
                entry.duration,
                entry.primary_rt_delta,
                entry.colocated_rt_delta,
                entry.power_delta_watts,
            ]
            for workload, entry in table.entries(kind, tier)
        ]
        for kind, tier in sorted(table.keys())
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_hierarchy(controller) -> bool:
    return hasattr(controller, "controllers") and hasattr(controller, "level2")


def capture(
    controller,
    configuration: Optional[Configuration] = None,
    t_sim: float = 0.0,
) -> dict:
    """Snapshot a controller (or hierarchy) into a JSON-encodable dict.

    ``configuration`` is the live cluster configuration at snapshot
    time; recording it lets :func:`reconcile` diff the world the
    snapshot assumed against the world a restarted controller finds.
    """
    snapshot: dict = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "t_sim": t_sim,
        "configuration": _capture_configuration(configuration),
    }
    if _is_hierarchy(controller):
        snapshot["kind"] = "hierarchy"
        snapshot["level2"] = _capture_controller(controller.level2)
        snapshot["level1"] = [
            _capture_controller(sub) for sub in controller.level1
        ]
        snapshot["feedback"] = _capture_feedback(controller.feedback)
        table = controller.level2.search.cost_manager.table
    else:
        snapshot["kind"] = "controller"
        snapshot["controller"] = _capture_controller(controller)
        snapshot["feedback"] = _capture_feedback(controller.feedback)
        table = controller.search.cost_manager.table
    snapshot["cost_table_fingerprint"] = cost_table_fingerprint(table)
    return snapshot


# -- restore ---------------------------------------------------------------


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckpointError(f"snapshot rejected: {message}")


def _validate_controller(controller, state: dict) -> None:
    _check(
        state["name"] == controller.name,
        f"snapshot is for controller {state['name']!r}, "
        f"live controller is {controller.name!r}",
    )
    monitor = state["monitor"]
    _check(
        monitor["band_width"] == controller.monitor.band_width,
        f"band width mismatch for {controller.name!r} "
        f"(snapshot {monitor['band_width']!r}, "
        f"live {controller.monitor.band_width!r})",
    )
    estimator = monitor["estimator"]
    live = controller.monitor.estimator
    _check(
        estimator["history"] == live._k and estimator["gamma"] == live._gamma,
        f"ARMA estimator geometry mismatch for {controller.name!r}",
    )
    _check(
        (state["ladder"] is None) == (controller.resilience is None),
        f"resilience mismatch for {controller.name!r}: snapshot and live "
        "controller disagree on whether a degradation ladder is attached",
    )


def _apply_estimator(estimator, state: dict) -> None:
    estimator._measurements.clear()
    estimator._measurements.extend(state["measurements"])
    estimator._errors.clear()
    estimator._errors.extend(state["errors"])
    estimator._estimate = state["estimate"]
    estimator.trace = [
        EstimatorState(
            measured=measured, estimate_next=nxt, beta=beta, error=error
        )
        for measured, nxt, beta, error in state["trace"]
    ]


def _apply_controller(controller, state: dict) -> None:
    stats = state["stats"]
    for name, value in stats.items():
        if isinstance(value, list):
            value = list(value)
        setattr(controller.stats, name, value)
    controller._recent_utilities.clear()
    controller._recent_utilities.extend(state["recent_utilities"])
    controller._last_workloads = (
        dict(state["last_workloads"])
        if state["last_workloads"] is not None
        else None
    )
    controller._last_now = state["last_now"]
    controller._fault_debt = state["fault_debt"]
    controller._replan_requested = state["replan_requested"]

    monitor = state["monitor"]
    controller.monitor._centers = (
        dict(monitor["centers"]) if monitor["centers"] is not None else None
    )
    controller.monitor._band_start = monitor["band_start"]
    controller.monitor.escapes = [
        BandEscape(
            time=time,
            escaped_apps=tuple(escaped_apps),
            measured_interval=measured,
            estimated_next_interval=estimated,
            workloads=dict(workloads),
        )
        for time, escaped_apps, measured, estimated, workloads in monitor[
            "escapes"
        ]
    ]
    _apply_estimator(controller.monitor.estimator, monitor["estimator"])

    ladder = state["ladder"]
    if ladder is not None:
        controller.resilience._level_index = ladder["level_index"]
        controller.resilience._faults.clear()
        controller.resilience._faults.extend(ladder["faults"])
        controller.resilience._last_fault_time = ladder["last_fault_time"]


def _apply_feedback(feedback, state: Optional[dict]) -> None:
    if feedback is None or state is None:
        return
    feedback._factors = dict(state["factors"])
    feedback.version = state["version"]


def restore(controller, snapshot: dict) -> None:
    """Apply a snapshot to a freshly rebuilt controller (or hierarchy).

    Validates everything first — schema version, hierarchy shape,
    controller identities, estimator geometry, cost-table fingerprint —
    and only then mutates, so a rejected snapshot never leaves the
    controller half-restored.
    """
    _check(isinstance(snapshot, dict), "snapshot is not a mapping")
    version = snapshot.get("schema")
    _check(
        version == SNAPSHOT_SCHEMA_VERSION,
        f"unknown snapshot schema version {version!r} "
        f"(this reader understands {SNAPSHOT_SCHEMA_VERSION})",
    )
    hierarchy = _is_hierarchy(controller)
    expected_kind = "hierarchy" if hierarchy else "controller"
    _check(
        snapshot.get("kind") == expected_kind,
        f"snapshot kind {snapshot.get('kind')!r} does not match the live "
        f"{expected_kind}",
    )
    search = (controller.level2 if hierarchy else controller).search
    recorded = snapshot.get("cost_table_fingerprint")
    if recorded is not None:
        live_fingerprint = cost_table_fingerprint(search.cost_manager.table)
        _check(
            recorded == live_fingerprint,
            "cost-table fingerprint mismatch — the snapshot was taken "
            "against different cost artifacts",
        )
    feedback_state = snapshot.get("feedback")
    _check(
        feedback_state is None or controller.feedback is not None,
        "snapshot carries feedback calibration but the live controller "
        "has no feedback loop attached",
    )

    if hierarchy:
        _check(
            len(snapshot["level1"]) == len(controller.level1),
            f"snapshot has {len(snapshot['level1'])} 1st-level "
            f"controllers, live hierarchy has {len(controller.level1)}",
        )
        _validate_controller(controller.level2, snapshot["level2"])
        for sub, state in zip(controller.level1, snapshot["level1"]):
            _validate_controller(sub, state)
        _apply_controller(controller.level2, snapshot["level2"])
        for sub, state in zip(controller.level1, snapshot["level1"]):
            _apply_controller(sub, state)
    else:
        _validate_controller(controller, snapshot["controller"])
        _apply_controller(controller, snapshot["controller"])
    _apply_feedback(controller.feedback, feedback_state)
    if _telemetry.enabled:
        _telemetry.registry.counter("checkpoint.restores").inc()
        _telemetry.tracer.event(
            "checkpoint.restore",
            kind=snapshot["kind"],
            t_sim=snapshot.get("t_sim", 0.0),
        )


def restore_level2(hierarchy, snapshot: dict) -> None:
    """Warm-start only the 2nd-level controller from a hierarchy
    snapshot (the failover path: the 1st-level controllers never died,
    so their live state wins)."""
    _check(isinstance(snapshot, dict), "snapshot is not a mapping")
    version = snapshot.get("schema")
    _check(
        version == SNAPSHOT_SCHEMA_VERSION,
        f"unknown snapshot schema version {version!r} "
        f"(this reader understands {SNAPSHOT_SCHEMA_VERSION})",
    )
    _check(
        snapshot.get("kind") == "hierarchy",
        "level-2 failover needs a hierarchy snapshot",
    )
    _validate_controller(hierarchy.level2, snapshot["level2"])
    _apply_controller(hierarchy.level2, snapshot["level2"])
    _apply_feedback(hierarchy.feedback, snapshot.get("feedback"))


def snapshot_configuration(snapshot: dict) -> Optional[Configuration]:
    """Rebuild the :class:`Configuration` recorded in a snapshot."""
    state = snapshot.get("configuration")
    if state is None:
        return None
    return Configuration(
        placements={
            vm_id: Placement(host_id=host_id, cpu_cap=cpu_cap)
            for vm_id, (host_id, cpu_cap) in state["placements"].items()
        },
        powered_hosts=state["powered"],
    )


# -- reconciliation --------------------------------------------------------


@dataclass(frozen=True)
class ReconciliationReport:
    """Diff of a snapshot's recorded configuration vs the live cluster."""

    vms_added: tuple[str, ...]
    vms_removed: tuple[str, ...]
    vms_moved: tuple[str, ...]
    caps_changed: tuple[str, ...]
    hosts_powered_on: tuple[str, ...]
    hosts_powered_off: tuple[str, ...]

    @property
    def clean(self) -> bool:
        """Whether the live cluster matches the snapshot exactly."""
        return not (
            self.vms_added
            or self.vms_removed
            or self.vms_moved
            or self.caps_changed
            or self.hosts_powered_on
            or self.hosts_powered_off
        )

    def drift_count(self) -> int:
        """Total number of drifted entities."""
        return (
            len(self.vms_added)
            + len(self.vms_removed)
            + len(self.vms_moved)
            + len(self.caps_changed)
            + len(self.hosts_powered_on)
            + len(self.hosts_powered_off)
        )


_CLEAN_REPORT = ReconciliationReport((), (), (), (), (), ())


def reconcile(
    snapshot: dict, configuration: Optional[Configuration]
) -> ReconciliationReport:
    """Diff the snapshot's recorded configuration against the live one.

    Run before the first post-restart decision: a non-clean report
    means the cluster changed while the controller was down (actions
    landed, hosts crashed, operators intervened) and the restored
    planning state should not be trusted without a forced re-plan.
    A snapshot that recorded no configuration reconciles clean — there
    is nothing to diff against.
    """
    recorded = snapshot_configuration(snapshot)
    if recorded is None or configuration is None:
        return _CLEAN_REPORT
    old = dict(recorded.placement_items())
    new = dict(configuration.placement_items())
    moved, retuned = [], []
    for vm_id in sorted(old.keys() & new.keys()):
        if old[vm_id].host_id != new[vm_id].host_id:
            moved.append(vm_id)
        elif old[vm_id].cpu_cap != new[vm_id].cpu_cap:
            retuned.append(vm_id)
    return ReconciliationReport(
        vms_added=tuple(sorted(new.keys() - old.keys())),
        vms_removed=tuple(sorted(old.keys() - new.keys())),
        vms_moved=tuple(moved),
        caps_changed=tuple(retuned),
        hosts_powered_on=tuple(
            sorted(configuration.powered_hosts - recorded.powered_hosts)
        ),
        hosts_powered_off=tuple(
            sorted(recorded.powered_hosts - configuration.powered_hosts)
        ),
    )
