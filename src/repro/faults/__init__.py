"""Deterministic fault injection and recovery (resilience layer).

The paper assumes every adaptation action completes on schedule and
every monitoring sample is fresh.  This package drops that assumption:
a seeded :class:`FaultInjector` perturbs the simulated cluster (action
failures and stalls, host crashes that strand VMs, stale or dropped
monitoring samples), and the recovery machinery — per-action timeouts,
bounded exponential-backoff retries, rollback of partially applied
plans, forced re-planning, and a search degradation ladder — keeps the
controller correct under those faults.

Injection is off by default: a run without a ``faults=`` argument is
bit-identical to one with an inert ``FaultConfig()`` (enforced by
``tests/test_faults.py``), and a fixed fault seed reproduces the exact
same fault schedule and telemetry event sequence on every run.

See ``docs/OPERATIONS.md`` for the operator guide and DESIGN.md §10
for the fault/recovery contract.
"""

from repro.faults.degradation import DegradationLadder, DegradationSettings
from repro.faults.injector import (
    ActionFault,
    FaultConfig,
    FaultInjector,
    FaultStats,
    HostCrash,
    ScriptedActionFault,
)
from repro.faults.invariants import InvariantViolation, check_invariants
from repro.faults.recovery import RecoveryPolicy

__all__ = [
    "ActionFault",
    "DegradationLadder",
    "DegradationSettings",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "HostCrash",
    "InvariantViolation",
    "RecoveryPolicy",
    "ScriptedActionFault",
    "check_invariants",
]
