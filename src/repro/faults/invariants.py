"""Post-decision invariant checker (chaos mode).

The chaos harness injects faults into plan execution, the hosts and
the monitoring feed, and the recovery layers are supposed to absorb
them without ever letting a corrupted intermediate state leak into a
committed decision.  This module is the referee: after every decision
it re-derives, from first principles, the properties that must hold
no matter which fault path the run travelled.

Four invariant families (DESIGN.md §10):

- **allocation** — the decided configuration satisfies every
  :class:`~repro.core.config.ConstraintLimits` rule (CPU-cap sum per
  host, per-host VM count, guest memory, minimum cap) and places VMs
  only on powered hosts;
- **replica-0** — each application tier with any active replica keeps
  its first replica placed: the paper's adaptation actions scale tiers
  by adding/removing the *highest* replica, so a missing replica 0 with
  higher replicas active means a plan was applied out of order or
  half-rolled-back;
- **Eq. 3 conservation** — the decision provenance's utility breakdown
  satisfies ``steady + transient == total`` (float tolerance): a
  corrupted evaluation path cannot invent or lose utility between the
  terms and the committed total;
- **codec round-trip** — encoding the decided configuration through
  :class:`~repro.core.config.ConfigCodec` and decoding it back is the
  identity, so the array core and the shared-memory channel would
  transport this exact decision bit-identically (skipped when the
  configuration leaves the codec universe, which is the documented
  object-path fallback).

Violations are returned as data and, when telemetry is enabled, emitted
as ``chaos.invariant_violation`` events with a
``chaos.invariant_violations`` counter — the soak runner fails hard on
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.telemetry import runtime as _telemetry

#: Tolerance of the Eq. 3 conservation check, matching the float slack
#: the provenance layer itself allows between replayed terms and the
#: search's committed vertex utility.
CONSERVATION_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant: which rule, and the evidence."""

    name: str  # "allocation" | "replica_zero" | "conservation" | "codec"
    detail: str


def _allocation_violations(
    configuration, catalog, limits
) -> list[InvariantViolation]:
    problems = [
        InvariantViolation("allocation", detail)
        for detail in configuration.violations(catalog, limits)
    ]
    # ``Configuration.__init__`` already rejects placements on unpowered
    # hosts, but chaos mode re-checks it anyway: a corrupt decode path
    # could in principle resurrect a stale powered set through pickling,
    # which bypasses ``__init__``.
    powered = configuration.powered_hosts
    for vm_id, placement in configuration.placement_items():
        if placement.host_id not in powered:
            problems.append(
                InvariantViolation(
                    "allocation",
                    f"VM {vm_id} placed on unpowered host {placement.host_id}",
                )
            )
    return problems


def _replica_zero_violations(configuration, catalog) -> list[InvariantViolation]:
    problems: list[InvariantViolation] = []
    seen: set[tuple[str, str]] = set()
    for descriptor in catalog:
        key = (descriptor.app_name, descriptor.tier_name)
        if key in seen:
            continue
        seen.add(key)
        members = catalog.for_tier(*key)
        if not members:
            continue
        placed = [m.vm_id for m in members if configuration.is_placed(m.vm_id)]
        if placed and not configuration.is_placed(members[0].vm_id):
            problems.append(
                InvariantViolation(
                    "replica_zero",
                    f"tier {key[0]}/{key[1]}: replicas {placed} active "
                    f"but replica 0 ({members[0].vm_id}) is not placed",
                )
            )
    return problems


def _conservation_violations(
    utility: Optional[Mapping[str, float]],
) -> list[InvariantViolation]:
    if not utility:
        return []
    try:
        steady = float(utility["steady"])
        transient = float(utility["transient"])
        total = float(utility["total"])
    except (KeyError, TypeError, ValueError):
        return [
            InvariantViolation(
                "conservation",
                f"utility breakdown missing Eq. 3 terms: {dict(utility)!r}",
            )
        ]
    scale = max(1.0, abs(steady), abs(transient), abs(total))
    if abs(steady + transient - total) > CONSERVATION_TOLERANCE * scale:
        return [
            InvariantViolation(
                "conservation",
                f"steady {steady!r} + transient {transient!r} != "
                f"total {total!r}",
            )
        ]
    return []


def _codec_violations(
    configuration, catalog, host_ids: Optional[Sequence[str]]
) -> list[InvariantViolation]:
    if not host_ids:
        return []
    from repro.core.config import ConfigCodec

    try:
        codec = ConfigCodec(catalog.vm_ids(), host_ids)
    except ValueError:
        return []  # universe too large for the codec — nothing to check
    try:
        decoded = codec.decode(codec.encode(configuration))
    except KeyError:
        return []  # configuration outside the universe — nothing to check
    if decoded != configuration:
        return [
            InvariantViolation(
                "codec",
                "codec round-trip is not the identity for the decided "
                "configuration",
            )
        ]
    return []


def check_invariants(
    configuration,
    catalog,
    limits,
    host_ids: Optional[Sequence[str]] = None,
    utility: Optional[Mapping[str, float]] = None,
    context: str = "",
) -> list[InvariantViolation]:
    """All violated invariants for one committed decision (empty = clean).

    ``utility`` is the decision provenance's Eq. 3 breakdown
    (``plan_breakdown`` totals) when available; ``host_ids`` enables the
    codec round-trip check; ``context`` tags the telemetry events with
    where the decision came from (controller name, sample time).
    """
    violations = _allocation_violations(configuration, catalog, limits)
    violations += _replica_zero_violations(configuration, catalog)
    violations += _conservation_violations(utility)
    violations += _codec_violations(configuration, catalog, host_ids)
    if violations and _telemetry.enabled:
        _telemetry.registry.counter("chaos.invariant_violations").inc(
            len(violations)
        )
        for violation in violations:
            _telemetry.tracer.event(
                "chaos.invariant_violation",
                invariant=violation.name,
                detail=violation.detail,
                context=context,
            )
    return violations
