"""The adaptation actions (paper §III-C).

Six action types: increase/decrease a VM's CPU cap by a fixed step,
add/remove a replica (implemented as migration from/to the dormant
pool), live-migrate a VM between hosts, and power hosts down/up.  A
``NullAction`` ("do nothing") marks candidate vertices as terminal in
the A* search (Algorithm 1).

Applying an action produces a new :class:`Configuration`; the result
may be *intermediate* (constraint-violating) — the search is explicitly
allowed to pass through such states (e.g. over-committing CPU before a
follow-up migration restores feasibility).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
)


class ActionError(ValueError):
    """Raised when an action cannot be applied to a configuration."""


class AdaptationAction(ABC):
    """Base class of all adaptation actions."""

    #: Cost-table action family, e.g. ``"migrate"``.
    kind: str = "abstract"

    @abstractmethod
    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        """New configuration after the action; raises :class:`ActionError`
        if the action is structurally impossible (unknown VM, powering
        off a loaded host, ...)."""

    @abstractmethod
    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        """Applications whose response time the action perturbs."""

    @abstractmethod
    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        """Hosts whose power draw the action perturbs."""

    def cost_key(self, catalog: VmCatalog) -> tuple[str, str]:
        """Cost-table index: ``(action family, tier name or '-')``."""
        return (self.kind, "-")

    def changed_vm_ids(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        """VMs whose placement or cap this action changes.

        ``configuration`` is the state the action applies *to* (the
        parent); the default covers actions touching no VM (null, host
        power).  This is the delta contract the incremental evaluators
        rely on: the LQN solver re-solves only the tiers owning these
        VMs, the search updates only their distance/cost-to-go terms.
        Only meaningful when :meth:`apply` would succeed.
        """
        return frozenset()

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        """The placement edits :meth:`apply` would make, without
        building the child configuration.

        Returns ``(vm_id, new_placement)`` pairs (``None`` placement =
        the VM goes dormant) and raises :class:`ActionError` exactly
        when :meth:`apply` would.  Host power actions move no VM and
        return an empty tuple.  The search's pruned expansions rank
        children by this delta alone and only materialize the few they
        keep.
        """
        # Safe default for subclasses that don't specialize: apply for
        # real and read the edits off the child.
        child = self.apply(configuration, catalog, limits)
        return tuple(
            (vm_id, child.placement_of(vm_id))
            for vm_id in sorted(self.changed_vm_ids(configuration, catalog))
        )

    def is_applicable(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> bool:
        """Whether :meth:`apply` would succeed."""
        try:
            self.apply(configuration, catalog, limits)
        except ActionError:
            return False
        return True


@dataclass(frozen=True)
class NullAction(AdaptationAction):
    """Terminal "do nothing" edge (Algorithm 1's ``"null"``)."""

    kind = "null"

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        return configuration

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset()

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        return frozenset()

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        return ()

    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class _CpuCapChange(AdaptationAction):
    """Shared mechanics of the two CPU-cap tuning actions.

    ``count`` applies the fixed step that many times in one shot — a
    macro over the paper's unit action whose duration and cost scale
    linearly with the number of steps.
    """

    vm_id: str
    step: float = 0.1
    count: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"cap step must be positive, got {self.step!r}")
        if self.count < 1:
            raise ValueError(f"step count must be >= 1, got {self.count!r}")

    def _signed_step(self) -> float:
        raise NotImplementedError

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        placement = configuration.placement_of(self.vm_id)
        if placement is None:
            raise ActionError(f"VM {self.vm_id!r} is not placed")
        new_cap = round(placement.cpu_cap + self._signed_step() * self.count, 10)
        if new_cap < limits.min_vm_cpu_cap - 1e-9:
            raise ActionError(
                f"cap {new_cap:.2f} would fall below the "
                f"{limits.min_vm_cpu_cap:.2f} minimum"
            )
        if new_cap > limits.max_total_cpu_cap + 1e-9:
            raise ActionError(
                f"cap {new_cap:.2f} would exceed the per-host guest share "
                f"{limits.max_total_cpu_cap:.2f}"
            )
        return ((self.vm_id, placement.with_cap(new_cap)),)

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        ((vm_id, placement),) = self.placement_delta(
            configuration, catalog, limits
        )
        return configuration.replace(vm_id, placement)

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset({catalog.get(self.vm_id).app_name})

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        placement = configuration.placement_of(self.vm_id)
        return frozenset() if placement is None else frozenset({placement.host_id})

    def cost_key(self, catalog: VmCatalog) -> tuple[str, str]:
        return (self.kind, catalog.get(self.vm_id).tier_name)

    def changed_vm_ids(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset({self.vm_id})


@dataclass(frozen=True)
class IncreaseCpu(_CpuCapChange):
    """Raise one VM's CPU cap by ``step`` (may over-commit the host)."""

    kind = "increase_cpu"

    def _signed_step(self) -> float:
        return self.step

    def __str__(self) -> str:
        return f"increase_cpu({self.vm_id}, +{self.step * self.count:.0%})"


@dataclass(frozen=True)
class DecreaseCpu(_CpuCapChange):
    """Lower one VM's CPU cap by ``step`` (never below the minimum)."""

    kind = "decrease_cpu"

    def _signed_step(self) -> float:
        return -self.step

    def __str__(self) -> str:
        return f"decrease_cpu({self.vm_id}, -{self.step * self.count:.0%})"


@dataclass(frozen=True)
class MigrateVm(AdaptationAction):
    """Live-migrate a VM to another powered host, keeping its cap."""

    kind = "migrate"
    vm_id: str
    target_host: str

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        placement = configuration.placement_of(self.vm_id)
        if placement is None:
            raise ActionError(f"VM {self.vm_id!r} is not placed")
        if placement.host_id == self.target_host:
            raise ActionError(f"VM {self.vm_id!r} is already on {self.target_host!r}")
        if self.target_host not in configuration.powered_hosts:
            raise ActionError(f"target host {self.target_host!r} is not powered")
        return ((self.vm_id, placement.with_host(self.target_host)),)

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        ((vm_id, placement),) = self.placement_delta(
            configuration, catalog, limits
        )
        return configuration.replace(vm_id, placement)

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        """The migrated app plus apps co-located on source or target."""
        placement = configuration.placement_of(self.vm_id)
        affected = {catalog.get(self.vm_id).app_name}
        hosts = {self.target_host}
        if placement is not None:
            hosts.add(placement.host_id)
        for host_id in hosts:
            for other_vm in configuration.vms_on_host(host_id):
                affected.add(catalog.get(other_vm).app_name)
        return frozenset(affected)

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        placement = configuration.placement_of(self.vm_id)
        hosts = {self.target_host}
        if placement is not None:
            hosts.add(placement.host_id)
        return frozenset(hosts)

    def cost_key(self, catalog: VmCatalog) -> tuple[str, str]:
        return (self.kind, catalog.get(self.vm_id).tier_name)

    def changed_vm_ids(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset({self.vm_id})

    def __str__(self) -> str:
        return f"migrate({self.vm_id} -> {self.target_host})"


@dataclass(frozen=True)
class AddReplica(AdaptationAction):
    """Activate a dormant replica of one tier onto a host.

    Implemented (as in the paper) by migrating a dormant VM from the
    cold pool to the target host and allocating it CPU capacity; for
    database tiers this includes state synchronization, which the cost
    tables reflect.
    """

    kind = "add_replica"
    app_name: str
    tier_name: str
    target_host: str
    cpu_cap: float = 0.2
    #: Specific dormant VM to activate; None picks the first dormant
    #: replica of the tier in catalog order.
    vm_id: "str | None" = None

    def _dormant_vm(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> str:
        if self.vm_id is not None:
            if self.vm_id not in catalog:
                raise ActionError(f"unknown VM {self.vm_id!r}")
            descriptor = catalog.get(self.vm_id)
            if (
                descriptor.app_name != self.app_name
                or descriptor.tier_name != self.tier_name
            ):
                raise ActionError(
                    f"VM {self.vm_id!r} is not a replica of "
                    f"{self.app_name}/{self.tier_name}"
                )
            if configuration.is_placed(self.vm_id):
                raise ActionError(f"VM {self.vm_id!r} is already active")
            return self.vm_id
        for descriptor in catalog.for_tier(self.app_name, self.tier_name):
            if not configuration.is_placed(descriptor.vm_id):
                return descriptor.vm_id
        raise ActionError(
            f"no dormant replica of {self.app_name}/{self.tier_name} available"
        )

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        if self.target_host not in configuration.powered_hosts:
            raise ActionError(f"target host {self.target_host!r} is not powered")
        if self.cpu_cap < limits.min_vm_cpu_cap - 1e-9:
            raise ActionError(
                f"replica cap {self.cpu_cap:.2f} below minimum "
                f"{limits.min_vm_cpu_cap:.2f}"
            )
        vm_id = self._dormant_vm(configuration, catalog)
        return ((vm_id, Placement(self.target_host, self.cpu_cap)),)

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        ((vm_id, placement),) = self.placement_delta(
            configuration, catalog, limits
        )
        return configuration.replace(vm_id, placement)

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        affected = {self.app_name}
        for other_vm in configuration.vms_on_host(self.target_host):
            affected.add(catalog.get(other_vm).app_name)
        return frozenset(affected)

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        return frozenset({self.target_host})

    def cost_key(self, catalog: VmCatalog) -> tuple[str, str]:
        return (self.kind, self.tier_name)

    def changed_vm_ids(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset({self._dormant_vm(configuration, catalog)})

    def __str__(self) -> str:
        return (
            f"add_replica({self.app_name}/{self.tier_name} -> "
            f"{self.target_host}:{self.cpu_cap:.0%})"
        )


@dataclass(frozen=True)
class RemoveReplica(AdaptationAction):
    """Deactivate one replica, migrating it back to the cold pool."""

    kind = "remove_replica"
    vm_id: str

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        if not configuration.is_placed(self.vm_id):
            raise ActionError(f"VM {self.vm_id!r} is not placed")
        descriptor = catalog.get(self.vm_id)
        replicas = configuration.replica_count(
            catalog, descriptor.app_name, descriptor.tier_name
        )
        if replicas <= 1:
            raise ActionError(
                f"cannot remove the last replica of "
                f"{descriptor.app_name}/{descriptor.tier_name}"
            )
        return ((self.vm_id, None),)

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        self.placement_delta(configuration, catalog, limits)
        return configuration.remove(self.vm_id)

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        placement = configuration.placement_of(self.vm_id)
        affected = {catalog.get(self.vm_id).app_name}
        if placement is not None:
            for other_vm in configuration.vms_on_host(placement.host_id):
                affected.add(catalog.get(other_vm).app_name)
        return frozenset(affected)

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        placement = configuration.placement_of(self.vm_id)
        return frozenset() if placement is None else frozenset({placement.host_id})

    def cost_key(self, catalog: VmCatalog) -> tuple[str, str]:
        return (self.kind, catalog.get(self.vm_id).tier_name)

    def changed_vm_ids(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset({self.vm_id})

    def __str__(self) -> str:
        return f"remove_replica({self.vm_id})"


@dataclass(frozen=True)
class PowerOnHost(AdaptationAction):
    """Boot a powered-off host (paper: ~90 s, ~80 W surge)."""

    kind = "power_on"
    host_id: str

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        if self.host_id in configuration.powered_hosts:
            raise ActionError(f"host {self.host_id!r} is already powered on")
        return ()

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        self.placement_delta(configuration, catalog, limits)
        return configuration.power_on(self.host_id)

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset()

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        return frozenset({self.host_id})

    def __str__(self) -> str:
        return f"power_on({self.host_id})"


@dataclass(frozen=True)
class PowerOffHost(AdaptationAction):
    """Shut down an empty powered host (paper: ~30 s, ~20 W surge)."""

    kind = "power_off"
    host_id: str

    def placement_delta(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> tuple[tuple[str, "Placement | None"], ...]:
        if self.host_id not in configuration.powered_hosts:
            raise ActionError(f"host {self.host_id!r} is not powered on")
        if configuration.vms_on_host(self.host_id):
            raise ActionError(f"host {self.host_id!r} still hosts VMs")
        return ()

    def apply(
        self,
        configuration: Configuration,
        catalog: VmCatalog,
        limits: ConstraintLimits,
    ) -> Configuration:
        self.placement_delta(configuration, catalog, limits)
        return configuration.power_off(self.host_id)

    def affected_apps(
        self, configuration: Configuration, catalog: VmCatalog
    ) -> frozenset[str]:
        return frozenset()

    def affected_hosts(self, configuration: Configuration) -> frozenset[str]:
        return frozenset({self.host_id})

    def __str__(self) -> str:
        return f"power_off({self.host_id})"


def invert_action(
    action: AdaptationAction,
    before: Configuration,
    catalog: VmCatalog,
) -> AdaptationAction:
    """The action undoing ``action``, given the configuration ``before``
    it was applied.

    Rollback (DESIGN.md §10) applies these inverses in reverse order
    over the applied prefix of an aborted plan; because each inverse
    restores exactly the placement/power edit of its action, the
    composition restores the exact pre-plan :class:`Configuration`.
    ``before`` must be the configuration the action applied *to* —
    inverses of placement actions read the old host/cap off it.
    """
    if isinstance(action, NullAction):
        return action
    if isinstance(action, IncreaseCpu):
        return DecreaseCpu(action.vm_id, step=action.step, count=action.count)
    if isinstance(action, DecreaseCpu):
        return IncreaseCpu(action.vm_id, step=action.step, count=action.count)
    if isinstance(action, MigrateVm):
        placement = before.placement_of(action.vm_id)
        if placement is None:
            raise ActionError(
                f"cannot invert {action}: VM was not placed before it"
            )
        return MigrateVm(action.vm_id, placement.host_id)
    if isinstance(action, AddReplica):
        (vm_id,) = action.changed_vm_ids(before, catalog)
        return RemoveReplica(vm_id)
    if isinstance(action, RemoveReplica):
        placement = before.placement_of(action.vm_id)
        if placement is None:
            raise ActionError(
                f"cannot invert {action}: VM was not placed before it"
            )
        descriptor = catalog.get(action.vm_id)
        return AddReplica(
            descriptor.app_name,
            descriptor.tier_name,
            placement.host_id,
            cpu_cap=placement.cpu_cap,
            vm_id=action.vm_id,
        )
    if isinstance(action, PowerOnHost):
        return PowerOffHost(action.host_id)
    if isinstance(action, PowerOffHost):
        return PowerOnHost(action.host_id)
    raise ActionError(f"no inverse defined for {action!r}")
