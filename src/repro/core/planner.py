"""Diff-based transition planning.

Given a current and a target configuration, produce an ordered sequence
of adaptation actions transforming one into the other: power hosts on,
shed capacity (cap decreases, replica removals), migrate, grow capacity
(replica additions, cap increases), and finally power empty hosts off.
The ordering keeps intermediate states as feasible as possible
(capacity is released before it is claimed) though, as in the paper,
intermediate configurations are allowed to violate packing constraints
transiently.

Used by the Perf-Pwr and Pwr-Cost baseline controllers (which compute a
target configuration and then need a plan) and to seed Mistral's A*
search with a direct path to the ideal configuration.
"""

from __future__ import annotations

from repro.core.actions import (
    AdaptationAction,
    AddReplica,
    DecreaseCpu,
    IncreaseCpu,
    MigrateVm,
    PowerOffHost,
    PowerOnHost,
    RemoveReplica,
)
from repro.core.config import Configuration, ConstraintLimits, VmCatalog


def plan_transition(
    current: Configuration,
    target: Configuration,
    catalog: VmCatalog,
    limits: ConstraintLimits,
) -> list[AdaptationAction]:
    """Ordered actions transforming ``current`` into ``target``.

    The returned plan, applied sequentially, yields a configuration
    equal to ``target`` up to replica identity within a tier (adding a
    replica activates the first dormant VM of the tier, which may not
    be the exact VM id the target names — the configurations are
    behaviourally identical).
    """
    actions: list[AdaptationAction] = []
    step = limits.cpu_cap_step
    state = current

    def cap_steps(delta: float) -> int:
        return round(abs(delta) / step)

    # 1. Boot hosts the target needs.
    for host_id in sorted(target.powered_hosts - state.powered_hosts):
        action = PowerOnHost(host_id)
        state = action.apply(state, catalog, limits)
        actions.append(action)

    # 2. Release capacity: cap decreases for VMs staying put.
    for vm_id in state.placed_vm_ids():
        here = state.placement_of(vm_id)
        there = target.placement_of(vm_id)
        if here is None or there is None:
            continue
        if there.cpu_cap < here.cpu_cap - 1e-9:
            count = cap_steps(here.cpu_cap - there.cpu_cap)
            if count:
                action = DecreaseCpu(vm_id, step, count=count)
                state = action.apply(state, catalog, limits)
                actions.append(action)

    # 3. Remove replicas the target no longer places.
    for vm_id in state.placed_vm_ids():
        if target.placement_of(vm_id) is None:
            descriptor = catalog.get(vm_id)
            count = state.replica_count(
                catalog, descriptor.app_name, descriptor.tier_name
            )
            if count <= 1:
                continue  # the last replica of a tier cannot be removed
            action = RemoveReplica(vm_id)
            state = action.apply(state, catalog, limits)
            actions.append(action)

    # 4. Migrate VMs whose host changed, most-space destinations first.
    pending = [
        vm_id
        for vm_id in state.placed_vm_ids()
        if target.placement_of(vm_id) is not None
        and target.placement_of(vm_id).host_id
        != state.placement_of(vm_id).host_id
    ]
    pending.sort(
        key=lambda vm_id: (
            state.host_cpu_load(target.placement_of(vm_id).host_id),
            vm_id,
        )
    )
    for vm_id in pending:
        action = MigrateVm(vm_id, target.placement_of(vm_id).host_id)
        state = action.apply(state, catalog, limits)
        actions.append(action)

    # 5. Add replicas the target places but the current state lacks,
    #    activating the exact VM the target names.
    for descriptor in catalog:
        vm_id = descriptor.vm_id
        there = target.placement_of(vm_id)
        if there is None or state.placement_of(vm_id) is not None:
            continue
        action = AddReplica(
            descriptor.app_name,
            descriptor.tier_name,
            there.host_id,
            there.cpu_cap,
            vm_id=vm_id,
        )
        state = action.apply(state, catalog, limits)
        actions.append(action)

    # 6. Grow caps.
    for vm_id in state.placed_vm_ids():
        here = state.placement_of(vm_id)
        there = target.placement_of(vm_id)
        if there is None:
            continue
        if there.cpu_cap > here.cpu_cap + 1e-9:
            count = cap_steps(there.cpu_cap - here.cpu_cap)
            if count:
                action = IncreaseCpu(vm_id, step, count=count)
                state = action.apply(state, catalog, limits)
                actions.append(action)

    # 7. Power off hosts the target leaves dark.
    for host_id in sorted(state.powered_hosts - target.powered_hosts):
        if not state.vms_on_host(host_id):
            action = PowerOffHost(host_id)
            state = action.apply(state, catalog, limits)
            actions.append(action)

    return actions
