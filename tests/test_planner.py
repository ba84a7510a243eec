"""Tests for the diff-based transition planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Configuration, ConstraintLimits, Placement
from repro.core.planner import plan_transition

LIMITS = ConstraintLimits()
HOSTS = ("host-0", "host-1", "host-2", "host-3")


def apply_plan(plan, start, catalog):
    state = start
    for action in plan:
        state = action.apply(state, catalog, LIMITS)
    return state


def test_identity_plan_is_empty(base_configuration, catalog):
    assert plan_transition(
        base_configuration, base_configuration, catalog, LIMITS
    ) == []


def test_cap_change_only(base_configuration, catalog):
    target = base_configuration.replace(
        "RUBiS-1-db-0", Placement("host-1", 0.6)
    )
    plan = plan_transition(base_configuration, target, catalog, LIMITS)
    assert len(plan) == 1
    assert apply_plan(plan, base_configuration, catalog) == target


def test_migration_and_power_cycle(base_configuration, catalog):
    placements = dict(base_configuration.placements)
    placements["RUBiS-1-db-0"] = Placement("host-2", 0.4)
    placements["RUBiS-2-db-0"] = Placement("host-0", 0.4)
    # host-1 goes dark, host-2 lights up.
    target = Configuration(placements, {"host-0", "host-2"})
    plan = plan_transition(base_configuration, target, catalog, LIMITS)
    final = apply_plan(plan, base_configuration, catalog)
    assert final == target
    kinds = [action.kind for action in plan]
    assert "power_on" in kinds and "power_off" in kinds
    # Boot before migrating onto the new host; shut down last.
    assert kinds.index("power_on") < kinds.index("migrate")
    assert kinds[-1] == "power_off"


def test_replica_addition_with_exact_identity(base_configuration, catalog):
    target = base_configuration.replace(
        "RUBiS-1-db-1", Placement("host-0", 0.3)
    )
    plan = plan_transition(base_configuration, target, catalog, LIMITS)
    final = apply_plan(plan, base_configuration, catalog)
    assert final == target


def test_replica_removal(base_configuration, catalog):
    grown = base_configuration.replace(
        "RUBiS-1-db-1", Placement("host-0", 0.3)
    )
    plan = plan_transition(grown, base_configuration, catalog, LIMITS)
    final = apply_plan(plan, grown, catalog)
    assert final == base_configuration


def test_decreases_precede_increases(base_configuration, catalog):
    target = base_configuration.replace(
        "RUBiS-1-db-0", Placement("host-1", 0.2)
    ).replace("RUBiS-2-db-0", Placement("host-1", 0.6))
    plan = plan_transition(base_configuration, target, catalog, LIMITS)
    kinds = [action.kind for action in plan]
    assert kinds.index("decrease_cpu") < kinds.index("increase_cpu")
    assert apply_plan(plan, base_configuration, catalog) == target


@st.composite
def feasible_configs(draw, catalog):
    """Random feasible configurations over the 4-host pool."""
    placements = {}
    loads = {host: 0.0 for host in HOSTS}
    counts = {host: 0 for host in HOSTS}
    for descriptor in catalog:
        required = descriptor.tier_name != "db" or descriptor.vm_id.endswith(
            "-0"
        )
        place = required or draw(st.booleans())
        # Tier minimums: always place replica 0 of each tier.
        if not descriptor.vm_id.endswith("-0") and not place:
            continue
        host_options = [
            host
            for host in HOSTS
            if loads[host] <= 0.6 and counts[host] < 4
        ]
        if not host_options:
            if not required:
                continue
            # A required VM (replica 0 of a tier) must land somewhere
            # or the generated configuration violates tier minimums —
            # which the planner legitimately refuses to reach.  Fall
            # back to the least-loaded host with a free VM slot; the
            # planner's verified actions only validate power state, so
            # slight cap overload is harmless here.
            fallback = [host for host in HOSTS if counts[host] < 4]
            host_options = [min(fallback, key=lambda host: loads[host])]
        host = draw(st.sampled_from(host_options))
        cap = draw(st.sampled_from([0.2, 0.3, 0.4]))
        cap = min(cap, round(0.8 - loads[host], 10))
        if cap < 0.2:
            cap = 0.2
        placements[descriptor.vm_id] = Placement(host, cap)
        loads[host] = round(loads[host] + cap, 10)
        counts[host] += 1
    powered = {p.host_id for p in placements.values()} or {"host-0"}
    return Configuration(placements, powered)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_plan_reaches_target(catalog, data):
    current = data.draw(feasible_configs(catalog))
    target = data.draw(feasible_configs(catalog))
    plan = plan_transition(current, target, catalog, LIMITS)
    final = apply_plan(plan, current, catalog)
    # Same caps and hosts for every VM placed in the target, and the
    # same powered set.
    assert final.powered_hosts == target.powered_hosts
    for vm_id, placement in target.placements.items():
        assert final.placement_of(vm_id) == placement
    # No extra active VMs beyond the target's.
    assert set(final.placed_vm_ids()) == set(target.placed_vm_ids())
